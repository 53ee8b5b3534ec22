#include "embedding/subgraph_sampler.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace sepriv {

SubgraphGenerator::SubgraphGenerator(const AdjacencyOracle& oracle,
                                     int negatives_per_edge, uint64_t seed,
                                     EdgeOrientation orientation,
                                     bool exclude_neighbors)
    : oracle_(oracle),
      negatives_per_edge_(negatives_per_edge),
      orientation_(orientation),
      exclude_neighbors_(exclude_neighbors),
      rng_(seed) {
  SEPRIV_CHECK(negatives_per_edge >= 0, "negative count must be >= 0");
  SEPRIV_CHECK(oracle.num_nodes() >= 2, "graph too small for sampling");
}

void SubgraphGenerator::Next(NodeId u, NodeId v, uint32_t edge_index,
                             Subgraph& out) {
  const size_t n = oracle_.num_nodes();
  if (orientation_ == EdgeOrientation::kRandom && rng_.Bernoulli(0.5)) {
    out.center = v;
    out.context = u;
  } else {
    out.center = u;
    out.context = v;
  }
  out.edge_index = edge_index;
  out.negatives.clear();
  out.negatives.reserve(static_cast<size_t>(negatives_per_edge_));
  // Algorithm 1 lines 4–12: rejection-sample nodes non-adjacent to center.
  for (int k = 0; k < negatives_per_edge_; ++k) {
    NodeId cand = out.center;
    bool found = false;
    for (int tries = 0; tries < 256; ++tries) {
      cand = static_cast<NodeId>(rng_.UniformInt(n));
      if (cand != out.center &&
          (!exclude_neighbors_ || !oracle_.HasEdge(out.center, cand))) {
        found = true;
        break;
      }
    }
    if (!found && exclude_neighbors_) {
      // Rejection exhausted its budget (dense neighbourhood). Before
      // relaxing the non-adjacency constraint, reservoir-sample the node
      // range: if ANY valid non-neighbor exists one must be used — falling
      // straight back to "any non-center node" would violate
      // exclude_neighbors whenever the valid set is merely small — and the
      // reservoir keeps the pick uniform over the valid set, matching the
      // distribution rejection sampling targets.
      uint64_t valid_seen = 0;
      for (size_t probe = 0; probe < n; ++probe) {
        const auto node = static_cast<NodeId>(probe);
        if (node == out.center || oracle_.HasEdge(out.center, node)) continue;
        ++valid_seen;
        if (valid_seen == 1 || rng_.UniformInt(valid_seen) == 0) cand = node;
      }
      found = valid_seen > 0;
    }
    if (!found) {
      // Truly no valid negative (e.g. complete graph): relax to any
      // non-center node so construction still terminates.
      cand = static_cast<NodeId>((out.center + 1 + rng_.UniformInt(n - 1)) % n);
      if (cand == out.center) cand = static_cast<NodeId>((cand + 1) % n);
    }
    out.negatives.push_back(cand);
  }
}

SubgraphSampler::SubgraphSampler(const Graph& graph, int negatives_per_edge,
                                 uint64_t seed, EdgeOrientation orientation,
                                 bool exclude_neighbors) {
  GraphAdjacencyOracle oracle(graph);
  SubgraphGenerator gen(oracle, negatives_per_edge, seed, orientation,
                        exclude_neighbors);
  subgraphs_.reserve(graph.num_edges());
  for (size_t e = 0; e < graph.Edges().size(); ++e) {
    const Edge& edge = graph.Edges()[e];
    Subgraph s;
    gen.Next(edge.u, edge.v, static_cast<uint32_t>(e), s);
    subgraphs_.push_back(std::move(s));
  }
}

std::vector<uint32_t> SampleBatchIndices(size_t population, size_t batch_size,
                                         Rng& rng) {
  const size_t n = population;
  SEPRIV_CHECK(n > 0, "no subgraphs to sample");
  const size_t m = std::min(batch_size, n);
  // Floyd's algorithm: uniform m-subset without replacement in O(m).
  // Membership is tracked in a flat hash set keyed by index — the previous
  // std::find over the picked vector made large private batches O(m²).
  // Membership-only (never iterated), so hash order cannot reach the
  // sampled picks; the draw order comes from `picked` and the rng stream.
  std::vector<uint32_t> picked;
  picked.reserve(m);
  std::unordered_set<uint32_t> in_pick;
  in_pick.reserve(m);
  for (size_t j = n - m; j < n; ++j) {
    const auto t = static_cast<uint32_t>(rng.UniformInt(j + 1));
    const uint32_t pick =
        in_pick.insert(t).second ? t : static_cast<uint32_t>(j);
    if (pick != t) in_pick.insert(pick);
    picked.push_back(pick);
  }
  return picked;
}

}  // namespace sepriv
