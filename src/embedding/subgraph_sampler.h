// Algorithm 1 of the paper: pre-computes the set GS of disjoint subgraphs,
// one per edge. Each subgraph holds the positive pair (center, context) and
// k uniformly drawn negative nodes that are non-adjacent to the center.
// Collecting samples before training (footnote 2) makes the epoch-level
// subsampling rate exactly B/|E| for the privacy amplification analysis.
//
// The per-edge construction is factored into SubgraphGenerator, driven by an
// AdjacencyOracle, so the out-of-core pipeline can stream edges from a
// sharded store and write each Subgraph to disk without ever materialising
// GS. SubgraphSampler (the resident form) is a thin loop over the generator;
// for a fixed (seed, orientation, exclude_neighbors, negatives) and the same
// edge order, both produce the identical RNG stream and hence identical
// samples.

#ifndef SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_
#define SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/privacy_annotations.h"
#include "util/rng.h"

namespace sepriv {

/// One training example: an observed edge plus its negative samples.
struct SEPRIV_SENSITIVE_SOURCE Subgraph {
  NodeId center = 0;               // v_i of Eq. (5)
  NodeId context = 0;              // v_j
  std::vector<NodeId> negatives;   // v_n, (center, v_n) ∉ E
  uint32_t edge_index = 0;         // index into Graph::Edges() for p_ij lookup
};

/// How the undirected edge is oriented into (center, context).
enum class EdgeOrientation {
  kCanonical,  // center = min endpoint (the literal Algorithm 1)
  kRandom,     // uniform coin per edge; avoids systematic low-id bias
};

/// The adjacency questions Algorithm 1 asks — the only graph access the
/// generator needs, so an out-of-core store can answer from resident rows.
class AdjacencyOracle {
 public:
  virtual ~AdjacencyOracle() = default;
  virtual size_t num_nodes() const = 0;
  /// Whether the undirected edge {u, v} exists. Next() only asks with u =
  /// the sample's center, which is one endpoint of the edge passed to it,
  /// so an implementation needs only those two endpoints' rows resident
  /// for that call; the out-of-core trainer loads them ahead, a window of
  /// edges at a time, before the generator draws.
  virtual bool HasEdge(NodeId u, NodeId v) const = 0;
};

/// Oracle over a resident Graph.
class GraphAdjacencyOracle final : public AdjacencyOracle {
 public:
  explicit GraphAdjacencyOracle(const Graph& graph) : graph_(graph) {}
  size_t num_nodes() const override { return graph_.num_nodes(); }
  bool HasEdge(NodeId u, NodeId v) const override {
    return graph_.HasEdge(u, v);
  }

 private:
  const Graph& graph_;
};

/// Streaming form of Algorithm 1: call Next() once per canonical edge, in
/// edge-index order, and it emits that edge's Subgraph while advancing the
/// single sampler RNG stream exactly as SubgraphSampler's bulk construction
/// does.
class SubgraphGenerator {
 public:
  SubgraphGenerator(const AdjacencyOracle& oracle, int negatives_per_edge,
                    uint64_t seed,
                    EdgeOrientation orientation = EdgeOrientation::kRandom,
                    bool exclude_neighbors = true);

  /// Builds the sample for edge {u, v} with index `edge_index`. `out` is
  /// overwritten (its negatives vector is reused — no per-call allocation
  /// once warm).
  void Next(NodeId u, NodeId v, uint32_t edge_index, Subgraph& out);

 private:
  const AdjacencyOracle& oracle_;
  int negatives_per_edge_;
  EdgeOrientation orientation_;
  bool exclude_neighbors_;
  Rng rng_;
};

/// Materialises GS = {S_1, ..., S_|E|}.
class SubgraphSampler {
 public:
  /// exclude_neighbors = true is the literal Algorithm 1 (negatives must be
  /// non-adjacent to the center). false samples negatives uniformly over
  /// V \ {center}, the support that Theorem 3's idealized objective (Eq. 12)
  /// actually integrates over.
  SubgraphSampler(const Graph& graph, int negatives_per_edge, uint64_t seed,
                  EdgeOrientation orientation = EdgeOrientation::kRandom,
                  bool exclude_neighbors = true);

  const std::vector<Subgraph>& All() const { return subgraphs_; }
  size_t size() const { return subgraphs_.size(); }

 private:
  std::vector<Subgraph> subgraphs_;
};

/// The batch-subsampling step (line 5 of Algorithm 2): a uniform
/// min(batch_size, population)-subset of [0, population) without replacement
/// — the "subsample without replacement" setup of Definition 6. Callers pass
/// the size of whichever sample source serves the epochs.
std::vector<uint32_t> SampleBatchIndices(size_t population, size_t batch_size,
                                         Rng& rng);

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_
