#include "proximity/walk_proximity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace sepriv {
namespace {

// Reference truncated Katz row Σ_{l=1..L} β^l (A^l)_source·: walk counts
// pushed from the source over all L hops into dense |V| vectors, each hop
// added to the row in order. KatzProximity (L−1 hops pushed, the last one
// pulled per target) must reproduce it bit for bit.
std::vector<double> DenseKatzRow(const Graph& g, NodeId source,
                                 int max_length, double beta) {
  const size_t n = g.num_nodes();
  std::vector<double> row(n, 0.0), cur(n, 0.0), next(n, 0.0);
  std::vector<NodeId> cur_nz = {source}, next_nz;
  cur[source] = 1.0;
  double beta_pow = 1.0;
  for (int l = 1; l <= max_length; ++l) {
    beta_pow *= beta;
    for (NodeId k : cur_nz) {
      const double count = cur[k];
      for (NodeId u : g.Neighbors(k)) {
        if (next[u] == 0.0) next_nz.push_back(u);
        next[u] += count;
      }
      cur[k] = 0.0;
    }
    for (NodeId u : next_nz) row[u] += beta_pow * next[u];
    cur.swap(next);
    cur_nz.swap(next_nz);
    next_nz.clear();
  }
  return row;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<std::pair<std::string, Graph>> KatzOracleGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("karate", KarateClub());
  graphs.emplace_back("path", PathGraph(9));
  graphs.emplace_back("cycle", CycleGraph(11));
  graphs.emplace_back("star", StarGraph(12));
  graphs.emplace_back("ba300", BarabasiAlbert(300, 3, /*seed=*/5));
  graphs.emplace_back("er_isolated", ErdosRenyiGnm(60, 40, /*seed=*/3));
  return graphs;
}

TEST(DeepWalkProximityTest, OneStepRowIsNormalizedAdjacency) {
  Graph g = PathGraph(4);  // 0-1-2-3
  DeepWalkProximity p(g, /*window=*/1);
  // Row of node 1: uniform over neighbours {0, 2}.
  EXPECT_NEAR(p.At(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(p.At(1, 2), 0.5, 1e-12);
  EXPECT_NEAR(p.At(1, 3), 0.0, 1e-12);
  // Endpoint: all mass to the single neighbour.
  EXPECT_NEAR(p.At(0, 1), 1.0, 1e-12);
}

TEST(DeepWalkProximityTest, RowSumsToOne) {
  Graph g = KarateClub();
  for (int window : {1, 2, 4}) {
    DeepWalkProximity p(g, window);
    for (NodeId i : {NodeId(0), NodeId(5), NodeId(33)}) {
      double sum = 0.0;
      for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(i, j);
      EXPECT_NEAR(sum, 1.0, 1e-9) << "window=" << window << " node " << i;
    }
  }
}

TEST(DeepWalkProximityTest, PositiveOnEveryEdge) {
  Graph g = KarateClub();
  DeepWalkProximity p(g, 2);
  for (const Edge& e : g.Edges()) {
    EXPECT_GT(p.At(e.u, e.v), 0.0);
    EXPECT_GT(p.At(e.v, e.u), 0.0);
  }
}

TEST(DeepWalkProximityTest, TwoStepHandComputed) {
  Graph g = PathGraph(3);  // 0-1-2
  DeepWalkProximity p(g, 2);
  // W = rows: 0->{1:1}, 1->{0:.5,2:.5}, 2->{1:1}
  // W² row 0: {0:.5, 2:.5}. M = (W + W²)/2.
  EXPECT_NEAR(p.At(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(p.At(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(p.At(0, 2), 0.25, 1e-12);
}

TEST(DeepWalkProximityTest, CachedRowConsistentAcrossQueries) {
  Graph g = CycleGraph(10);
  DeepWalkProximity p(g, 3);
  const double first = p.At(2, 5);
  p.At(7, 1);  // evict
  EXPECT_DOUBLE_EQ(p.At(2, 5), first);
}

TEST(WalkProximityTest, ScratchReuseIsInvisible) {
  // One provider visiting sources in a scrambled order (its push scratch
  // reused and sparsely reset between rows) answers every pair with the
  // bits a fresh provider computes for that source alone.
  const Graph g = BarabasiAlbert(200, 3, /*seed=*/9);
  const KatzProximity katz(g, 4, 0.05);
  const PersonalizedPageRankProximity ppr(g, 0.15, 10);
  const DeepWalkProximity deepwalk(g, 3);
  const std::vector<NodeId> sources = {17, 0, 199, 17, 42, 0, 5};
  for (const ProximityProvider* shared :
       std::vector<const ProximityProvider*>{&katz, &ppr, &deepwalk}) {
    for (NodeId i : sources) {
      const auto fresh = shared->Clone();
      for (NodeId j = 0; j < g.num_nodes(); ++j) {
        const double want = fresh->At(i, j);
        ASSERT_TRUE(SameBits(shared->At(i, j), want))
            << shared->Name() << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(SampledDeepWalkTest, ApproximatesExactOnEdges) {
  Graph g = KarateClub();
  DeepWalkProximity exact(g, 2);
  SampledDeepWalkProximity sampled(g, 2, /*walks=*/4000, /*seed=*/11);
  double max_err = 0.0;
  for (size_t e = 0; e < 20; ++e) {
    const Edge& ed = g.Edges()[e];
    max_err = std::max(max_err, std::abs(exact.At(ed.u, ed.v) -
                                         sampled.At(ed.u, ed.v)));
  }
  EXPECT_LT(max_err, 0.03);
}

TEST(SampledDeepWalkTest, DeterministicPerSeed) {
  Graph g = KarateClub();
  SampledDeepWalkProximity a(g, 2, 100, 5), b(g, 2, 100, 5);
  EXPECT_DOUBLE_EQ(a.At(0, 1), b.At(0, 1));
  EXPECT_DOUBLE_EQ(a.At(33, 32), b.At(33, 32));
}

TEST(SampledDeepWalkTest, RowMassAtMostOne) {
  Graph g = KarateClub();
  SampledDeepWalkProximity p(g, 3, 500, 7);
  double sum = 0.0;
  for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(0, j);
  EXPECT_NEAR(sum, 1.0, 1e-9);  // every step lands somewhere
}

TEST(KatzProximityTest, SinglePathCounts) {
  Graph g = PathGraph(3);  // 0-1-2
  KatzProximity p(g, /*max_length=*/2, /*beta=*/0.1);
  // Paths 0->1: one of length 1 -> 0.1; plus none of length 2.
  EXPECT_NEAR(p.At(0, 1), 0.1, 1e-12);
  // 0->2: one walk of length 2 -> 0.01.
  EXPECT_NEAR(p.At(0, 2), 0.01, 1e-12);
  // 0->0: walk 0-1-0 -> 0.01.
  EXPECT_NEAR(p.At(0, 0), 0.01, 1e-12);
}

TEST(KatzProximityTest, TriangleWalkCounts) {
  Graph g = CycleGraph(3);
  KatzProximity p(g, 3, 0.5);
  // In the triangle every vertex has two closed 2-walks and each pair of
  // distinct vertices one 2-walk (via the third vertex): A² = A + 2I. Hence
  // A³ = A·A² = A² + 2A = 3A + 2I, and (A¹, A², A³)_01 = (1, 1, 3).
  EXPECT_NEAR(p.At(0, 1), 0.5 * 1 + 0.25 * 1 + 0.125 * 3, 1e-12);
}

TEST(KatzProximityTest, MonotoneInPathLength) {
  Graph g = PathGraph(6);
  KatzProximity p(g, 5, 0.2);
  // Closer along the path => larger Katz score.
  EXPECT_GT(p.At(0, 1), p.At(0, 2));
  EXPECT_GT(p.At(0, 2), p.At(0, 3));
  EXPECT_GT(p.At(0, 3), p.At(0, 4));
}

TEST(KatzProximityTest, SymmetricOnUndirectedGraphs) {
  Graph g = KarateClub();
  KatzProximity p(g, 4, 0.05);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_EQ(p.At(i, j), p.At(j, i)) << i << "," << j;
    }
  }
}

TEST(KatzProximityTest, MatchesDenseSeriesBitForBitOnAllPairs) {
  const auto graphs = KatzOracleGraphs();
  const Graph& er = graphs.back().second;
  size_t isolated = 0;
  for (NodeId v = 0; v < er.num_nodes(); ++v) isolated += er.Degree(v) == 0;
  ASSERT_GT(isolated, 0u) << "the ER graph must cover isolated nodes";
  for (const auto& [name, g] : graphs) {
    for (int max_length : {1, 2, 3, 4, 6}) {
      for (double beta : {0.05, 0.5}) {
        KatzProximity p(g, max_length, beta);
        size_t mismatches = 0;
        for (NodeId i = 0; i < g.num_nodes(); ++i) {
          const std::vector<double> want =
              DenseKatzRow(g, i, max_length, beta);
          for (NodeId j = 0; j < g.num_nodes(); ++j) {
            const double got = p.At(i, j);
            if (!SameBits(got, want[j]) && mismatches++ == 0) {
              ADD_FAILURE() << name << " L=" << max_length
                            << " beta=" << beta << " (" << i << "," << j
                            << "): " << got << " vs " << want[j];
            }
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << name << " L=" << max_length << " beta=" << beta;
      }
    }
  }
}

TEST(KatzProximityTest, QueryOrderIndependent) {
  // Interleaved sources and targets, returning to earlier sources: every
  // answer is the dense series of its own pair, whatever came before.
  const Graph g = BarabasiAlbert(300, 3, /*seed=*/5);
  KatzProximity p(g, 4, 0.05);
  const std::vector<std::pair<NodeId, NodeId>> queries = {
      {7, 3},   {7, 250}, {120, 7}, {7, 3},    {0, 299}, {120, 121},
      {299, 0}, {0, 0},   {7, 7},   {120, 7},  {3, 7},   {250, 7}};
  for (const auto& [i, j] : queries) {
    const double want = DenseKatzRow(g, i, 4, 0.05)[j];
    EXPECT_TRUE(SameBits(p.At(i, j), want)) << "(" << i << "," << j << ")";
  }
}

TEST(PprProximityTest, MassConcentratesNearSource) {
  Graph g = PathGraph(7);
  PersonalizedPageRankProximity p(g, 0.2, 30);
  EXPECT_GT(p.At(0, 1), p.At(0, 3));
  EXPECT_GT(p.At(0, 3), p.At(0, 6));
}

TEST(PprProximityTest, RowSumsToAtMostOne) {
  Graph g = KarateClub();
  PersonalizedPageRankProximity p(g, 0.15, 25);
  for (NodeId i : {NodeId(0), NodeId(16), NodeId(33)}) {
    double sum = 0.0;
    for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(i, j);
    EXPECT_LE(sum, 1.0 + 1e-9);
    EXPECT_GT(sum, 0.9);  // most mass retained after 25 iterations
  }
}

TEST(PprProximityTest, HigherAlphaStaysCloserToSource) {
  Graph g = CycleGraph(20);
  PersonalizedPageRankProximity lo(g, 0.1, 40);
  PersonalizedPageRankProximity hi(g, 0.6, 40);
  // With a larger restart probability the walk stays near the source.
  EXPECT_GT(hi.At(0, 0), lo.At(0, 0));
  EXPECT_LT(hi.At(0, 10), lo.At(0, 10) + 1e-12);
}

TEST(WalkProximityDeathTest, BadParametersAbort) {
  Graph g = PathGraph(3);
  EXPECT_DEATH(KatzProximity(g, 0, 0.1), "max_length");
  EXPECT_DEATH(PersonalizedPageRankProximity(g, 1.5, 10), "alpha");
  EXPECT_DEATH(DeepWalkProximity(g, 0), "window");
}

TEST(WalkProximityDeathTest, OutOfRangeQueryAborts) {
  Graph g = PathGraph(3);
  KatzProximity katz(g, 3, 0.1);
  EXPECT_DEATH(katz.At(0, 3), "out of range");
  EXPECT_DEATH(katz.At(3, 0), "out of range");
  PersonalizedPageRankProximity ppr(g, 0.15, 5);
  EXPECT_DEATH(ppr.At(0, 3), "out of range");
}

TEST(WalkProximityTest, NamesEncodeParameters) {
  Graph g = PathGraph(3);
  EXPECT_EQ(KatzProximity(g, 4, 0.05).Name(), "katz(L=4,beta=0.050)");
  EXPECT_EQ(DeepWalkProximity(g, 2).Name(), "deepwalk(T=2)");
  EXPECT_EQ(PersonalizedPageRankProximity(g, 0.15, 20).Name(),
            "ppr(alpha=0.15,iters=20)");
}

TEST(WalkProximityTest, NamesTellApartParametersBeyondTheShortForm) {
  // Name() keys the persistent proximity cache: parameters that differ past
  // the short form's last decimal must still give different names.
  Graph g = PathGraph(3);
  EXPECT_NE(KatzProximity(g, 4, 0.05).Name(),
            KatzProximity(g, 4, 0.0504).Name());
  EXPECT_NE(PersonalizedPageRankProximity(g, 0.15, 20).Name(),
            PersonalizedPageRankProximity(g, 0.1501, 20).Name());
  EXPECT_EQ(KatzProximity(g, 4, 0.0504).Name(),
            "katz(L=4,beta=0.0504)");
}

}  // namespace
}  // namespace sepriv
