#include "graph/graph_stats.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sepriv {
namespace {

TEST(GraphStatsTest, TriangleCountOnKnownGraphs) {
  EXPECT_EQ(TriangleCount(CycleGraph(3)), 1u);
  EXPECT_EQ(TriangleCount(CycleGraph(4)), 0u);
  EXPECT_EQ(TriangleCount(CompleteGraph(4)), 4u);   // C(4,3)
  EXPECT_EQ(TriangleCount(CompleteGraph(6)), 20u);  // C(6,3)
  EXPECT_EQ(TriangleCount(StarGraph(10)), 0u);
  EXPECT_EQ(TriangleCount(PathGraph(10)), 0u);
}

TEST(GraphStatsTest, KarateClubTriangles) {
  // Known value for Zachary's karate club: 45 triangles.
  EXPECT_EQ(TriangleCount(KarateClub()), 45u);
}

TEST(GraphStatsTest, GlobalClusteringExtremes) {
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(CompleteGraph(5)), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(StarGraph(6)), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(PathGraph(5)), 0.0);
}

TEST(GraphStatsTest, GlobalClusteringTriangleWithTail) {
  // Triangle 0-1-2 plus pendant 2-3: 1 triangle; wedges: d0=2 ->1, d1=2 ->1,
  // d2=3 ->3, d3=1 ->0 => total 5; C = 3/5.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.6);
}

TEST(GraphStatsTest, AverageLocalClusteringComplete) {
  EXPECT_DOUBLE_EQ(AverageLocalClustering(CompleteGraph(6)), 1.0);
}

TEST(GraphStatsTest, AverageLocalClusteringTriangleWithTail) {
  // Local: node0 = 1, node1 = 1, node2 = 1/3, node3 = 0 -> mean 7/12.
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EXPECT_NEAR(AverageLocalClustering(g), 7.0 / 12.0, 1e-12);
}

TEST(GraphStatsTest, DegreeHistogram) {
  Graph g = StarGraph(5);  // degrees: 4,1,1,1,1
  const auto hist = DegreeHistogram(g);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[4], 1u);
  EXPECT_EQ(hist[0], 0u);
}

TEST(GraphStatsTest, ConnectedComponentsSingle) {
  Graph g = CycleGraph(8);
  EXPECT_EQ(ComponentCount(g), 1u);
  EXPECT_EQ(LargestComponentSize(g), 8u);
}

TEST(GraphStatsTest, ConnectedComponentsDisjoint) {
  // Two edges + two isolated nodes = 4 components.
  Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}});
  EXPECT_EQ(ComponentCount(g), 4u);
  EXPECT_EQ(LargestComponentSize(g), 2u);
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[5]);
}

TEST(GraphStatsTest, DiameterOnPath) {
  // Double-sweep BFS is exact on trees.
  EXPECT_EQ(EstimateDiameter(PathGraph(10)), 9u);
  EXPECT_EQ(EstimateDiameter(StarGraph(7)), 2u);
}

TEST(GraphStatsTest, DiameterOnCycle) {
  // Exact diameter of C10 is 5; the estimate is a lower bound.
  const size_t est = EstimateDiameter(CycleGraph(10), 8);
  EXPECT_GE(est, 4u);
  EXPECT_LE(est, 5u);
}

TEST(GraphStatsTest, StandInsMatchStructuralExpectations) {
  // The Power stand-in must look grid-like (high diameter, low clustering)
  // while Chameleon must look social (low diameter, high clustering) — the
  // calibration criteria of graph/datasets.cc.
  Graph power = WattsStrogatz(500, 1, 0.05, 167, 3);
  Graph social = PowerLawCluster(500, 14, 0.5, 3);
  EXPECT_GT(EstimateDiameter(power), 4 * EstimateDiameter(social));
  EXPECT_GT(GlobalClusteringCoefficient(social),
            5.0 * GlobalClusteringCoefficient(power) + 0.01);
}

TEST(GraphStatsTest, EmptyGraphSafe) {
  Graph g;
  EXPECT_EQ(ComponentCount(g), 0u);
  EXPECT_EQ(EstimateDiameter(g), 0u);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

}  // namespace
}  // namespace sepriv
