#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/metrics.hpp"
#include "core/solver.hpp"
#include "graph/components.hpp"
#include "graph/erdos_renyi.hpp"

namespace strat::core {
namespace {

TEST(RingDistance, WrapsAround) {
  EXPECT_DOUBLE_EQ(ring_distance(0.0, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(ring_distance(0.1, 0.9), 0.2);  // across the wrap
  EXPECT_DOUBLE_EQ(ring_distance(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ring_distance(0.0, 0.5), 0.5);  // antipodal maximum
}

TEST(LatencyEdges, OneEdgePerAcceptablePair) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto edges = latency_edges(g, {0.0, 0.1, 0.5, 0.9});
  ASSERT_EQ(edges.size(), 2u);
  // Closer pair has higher (less negative) weight.
  const auto& e01 = edges[0].a == 0 ? edges[0] : edges[1];
  const auto& e23 = edges[0].a == 0 ? edges[1] : edges[0];
  EXPECT_GT(e01.weight, e23.weight);  // dist 0.1 < 0.4
}

TEST(LatencyEdges, Validation) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW((void)latency_edges(g, {0.0}), std::invalid_argument);
  EXPECT_THROW((void)latency_edges(g, {0.0, 1.0}), std::invalid_argument);  // 1.0 not in [0,1)
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)latency_edges(g, {0.0, nan}), std::invalid_argument);
}

TEST(HybridOverlay, CombinesBothMatchings) {
  graph::Rng rng(1);
  const std::size_t n = 60;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  const graph::Graph acceptance = graph::erdos_renyi_gnd(n, 16.0, rng);
  std::vector<double> coords(n);
  for (auto& c : coords) c = rng.uniform();
  HybridConfig cfg;
  cfg.rank_slots = 2;
  cfg.proximity_slots = 1;
  const HybridOverlay overlay = build_hybrid_overlay(acceptance, ranking, coords, cfg);

  // Every rank edge and every proximity edge appears in the union.
  for (PeerId p = 0; p < n; ++p) {
    for (PeerId q : overlay.rank_matching.mates(p)) {
      EXPECT_TRUE(overlay.combined.has_edge(p, q));
    }
    for (PeerId q : overlay.proximity_matching.mates(p)) {
      EXPECT_TRUE(overlay.combined.has_edge(p, q));
    }
    EXPECT_LE(overlay.rank_matching.degree(p), cfg.rank_slots);
    EXPECT_LE(overlay.proximity_matching.degree(p), cfg.proximity_slots);
  }
  // The union never exceeds the acceptance graph.
  for (graph::Vertex u = 0; u < n; ++u) {
    for (graph::Vertex v : overlay.combined.neighbors(u)) {
      EXPECT_TRUE(acceptance.has_edge(u, v));
    }
  }
}

TEST(HybridOverlay, ProximityMatchingPrefersCloseness) {
  graph::Rng rng(2);
  const std::size_t n = 80;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  const graph::Graph acceptance = graph::erdos_renyi_gnd(n, 20.0, rng);
  std::vector<double> coords(n);
  for (auto& c : coords) c = rng.uniform();
  HybridConfig cfg;
  const HybridOverlay overlay = build_hybrid_overlay(acceptance, ranking, coords, cfg);

  // Mean coordinate distance of proximity mates is well below the mean
  // over all acceptable pairs (~0.25 for uniform ring positions).
  double mate_dist = 0.0;
  std::size_t mates = 0;
  for (PeerId p = 0; p < n; ++p) {
    for (PeerId q : overlay.proximity_matching.mates(p)) {
      if (q > p) {
        mate_dist += ring_distance(coords[p], coords[q]);
        ++mates;
      }
    }
  }
  ASSERT_GT(mates, 10u);
  EXPECT_LT(mate_dist / static_cast<double>(mates), 0.12);
}

TEST(HybridOverlay, ReducesDiameterVersusPureRankMatching) {
  // The §7 motivation: pure stratified matching has a long, chain-like
  // collaboration graph; adding one proximity slot shortcuts it.
  graph::Rng rng(3);
  const std::size_t n = 300;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  const graph::Graph acceptance = graph::erdos_renyi_gnd(n, 30.0, rng);
  std::vector<double> coords(n);
  for (auto& c : coords) c = rng.uniform();

  HybridConfig pure;
  pure.rank_slots = 3;
  pure.proximity_slots = 0;
  HybridConfig hybrid;
  hybrid.rank_slots = 3;
  hybrid.proximity_slots = 1;

  // proximity_slots = 0 would make an empty symmetric instance; handle
  // by building the rank matching directly.
  const ExplicitAcceptance acc(acceptance, ranking);
  const Matching rank_only =
      stable_configuration(acc, ranking, std::vector<std::uint32_t>(n, 3));
  const auto rank_graph = collaboration_graph(rank_only);
  const HybridOverlay overlay = build_hybrid_overlay(acceptance, ranking, coords, hybrid);

  const std::size_t d_pure = largest_component_diameter(rank_graph);
  const std::size_t d_hybrid = largest_component_diameter(overlay.combined);
  EXPECT_LT(d_hybrid, d_pure);
}

TEST(LargestComponentDiameter, HandlesEdgeCases) {
  EXPECT_EQ(largest_component_diameter(graph::Graph(3)),
            std::numeric_limits<std::size_t>::max());
  graph::Graph path(4);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.finalize();
  EXPECT_EQ(largest_component_diameter(path), 2u);  // isolated vertex ignored
}

}  // namespace
}  // namespace strat::core
