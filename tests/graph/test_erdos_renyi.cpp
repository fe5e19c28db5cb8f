#include "graph/erdos_renyi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace strat::graph {
namespace {

TEST(ErdosRenyi, RejectsBadProbability) {
  Rng rng(1);
  EXPECT_THROW((void)erdos_renyi_gnp(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW((void)erdos_renyi_gnp(10, 1.1, rng), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)erdos_renyi_gnp(10, nan, rng), std::invalid_argument);
}

TEST(ErdosRenyi, ZeroProbabilityIsEdgeless) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnp(20, 0.0, rng);
  EXPECT_EQ(g.size(), 0u);
}

TEST(ErdosRenyi, ProbabilityOneIsComplete) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnp(12, 1.0, rng);
  EXPECT_EQ(g.size(), 12u * 11u / 2u);
}

TEST(ErdosRenyi, EdgeCountConcentratesAroundMean) {
  Rng rng(4);
  const std::size_t n = 400;
  const double p = 0.05;
  const double expected = p * static_cast<double>(n * (n - 1) / 2);
  double total = 0.0;
  const int runs = 20;
  for (int r = 0; r < runs; ++r) {
    total += static_cast<double>(erdos_renyi_gnp(n, p, rng).size());
  }
  const double mean = total / runs;
  // 20-run average is within a few standard deviations of the mean.
  const double sd = std::sqrt(expected * (1.0 - p) / runs);
  EXPECT_NEAR(mean, expected, 5.0 * sd);
}

TEST(ErdosRenyi, NoLoopsNoDuplicates) {
  Rng rng(5);
  const Graph g = erdos_renyi_gnp(60, 0.2, rng);
  for (Vertex u = 0; u < g.order(); ++u) {
    std::set<Vertex> seen;
    for (Vertex v : g.neighbors(u)) {
      EXPECT_NE(v, u);
      EXPECT_TRUE(seen.insert(v).second) << "duplicate edge at " << u;
    }
  }
}

TEST(ErdosRenyi, SymmetricAdjacency) {
  Rng rng(6);
  const Graph g = erdos_renyi_gnp(50, 0.1, rng);
  for (Vertex u = 0; u < g.order(); ++u) {
    for (Vertex v : g.neighbors(u)) EXPECT_TRUE(g.has_edge(v, u));
  }
}

TEST(ErdosRenyi, GndMeanDegree) {
  Rng rng(7);
  const std::size_t n = 1000;
  const double d = 10.0;
  double total_degree = 0.0;
  const int runs = 5;
  for (int r = 0; r < runs; ++r) {
    total_degree += erdos_renyi_gnd(n, d, rng).mean_degree();
  }
  EXPECT_NEAR(total_degree / runs, d, 0.5);
}

TEST(ErdosRenyi, GndRejectsExcessDegree) {
  Rng rng(8);
  EXPECT_THROW((void)erdos_renyi_gnd(10, 9.5, rng), std::invalid_argument);
  EXPECT_THROW((void)erdos_renyi_gnd(10, -1.0, rng), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)erdos_renyi_gnd(10, nan, rng), std::invalid_argument);
}

TEST(ErdosRenyi, GndTinyPopulation) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnd(1, 0.0, rng);
  EXPECT_EQ(g.order(), 1u);
  EXPECT_THROW((void)erdos_renyi_gnd(1, 1.0, rng), std::invalid_argument);
  EXPECT_THROW((void)erdos_renyi_gnd(1, -1.0, rng), std::invalid_argument);
  EXPECT_THROW((void)erdos_renyi_gnd(1, std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
}

TEST(CompleteGraph, AllPairsPresent) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.size(), 15u);
  for (Vertex u = 0; u < 6; ++u) {
    EXPECT_EQ(g.degree(u), 5u);
  }
}

TEST(RingLattice, CycleIsTwoRegularConnected) {
  const Graph g = ring_lattice(8, 1);
  for (Vertex u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_EQ(g.size(), 8u);
}

TEST(RingLattice, RejectsDegenerate) {
  EXPECT_THROW((void)ring_lattice(4, 0), std::invalid_argument);
  EXPECT_THROW((void)ring_lattice(4, 2), std::invalid_argument);
}

TEST(ConfigurationModel, DegreesBounded) {
  Rng rng(10);
  const Graph g = configuration_model(200, 4, rng);
  std::size_t at_capacity = 0;
  for (Vertex u = 0; u < g.order(); ++u) {
    EXPECT_LE(g.degree(u), 4u);
    if (g.degree(u) == 4u) ++at_capacity;
  }
  // The vast majority reach full degree when n >> b.
  EXPECT_GT(at_capacity, 150u);
}

TEST(ConfigurationModel, RejectsBTooLarge) {
  Rng rng(11);
  EXPECT_THROW((void)configuration_model(4, 4, rng), std::invalid_argument);
}

TEST(ConfigurationModel, SameSeedSameGraph) {
  Rng rng_a(77);
  Rng rng_b(77);
  const Graph ga = configuration_model(150, 3, rng_a);
  const Graph gb = configuration_model(150, 3, rng_b);
  ASSERT_EQ(ga.size(), gb.size());
  for (Vertex u = 0; u < ga.order(); ++u) {
    const auto na = ga.neighbors(u);
    const auto nb = gb.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << u;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

}  // namespace
}  // namespace strat::graph
