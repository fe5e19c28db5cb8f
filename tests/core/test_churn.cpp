#include "core/churn.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace strat::core {
namespace {

ChurnParams small_params() {
  ChurnParams p;
  p.initial_peers = 100;
  p.expected_degree = 10.0;
  p.capacity = 1;
  p.churn_rate = 0.0;
  return p;
}

TEST(Churn, RejectsDegenerateParams) {
  graph::Rng rng(1);
  ChurnParams p = small_params();
  p.initial_peers = 1;
  EXPECT_THROW(ChurnSimulator(p, rng), std::invalid_argument);
  for (const double rate : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    p = small_params();
    p.churn_rate = rate;
    EXPECT_THROW(ChurnSimulator(p, rng), std::invalid_argument) << rate;
  }
}

TEST(Churn, NoChurnConvergesToZeroDisorder) {
  graph::Rng rng(2);
  ChurnSimulator sim(small_params(), rng);
  sim.run(30.0, 2);
  EXPECT_NEAR(sim.instant_disorder(), 0.0, 1e-12);
  EXPECT_EQ(sim.arrivals(), 0u);
  EXPECT_EQ(sim.departures(), 0u);
  EXPECT_EQ(sim.active_count(), 100u);
}

TEST(Churn, ReplacementKeepsPopulationStationary) {
  graph::Rng rng(3);
  ChurnParams p = small_params();
  p.churn_rate = 0.05;
  ChurnSimulator sim(p, rng);
  sim.run(10.0, 1);
  EXPECT_EQ(sim.active_count(), 100u);
  EXPECT_GT(sim.arrivals(), 0u);
  EXPECT_EQ(sim.arrivals(), sim.departures());
}

TEST(Churn, RemovalOnlyShrinks) {
  graph::Rng rng(4);
  ChurnParams p = small_params();
  p.churn_rate = 0.02;
  p.kind = ChurnKind::kRemovalOnly;
  ChurnSimulator sim(p, rng);
  sim.run(5.0, 1);
  EXPECT_LT(sim.active_count(), 100u);
  EXPECT_EQ(sim.arrivals(), 0u);
}

TEST(Churn, ArrivalOnlyGrows) {
  graph::Rng rng(5);
  ChurnParams p = small_params();
  p.churn_rate = 0.02;
  p.kind = ChurnKind::kArrivalOnly;
  ChurnSimulator sim(p, rng);
  sim.run(5.0, 1);
  EXPECT_GT(sim.active_count(), 100u);
  EXPECT_EQ(sim.departures(), 0u);
}

TEST(Churn, MatchingStaysValidUnderHeavyChurn) {
  graph::Rng rng(6);
  ChurnParams p = small_params();
  p.churn_rate = 0.2;
  p.capacity = 2;
  ChurnSimulator sim(p, rng);
  sim.run(10.0, 1);
  EXPECT_NO_THROW(sim.current().validate(sim.ranking()));
  // No ghost may hold a collaboration.
  std::vector<bool> active(sim.current().size(), false);
  for (PeerId id : sim.active()) active[id] = true;
  for (PeerId id = 0; id < sim.current().size(); ++id) {
    if (!active[id]) {
      EXPECT_EQ(sim.current().degree(id), 0u) << "ghost " << id;
    }
  }
}

TEST(Churn, DisorderScalesWithChurnRate) {
  // Figure 3's qualitative claim: the residual disorder grows with the
  // churn rate. Compare a light and a heavy rate after burn-in.
  auto plateau = [](double rate, std::uint64_t seed) {
    graph::Rng rng(seed);
    ChurnParams p;
    p.initial_peers = 200;
    p.expected_degree = 10.0;
    p.churn_rate = rate;
    ChurnSimulator sim(p, rng);
    sim.run(10.0, 1);  // burn-in
    const auto traj = sim.run(10.0, 2);
    double mean = 0.0;
    for (const auto& pt : traj) mean += pt.disorder;
    return mean / static_cast<double>(traj.size());
  };
  const double light = plateau(0.002, 7);
  const double heavy = plateau(0.05, 8);
  EXPECT_LT(light, heavy);
}

TEST(Churn, TrajectorySamplesInstantDisorder) {
  graph::Rng rng(9);
  ChurnParams p = small_params();
  p.churn_rate = 0.01;
  ChurnSimulator sim(p, rng);
  const auto traj = sim.run(5.0, 2);
  ASSERT_GE(traj.size(), 10u);
  for (const auto& pt : traj) {
    EXPECT_GE(pt.disorder, 0.0);
    EXPECT_LE(pt.disorder, 1.5);
  }
}

TEST(Churn, RunRejectsBadArguments) {
  graph::Rng rng(10);
  ChurnSimulator sim(small_params(), rng);
  EXPECT_THROW(sim.run(1.0, 0), std::invalid_argument);
  for (const double units : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.run(units), std::invalid_argument) << units;
  }
}

}  // namespace
}  // namespace strat::core
