#include "core/dynamics.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/erdos_renyi.hpp"

namespace strat::core {
namespace {

struct Instance {
  GlobalRanking ranking;
  graph::Graph graph;
  std::unique_ptr<ExplicitAcceptance> acc;

  Instance(std::size_t n, double degree, std::uint64_t seed) {
    graph::Rng rng(seed);
    ranking = GlobalRanking::identity(n);
    graph = graph::erdos_renyi_gnd(n, degree, rng);
    acc = std::make_unique<ExplicitAcceptance>(graph, ranking);
  }
};

TEST(Dynamics, StartsEmptyWithFullDisorderScale) {
  Instance inst(100, 10.0, 1);
  graph::Rng rng(2);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(100, 1),
                        Strategy::kBestMate, rng);
  EXPECT_EQ(engine.current().connection_count(), 0u);
  EXPECT_GT(engine.disorder(), 0.5);  // empty vs stable is near 1
}

TEST(Dynamics, ConvergesToStableConfiguration) {
  Instance inst(200, 10.0, 3);
  graph::Rng rng(4);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(200, 1),
                        Strategy::kBestMate, rng);
  const double units = engine.run_until_stable(50.0);
  EXPECT_LT(units, 50.0);
  EXPECT_DOUBLE_EQ(engine.disorder(), 0.0);
  // Converged exactly to the unique stable configuration.
  for (PeerId p = 0; p < 200; ++p) {
    EXPECT_EQ(engine.current().mate(p), engine.stable().mate(p));
  }
}

TEST(Dynamics, Figure1ConvergenceWithinDUnits) {
  // §3: "the stable configuration is reached in less than n·d
  // initiatives (that is d base units)" for best-mate dynamics.
  for (const auto& [n, d] : std::vector<std::pair<std::size_t, double>>{
           {100, 50.0}, {1000, 10.0}, {1000, 50.0}}) {
    Instance inst(n, d, 5 + n);
    graph::Rng rng(6 + n);
    DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(n, 1),
                          Strategy::kBestMate, rng);
    const double units = engine.run_until_stable(d);
    EXPECT_LE(units, d) << "n=" << n << " d=" << d;
    EXPECT_DOUBLE_EQ(engine.disorder(), 0.0);
  }
}

TEST(Dynamics, TrajectoryIsRecorded) {
  Instance inst(100, 8.0, 7);
  graph::Rng rng(8);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(100, 1),
                        Strategy::kBestMate, rng);
  const auto traj = engine.run(5.0, 4);
  ASSERT_GE(traj.size(), 20u);
  EXPECT_DOUBLE_EQ(traj.front().initiatives_per_peer, 0.0);
  EXPECT_GE(traj.front().disorder, traj.back().disorder);
  // x-axis is nondecreasing.
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i].initiatives_per_peer, traj[i - 1].initiatives_per_peer);
  }
}

TEST(Dynamics, DisorderBroadlyDecreases) {
  Instance inst(300, 10.0, 9);
  graph::Rng rng(10);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(300, 1),
                        Strategy::kBestMate, rng);
  const auto traj = engine.run(10.0, 2);
  // Compare first and last thirds.
  double early = 0.0;
  double late = 0.0;
  const std::size_t third = traj.size() / 3;
  for (std::size_t i = 0; i < third; ++i) early += traj[i].disorder;
  for (std::size_t i = traj.size() - third; i < traj.size(); ++i) late += traj[i].disorder;
  EXPECT_LT(late, early);
}

TEST(Dynamics, AllStrategiesReachTheSameStableState) {
  for (const Strategy s : {Strategy::kBestMate, Strategy::kDecremental, Strategy::kRandom}) {
    Instance inst(80, 8.0, 11);
    graph::Rng rng(12);
    DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(80, 1), s, rng);
    engine.run_until_stable(400.0);
    EXPECT_DOUBLE_EQ(engine.disorder(), 0.0) << strategy_name(s);
  }
}

TEST(Dynamics, BMatchingConvergesToo) {
  Instance inst(60, 12.0, 13);
  graph::Rng rng(14);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(60, 3),
                        Strategy::kBestMate, rng);
  engine.run_until_stable(100.0);
  EXPECT_DOUBLE_EQ(engine.disorder(), 0.0);
  EXPECT_NO_THROW(engine.current().validate(inst.ranking));
}

TEST(Dynamics, RunRejectsBadArguments) {
  Instance inst(20, 5.0, 17);
  graph::Rng rng(18);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(20, 1),
                        Strategy::kBestMate, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.run(1.0, 0), std::invalid_argument);
  for (const double units : {-1.0, nan, inf, 1e300}) {
    EXPECT_THROW(engine.run(units), std::invalid_argument) << units;
    EXPECT_THROW(engine.run_until_stable(units), std::invalid_argument) << units;
  }
  EXPECT_EQ(engine.initiatives(), 0u);
}

TEST(Dynamics, SetCurrentValidates) {
  Instance inst(20, 5.0, 15);
  graph::Rng rng(16);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(20, 1),
                        Strategy::kBestMate, rng);
  EXPECT_THROW(engine.set_current(Matching(19, 1)), std::invalid_argument);
  EXPECT_THROW(engine.set_current(Matching(20, 2)), std::invalid_argument);
  Matching replacement(20, 1);
  replacement.connect(0, 5, inst.ranking);
  engine.set_current(std::move(replacement));
  EXPECT_TRUE(engine.current().are_matched(0, 5));
}

TEST(Dynamics, Figure2RemovalRecoveryIsSmallAndFast) {
  // Start from the stable configuration, remove one peer, and verify
  // the disorder stays small and vanishes within d base units.
  const std::size_t n = 500;
  const double d = 10.0;
  Instance inst(n, d, 17);
  graph::Rng rng(18);
  // Build the perturbed instance: peer `victim` loses all acceptances.
  const PeerId victim = 50;
  graph::Graph perturbed = inst.graph;
  perturbed.isolate(victim);
  const ExplicitAcceptance acc2(perturbed, inst.ranking);
  std::vector<std::uint32_t> caps(n, 1);
  caps[victim] = 0;
  DynamicsEngine engine(acc2, inst.ranking, caps, Strategy::kBestMate, rng);
  // Seed with the original stable configuration minus the victim.
  Matching start = stable_configuration(*inst.acc, inst.ranking,
                                        std::vector<std::uint32_t>(n, 1));
  if (start.mate(victim) != kNoPeer) start.clear_peer(victim);
  Matching seeded(caps);
  for (PeerId p = 0; p < n; ++p) {
    const PeerId q = start.mate(p);
    if (q != kNoPeer && q > p) seeded.connect(p, q, inst.ranking);
  }
  engine.set_current(std::move(seeded));
  EXPECT_LT(engine.disorder(), 0.05);  // removal perturbs only locally
  const double units = engine.run_until_stable(2.0 * d);
  EXPECT_LE(units, 2.0 * d);
  EXPECT_DOUBLE_EQ(engine.disorder(), 0.0);
}

TEST(Dynamics, ActiveInitiativeCountIsBounded) {
  // Theorem 1: the stable state is reachable in B/2 initiatives; the
  // best-mate schedule may waste some, but active ones stay modest.
  Instance inst(100, 20.0, 19);
  graph::Rng rng(20);
  DynamicsEngine engine(*inst.acc, inst.ranking, std::vector<std::uint32_t>(100, 1),
                        Strategy::kBestMate, rng);
  engine.run_until_stable(100.0);
  EXPECT_GT(engine.initiatives(), 0u);
  EXPECT_LE(engine.active_initiatives(), engine.initiatives());
  // Active initiatives can exceed B/2 (peers may re-pair), but not
  // wildly for best-mate dynamics.
  EXPECT_LT(engine.active_initiatives(), 100u * 5u);
}

}  // namespace
}  // namespace strat::core
