// Scenario-engine tests: parallel replications must equal serial ones
// bit for bit, the heterogeneous-slot helper must stay in bounds and
// monotone, and the multi-swarm layout must account for every peer.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <span>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/scenario.hpp"

namespace strat::bt {
namespace {

SwarmScenario small_scenario() {
  SwarmScenario scenario;
  scenario.config.num_peers = 40;
  scenario.config.seeds = 1;
  scenario.config.num_pieces = 128;
  scenario.config.piece_kb = 64.0;
  scenario.config.neighbor_degree = 12.0;
  scenario.config.initial_completion = 0.5;
  scenario.upload_kbps = BandwidthModel::saroiu2002().representative_sample(40);
  scenario.warmup_rounds = 5;
  scenario.measure_rounds = 15;
  return scenario;
}

void expect_same(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.completed_leechers, b.completed_leechers);
  EXPECT_EQ(a.mean_completion_round, b.mean_completion_round);
  EXPECT_EQ(a.mean_leech_kbps, b.mean_leech_kbps);
  EXPECT_EQ(a.top_decile_kbps, b.top_decile_kbps);
  EXPECT_EQ(a.bottom_decile_kbps, b.bottom_decile_kbps);
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs);
  EXPECT_EQ(a.strat.mean_normalized_offset, b.strat.mean_normalized_offset);
  EXPECT_EQ(a.total_uploaded_kb, b.total_uploaded_kb);
  EXPECT_EQ(a.total_downloaded_kb, b.total_downloaded_kb);
}

TEST(Scenario, RunIsDeterministicPerSeed) {
  const SwarmScenario scenario = small_scenario();
  expect_same(run_scenario(scenario, 5), run_scenario(scenario, 5));
}

TEST(Scenario, ParallelReplicationsMatchSerial) {
  const SwarmScenario scenario = small_scenario();
  const std::array<std::uint64_t, 6> seeds{1, 2, 3, 4, 5, 6};
  const auto serial = run_replications(scenario, seeds, 1);
  const auto parallel = run_replications(scenario, seeds, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) expect_same(serial[i], parallel[i]);
  // Different seeds produce different runs.
  EXPECT_NE(serial[0].total_uploaded_kb, serial[1].total_uploaded_kb);

  // The grid overload: each (point, seed) run equals its per-point call
  // at any thread count, and no seeds give one empty vector per point.
  SwarmScenario other = scenario;
  other.config.tft_slots = 2;
  const std::array<SwarmScenario, 2> grid{scenario, other};
  const std::array<std::vector<ScenarioResult>, 2> per_point{serial,
                                                             run_replications(other, seeds, 1)};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto results = run_replications(grid, seeds, threads);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t p = 0; p < grid.size(); ++p) {
      ASSERT_EQ(results[p].size(), seeds.size());
      for (std::size_t i = 0; i < seeds.size(); ++i) expect_same(results[p][i], per_point[p][i]);
    }
  }
  const auto empty = run_replications(grid, std::span<const std::uint64_t>{}, 4);
  ASSERT_EQ(empty.size(), grid.size());
  for (const auto& row : empty) EXPECT_TRUE(row.empty());
}

TEST(Scenario, ResultAggregatesAreCoherent) {
  const auto result = run_scenario(small_scenario(), 7);
  EXPECT_GT(result.total_uploaded_kb, 0.0);
  EXPECT_NEAR(result.total_uploaded_kb, result.total_downloaded_kb, 1e-6);
  EXPECT_GT(result.mean_leech_kbps, 0.0);
}

TEST(Scenario, StratifiedDecilesOrderByCapacity) {
  // Stratified swarms download faster at the top of the capacity
  // order. Needs a long-enough window and population for the decile
  // means to rise above per-seed noise (4-peer deciles over 15 rounds
  // flip sign on unlucky seeds).
  SwarmScenario scenario;
  scenario.config.num_peers = 120;
  scenario.config.seeds = 2;
  scenario.config.num_pieces = 256;
  scenario.config.piece_kb = 256.0;
  scenario.config.neighbor_degree = 20.0;
  scenario.config.initial_completion = 0.5;
  scenario.upload_kbps = BandwidthModel::saroiu2002().representative_sample(120);
  scenario.warmup_rounds = 10;
  scenario.measure_rounds = 30;
  const auto result = run_scenario(scenario, 7);
  EXPECT_GT(result.top_decile_kbps, result.bottom_decile_kbps);
}

TEST(Scenario, CapacityScaledSlotsBoundsAndMonotonicity) {
  const std::vector<double> caps{50.0, 100.0, 400.0, 3000.0, 15000.0};
  const auto slots = capacity_scaled_slots(caps, 1, 8);
  ASSERT_EQ(slots.size(), caps.size());
  EXPECT_EQ(slots.front(), 1u);
  EXPECT_EQ(slots.back(), 8u);
  for (std::size_t i = 1; i < slots.size(); ++i) EXPECT_GE(slots[i], slots[i - 1]);
  // Uniform capacities collapse to the middle of the range.
  const auto uniform = capacity_scaled_slots({100.0, 100.0, 100.0}, 2, 6);
  for (const std::size_t s : uniform) EXPECT_EQ(s, 4u);
  EXPECT_THROW(capacity_scaled_slots(caps, 0, 3), std::invalid_argument);
  EXPECT_THROW(capacity_scaled_slots(caps, 5, 3), std::invalid_argument);
  EXPECT_THROW(capacity_scaled_slots({0.0}, 1, 3), std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(capacity_scaled_slots({100.0, bad}, 1, 3), std::invalid_argument) << bad;
  }
}

TEST(Scenario, HeterogeneousSlotsRunEndToEnd) {
  SwarmScenario scenario = small_scenario();
  scenario.config.tft_slots_per_peer =
      capacity_scaled_slots(scenario.upload_kbps, 1, 6);
  const auto result = run_scenario(scenario, 11);
  EXPECT_GT(result.total_uploaded_kb, 0.0);
  // Mismatched slot vector is rejected.
  scenario.config.tft_slots_per_peer.pop_back();
  EXPECT_THROW((void)run_scenario(scenario, 11), std::invalid_argument);
}

TEST(Scenario, MultiSwarmLayoutAccounting) {
  MultiSwarmSpec spec;
  spec.num_swarms = 3;
  spec.peers_per_swarm = 20;
  spec.overlap_fraction = 0.25;  // 5 shared between consecutive swarms
  EXPECT_EQ(distinct_peer_count(spec), 20u + 15u + 15u);
  spec.config.num_pieces = 64;
  spec.config.piece_kb = 32.0;
  spec.config.neighbor_degree = 8.0;
  spec.config.initial_completion = 0.5;
  spec.upload_kbps = BandwidthModel::saroiu2002().representative_sample(50);
  spec.warmup_rounds = 3;
  spec.measure_rounds = 10;

  const auto serial = run_multi_swarm(spec, 17, 1);
  ASSERT_EQ(serial.per_swarm.size(), 3u);
  EXPECT_EQ(serial.single_home_peers + serial.multi_home_peers, 50u);
  EXPECT_EQ(serial.multi_home_peers, 10u);  // two 5-peer overlaps
  for (const auto& swarm : serial.per_swarm) {
    EXPECT_GT(swarm.total_uploaded_kb, 0.0);
    EXPECT_NEAR(swarm.total_uploaded_kb, swarm.total_downloaded_kb, 1e-6);
  }

  // Thread count must not change results (0 = one shard per hardware
  // thread).
  for (const std::size_t threads : {std::size_t{3}, std::size_t{0}}) {
    const auto parallel = run_multi_swarm(spec, 17, threads);
    EXPECT_EQ(serial.mean_single_home_kbps, parallel.mean_single_home_kbps) << threads;
    EXPECT_EQ(serial.mean_multi_home_kbps, parallel.mean_multi_home_kbps) << threads;
    for (std::size_t k = 0; k < 3; ++k) expect_same(serial.per_swarm[k], parallel.per_swarm[k]);
  }

  // Capacity mismatch is rejected.
  spec.upload_kbps.pop_back();
  EXPECT_THROW((void)run_multi_swarm(spec, 17, 1), std::invalid_argument);

  // So is an overlap fraction outside [0, 1), NaN and the infinities
  // included.
  spec.upload_kbps.push_back(100.0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -0.1, 1.0}) {
    spec.overlap_fraction = bad;
    EXPECT_THROW((void)distinct_peer_count(spec), std::invalid_argument) << bad;
    EXPECT_THROW((void)run_multi_swarm(spec, 17, 1), std::invalid_argument) << bad;
  }
}

TEST(Scenario, ChurnDriverDeadlinesStayLiveSized) {
  // Regression for the driver's old 8-bytes-per-arrival-ever deadline
  // vector: with a lifetime model active and peers also departing by
  // completion (which bypasses the driver), tracked deadlines must
  // stay O(live), not O(arrivals).
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 2;
  cfg.num_pieces = 24;
  cfg.piece_kb = 8.0;       // fast completions: many driver-invisible departures
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.5;
  cfg.stay_as_seed = false;
  const auto bw = BandwidthModel::saroiu2002().representative_sample(40);
  graph::Rng rng(23);
  Swarm swarm(cfg, bw, rng);
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 3.0;
  spec.arrival_completion = 0.5;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 20.0;
  spec.replacement_rate = 1.0;
  ChurnDriver<Swarm> churn(spec, cfg, bw, rng);
  churn.attach(swarm);
  // Instantaneous live count dips below the sweep lag (arrivals land
  // after the sweep, completions after the round), so the O(live)
  // claim is bounded against the peak concurrent population — a
  // constant of the workload, not of how long it runs.
  std::size_t peak_live = swarm.live_peer_count();
  for (std::size_t r = 0; r < 200; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
    peak_live = std::max(peak_live, swarm.live_peer_count());
    ASSERT_LE(churn.tracked_deadlines(), 2 * peak_live + 64) << "round " << r;
  }
  // The bound was actually exercised: cumulative arrivals dwarf it
  // (the old id-indexed vector would have grown past it).
  EXPECT_GT(swarm.arrivals(), 2 * peak_live + 64);
}

}  // namespace
}  // namespace strat::bt
