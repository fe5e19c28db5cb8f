// Dynamic-overlay unit tests: join/leave/re-announce semantics, edge
// slot recycling (free list + generation stamps), mutual-unchoke
// history surviving slot reuse, arrival-aware rate metrics, and the
// determinism of churned scenario runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"

namespace strat::bt {
namespace {

std::vector<double> bandwidths(std::size_t n, double base = 400.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base * (1.0 + 0.001 * static_cast<double>(i));
  return out;
}

SwarmConfig small_config() {
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 32;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.4;
  return cfg;
}

TEST(SwarmChurn, JoinConnectsTowardTrackerDegree) {
  graph::Rng rng(1);
  const SwarmConfig cfg = small_config();
  Swarm swarm(cfg, bandwidths(30), rng);
  const std::size_t slots_before = swarm.edge_slot_capacity();
  const core::PeerId p = swarm.join(500.0);
  EXPECT_EQ(p, 32u);  // 30 leechers + 2 seeds
  EXPECT_EQ(swarm.degree(p), 8u);
  EXPECT_TRUE(swarm.is_leecher(p));
  EXPECT_FALSE(swarm.departed(p));
  EXPECT_EQ(swarm.arrivals(), 1u);
  EXPECT_EQ(swarm.stats(p).pieces, 0u);
  // 8 fresh edges = 16 directed slots, appended (free list was empty).
  EXPECT_EQ(swarm.edge_slot_capacity(), slots_before + 16);
  // The new peer appears in each chosen neighbor's sorted row.
  for (const core::PeerId q : swarm.neighbors(p)) {
    const auto row = swarm.neighbors(q);
    EXPECT_TRUE(std::binary_search(row.begin(), row.end(), p));
  }
}

TEST(SwarmChurn, JoinRegistersPartialBitfieldAvailability) {
  graph::Rng rng(2);
  const SwarmConfig cfg = small_config();
  Swarm swarm(cfg, bandwidths(30), rng);
  const double copies_before =
      swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
  Bitfield have(cfg.num_pieces);
  have.set(3);
  have.set(17);
  have.set(31);
  const core::PeerId p = swarm.join(500.0, have);
  EXPECT_EQ(swarm.stats(p).pieces, 3u);
  const double copies_after =
      swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
  EXPECT_NEAR(copies_after - copies_before, 3.0, 1e-9);
}

TEST(SwarmChurn, LeaveReleasesSlotsAndAvailability) {
  graph::Rng rng(3);
  const SwarmConfig cfg = small_config();
  Swarm swarm(cfg, bandwidths(30), rng);
  const core::PeerId p = 5;
  const std::size_t deg = swarm.degree(p);
  ASSERT_GT(deg, 0u);
  const std::vector<core::PeerId> old_neighbors(swarm.neighbors(p).begin(),
                                                swarm.neighbors(p).end());
  const std::size_t held = swarm.stats(p).pieces;
  const double copies_before =
      swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
  swarm.leave(p);
  EXPECT_TRUE(swarm.departed(p));
  EXPECT_EQ(swarm.degree(p), 0u);
  EXPECT_EQ(swarm.free_edge_slots(), 2 * deg);
  EXPECT_EQ(swarm.departures(), 1u);
  EXPECT_EQ(swarm.stats(p).leave_round, 0.0);
  const double copies_after =
      swarm.availability_stats().mean * static_cast<double>(cfg.num_pieces);
  EXPECT_NEAR(copies_before - copies_after, static_cast<double>(held), 1e-9);
  // Former neighbors no longer list p.
  for (const core::PeerId q : old_neighbors) {
    const auto row = swarm.neighbors(q);
    EXPECT_FALSE(std::binary_search(row.begin(), row.end(), p));
  }
  // Leaving twice is a no-op.
  swarm.leave(p);
  EXPECT_EQ(swarm.departures(), 1u);
}

TEST(SwarmChurn, SlotRecyclingReusesReleasedSlotsAndBumpsGenerations) {
  graph::Rng rng(4);
  const SwarmConfig cfg = small_config();
  Swarm swarm(cfg, bandwidths(30), rng);
  // Depart peers until at least one full announce worth of slots (2 *
  // target degree 8) is parked on the free list — degrees fluctuate
  // around the mean, so a single departure is not guaranteed to free
  // enough.
  core::PeerId victim = 7;
  while (swarm.free_edge_slots() < 16) swarm.leave(victim++);
  const std::size_t freed = swarm.free_edge_slots();
  ASSERT_GE(freed, 16u);
  const std::size_t capacity = swarm.edge_slot_capacity();
  std::uint32_t generations_before = 0;
  for (std::size_t s = 0; s < capacity; ++s) generations_before += swarm.slot_generation(s);
  EXPECT_EQ(generations_before, freed);  // each released slot bumped once
  // A fresh join claims recycled slots first: the pool must not grow.
  const core::PeerId p = swarm.join(450.0);
  EXPECT_EQ(swarm.degree(p), 8u);
  EXPECT_EQ(swarm.edge_slot_capacity(), capacity);
  EXPECT_EQ(swarm.free_edge_slots(), freed - 16);
}

TEST(SwarmChurn, ReannounceTopsUpDegree) {
  graph::Rng rng(5);
  const SwarmConfig cfg = small_config();
  Swarm swarm(cfg, bandwidths(30), rng);
  // Thin out peer 3's neighborhood by departing its neighbors.
  const std::vector<core::PeerId> nbrs(swarm.neighbors(3).begin(), swarm.neighbors(3).end());
  for (const core::PeerId q : nbrs) swarm.leave(q);
  EXPECT_EQ(swarm.degree(3), 0u);
  const std::size_t added = swarm.reannounce(3);
  EXPECT_EQ(added, 8u);
  EXPECT_EQ(swarm.degree(3), 8u);
  for (const core::PeerId q : swarm.neighbors(3)) {
    EXPECT_FALSE(swarm.departed(q));
  }
  // Already at target: a second re-announce is a no-op.
  EXPECT_EQ(swarm.reannounce(3), 0u);
}

TEST(SwarmChurn, StratificationHistorySurvivesDeparturesAndSlotReuse) {
  graph::Rng rng(6);
  SwarmConfig cfg = small_config();
  cfg.num_peers = 40;
  Swarm swarm(cfg, bandwidths(40), rng);
  swarm.run(25);
  const StratificationReport before = swarm.stratification();
  ASSERT_GT(before.reciprocated_pairs, 0u);
  // Depart a third of the leechers: the accumulated history must be
  // bitwise unchanged — retired records keep exactly what the released
  // slots held.
  for (core::PeerId p = 0; p < 40; p += 3) swarm.leave(p);
  const StratificationReport after_leaves = swarm.stratification();
  EXPECT_EQ(after_leaves.reciprocated_pairs, before.reciprocated_pairs);
  EXPECT_EQ(after_leaves.mean_normalized_offset, before.mean_normalized_offset);
  EXPECT_EQ(after_leaves.partner_rank_correlation, before.partner_rank_correlation);
  // Recycle the freed slots through joins: the pair set must still not
  // change (fresh slots must not leak a previous pair's counters).
  // Rank-dependent aggregates shift — joins rebuild the leecher ranks
  // and the offset normalization — so only the pair count is pinned.
  swarm.join(500.0);
  swarm.join(510.0);
  EXPECT_EQ(swarm.stratification().reciprocated_pairs, before.reciprocated_pairs);
}

TEST(SwarmChurn, ArrivalLeechRateCountsRoundsSinceJoin) {
  graph::Rng rng(7);
  SwarmConfig cfg = small_config();
  cfg.num_peers = 40;
  Swarm swarm(cfg, bandwidths(40, 800.0), rng);
  swarm.run(10);
  const core::PeerId p = swarm.join(600.0);
  EXPECT_EQ(swarm.stats(p).join_round, 10.0);
  swarm.run(5);
  const PeerStats& s = swarm.stats(p);
  ASSERT_GT(s.downloaded_kb, 0.0);
  const double end = s.completion_round >= 0.0 ? s.completion_round : 15.0;
  const double expected = s.downloaded_kb * 8.0 / ((end - 10.0) * cfg.round_seconds);
  EXPECT_DOUBLE_EQ(swarm.leech_download_kbps(p), expected);
}

TEST(SwarmChurn, ChurnedScenarioRunsAreDeterministic) {
  SwarmScenario scenario;
  scenario.config = small_config();
  scenario.config.num_peers = 50;
  scenario.upload_kbps = bandwidths(50);
  scenario.warmup_rounds = 8;
  scenario.measure_rounds = 15;
  scenario.churn.replacement_rate = paper_replacement_rate(20.0, 50);
  scenario.churn.arrivals = ChurnSpec::Arrivals::kPoisson;
  scenario.churn.arrival_rate = 0.5;
  scenario.churn.lifetime = ChurnSpec::Lifetime::kExponential;
  scenario.churn.lifetime_rounds = 20.0;
  scenario.churn.reannounce_interval = 4;
  const ScenarioResult a = run_scenario(scenario, 123);
  const ScenarioResult b = run_scenario(scenario, 123);
  EXPECT_EQ(a.completed_leechers, b.completed_leechers);
  EXPECT_EQ(a.mean_leech_kbps, b.mean_leech_kbps);
  EXPECT_EQ(a.total_uploaded_kb, b.total_uploaded_kb);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs);
  EXPECT_EQ(a.strat.partner_rank_correlation, b.strat.partner_rank_correlation);
  EXPECT_GT(a.arrivals, 0u);
  EXPECT_GT(a.departures, 0u);
  // Thread count must not change per-seed results.
  const std::vector<std::uint64_t> seeds{123, 124, 125};
  const auto serial = run_replications(scenario, seeds, 1);
  const auto parallel = run_replications(scenario, seeds, 3);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(serial[i].mean_leech_kbps, parallel[i].mean_leech_kbps);
    EXPECT_EQ(serial[i].arrivals, parallel[i].arrivals);
  }
}

TEST(SwarmChurn, ArrivalBandwidthModelSamplesPerArrival) {
  // Satellite of the peer-table refactor: arrivals can draw capacities
  // from the paper's empirical upstream CDF instead of cycling a pool.
  graph::Rng rng(9);
  SwarmConfig cfg = small_config();
  cfg.num_peers = 40;
  const std::vector<double> bw = bandwidths(40);
  Swarm swarm(cfg, bw, rng);
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 2.0;
  spec.arrival_model = BandwidthModel::saroiu2002();
  // No pool needed with a model.
  ChurnDriver<Swarm> driver(spec, cfg, {}, rng);
  driver.attach(swarm);
  for (std::size_t r = 0; r < 30; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  ASSERT_GT(swarm.arrivals(), 20u);
  // Arrival capacities are independent draws: positive, and far more
  // diverse than any cycled pool of one.
  std::vector<double> caps;
  for (core::PeerId p = static_cast<core::PeerId>(42); p < swarm.peer_count(); ++p) {
    const double c = swarm.stats(p).upload_kbps;
    EXPECT_GT(c, 0.0);
    caps.push_back(c);
  }
  std::sort(caps.begin(), caps.end());
  const std::size_t distinct =
      static_cast<std::size_t>(std::unique(caps.begin(), caps.end()) - caps.begin());
  EXPECT_GT(distinct, caps.size() / 2);
}

TEST(SwarmChurn, ArrivalBandwidthModelValidation) {
  const SwarmConfig cfg = small_config();
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 1.0;
  // Arrivals with neither a capacity pool nor a model are rejected.
  graph::Rng rng(10);
  EXPECT_THROW((ChurnDriver<Swarm>(spec, cfg, {}, rng)), std::invalid_argument);
}

TEST(SwarmChurn, PaperReplacementRateMapsXPerThousand) {
  EXPECT_DOUBLE_EQ(paper_replacement_rate(1.0, 1000), 1.0);
  EXPECT_DOUBLE_EQ(paper_replacement_rate(10.0, 5000), 50.0);
  EXPECT_DOUBLE_EQ(paper_replacement_rate(0.0, 5000), 0.0);
}

TEST(SwarmChurn, EndgameRunCompletesAndConserves) {
  graph::Rng rng(8);
  SwarmConfig cfg = small_config();
  cfg.endgame = true;
  cfg.initial_completion = 0.7;
  Swarm swarm(cfg, bandwidths(30, 900.0), rng);
  for (std::size_t r = 0; r < 60; ++r) {
    swarm.run_round();
    double uploaded = 0.0;
    double downloaded = 0.0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      uploaded += swarm.stats(p).uploaded_kb;
      downloaded += swarm.stats(p).downloaded_kb;
    }
    ASSERT_NEAR(uploaded, downloaded, 1e-6) << "round " << r;
  }
  EXPECT_GT(swarm.completed_leechers(), 25u);
}

}  // namespace
}  // namespace strat::bt
