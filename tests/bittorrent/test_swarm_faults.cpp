// Fault-injection tier (ctest -L faults): the deterministic fault
// model must satisfy four contracts at once.
//
//  1. Zero-cost-when-off: with FaultSpec disabled, runs are bitwise
//     identical to the pre-fault implementation — pinned here against
//     golden stats digests captured from the tree at the commit before
//     faults landed (churned Swarm run and TrackerSim ecosystem run).
//  2. Determinism under faults: a faulted, churned run is bitwise
//     invariant to SwarmConfig::threads, every fault draw coming from
//     counter streams keyed by (fault salt, external id, round/seq) —
//     and the always-serial ReferenceSwarm oracle, applying the
//     identical fault algorithm, matches the flat plane exactly under
//     a combined churn + outage + loss + NAT storm.
//  3. Degraded operation: announces lost to a tracker outage put the
//     peer on capped exponential backoff (unit-tested here), retries
//     re-announce when the tracker returns, and success resets the
//     schedule.
//  4. Mid-outage checkpoints: save() during an outage carries every
//     backoff deadline, and the resumed run continues bitwise.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/faults.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace strat::bt {
namespace {

std::vector<double> capacities(std::size_t n) {
  return BandwidthModel::saroiu2002().representative_sample(n);
}

// ---------------------------------------------------------------------
// FaultSpec units: backoff schedule and outage windows.
// ---------------------------------------------------------------------

TEST(FaultSpec, RetryDelayDoublesAndCaps) {
  FaultSpec spec;
  spec.backoff_base = 1;
  spec.backoff_cap = 64;
  EXPECT_EQ(spec.retry_delay(1), 1u);
  EXPECT_EQ(spec.retry_delay(2), 2u);
  EXPECT_EQ(spec.retry_delay(3), 4u);
  EXPECT_EQ(spec.retry_delay(7), 64u);
  EXPECT_EQ(spec.retry_delay(8), 64u);
  EXPECT_EQ(spec.retry_delay(1000), 64u);  // no overflow at huge counts

  spec.backoff_base = 3;
  spec.backoff_cap = 10;
  EXPECT_EQ(spec.retry_delay(1), 3u);
  EXPECT_EQ(spec.retry_delay(2), 6u);
  EXPECT_EQ(spec.retry_delay(3), 10u);  // 12 clipped to the cap
  EXPECT_EQ(spec.retry_delay(4), 10u);

  spec.backoff_base = 5;
  spec.backoff_cap = 5;
  EXPECT_EQ(spec.retry_delay(1), 5u);
  EXPECT_EQ(spec.retry_delay(9), 5u);
}

TEST(FaultSpec, TrackerDownWindows) {
  FaultSpec spec;
  spec.outage_period = 8;
  spec.outage_duration = 2;
  spec.outage_phase = 0;
  for (std::size_t r = 0; r < 24; ++r) {
    EXPECT_EQ(spec.tracker_down(r), r % 8 < 2) << "round " << r;
  }
  spec.outage_phase = 6;
  EXPECT_FALSE(spec.tracker_down(0));
  EXPECT_FALSE(spec.tracker_down(1));
  EXPECT_TRUE(spec.tracker_down(2));
  EXPECT_TRUE(spec.tracker_down(3));
  EXPECT_FALSE(spec.tracker_down(4));
  EXPECT_TRUE(spec.tracker_down(10));

  FaultSpec off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.outages());
  EXPECT_FALSE(off.tracker_down(0));
  EXPECT_FALSE(off.flaky_connects());
  EXPECT_FALSE(off.lossy_lanes());
}

TEST(FaultSpec, InvalidSpecsRejectedAtConstruction) {
  SwarmConfig cfg;
  cfg.num_peers = 10;
  cfg.num_pieces = 8;
  const auto caps = capacities(10);
  {
    SwarmConfig bad = cfg;
    bad.faults.connect_failure_prob = 1.5;
    graph::Rng rng(1);
    EXPECT_THROW(Swarm(bad, caps, rng), std::invalid_argument);
  }
  {
    SwarmConfig bad = cfg;
    bad.faults.lane_loss_prob = -0.1;
    graph::Rng rng(1);
    EXPECT_THROW(Swarm(bad, caps, rng), std::invalid_argument);
  }
  {
    SwarmConfig bad = cfg;
    bad.faults.connect_failure_prob = 0.5;
    bad.faults.connect_attempts = 0;
    graph::Rng rng(1);
    EXPECT_THROW(Swarm(bad, caps, rng), std::invalid_argument);
  }
  {
    SwarmConfig bad = cfg;
    bad.faults.outage_period = 4;
    bad.faults.outage_duration = 1;
    bad.faults.backoff_base = 4;
    bad.faults.backoff_cap = 2;  // cap below base
    graph::Rng rng(1);
    EXPECT_THROW(Swarm(bad, caps, rng), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// Degraded operation: backoff pending during the outage, reset on the
// first successful re-announce.
// ---------------------------------------------------------------------

TEST(SwarmFaults, OutageBackoffAndResetOnSuccess) {
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 2;
  cfg.num_pieces = 32;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.3;
  // Rounds 2..3 (mod 8) are outages; construction (round 0) is clean.
  cfg.faults.outage_period = 8;
  cfg.faults.outage_duration = 2;
  cfg.faults.outage_phase = 6;
  cfg.faults.backoff_base = 1;
  cfg.faults.backoff_cap = 4;
  graph::Rng rng(11);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  swarm.run(2);  // now at round 2: tracker down

  const core::PeerId p = swarm.join(500.0);
  EXPECT_EQ(swarm.degree(p), 0u) << "join during an outage must start neighborless";
  EXPECT_EQ(swarm.fault_state().degraded_count(), 1u);
  EXPECT_GE(swarm.fault_state().failed_announces_, 1u);

  // Round 3 retry hits the outage again (backoff doubles); the tracker
  // is back at round 4 and the next due retry lands the re-announce.
  swarm.run(6);  // rounds 2..7, all post-outage retries resolved
  EXPECT_EQ(swarm.fault_state().degraded_count(), 0u)
      << "successful re-announce must clear the backoff schedule";
  EXPECT_GT(swarm.degree(p), 0u) << "recovered peer re-announced and connected";
  EXPECT_GE(swarm.fault_state().announce_retries_, 1u);
}

TEST(SwarmFaults, FullNatPopulationAcceptsNoInboundConnects) {
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 1;
  cfg.num_pieces = 16;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 6.0;
  cfg.initial_completion = 0.4;
  cfg.faults.nat_fraction = 1.0;
  cfg.faults.connect_failure_prob = 0.0;  // isolate the NAT effect
  graph::Rng rng(21);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  swarm.run(3);
  const core::PeerId p = swarm.join(400.0);
  EXPECT_EQ(swarm.degree(p), 0u) << "every candidate rejects inbound";
  EXPECT_GT(swarm.fault_state().nat_rejections_, 0u);
  EXPECT_EQ(swarm.reannounce(p), 0u);
}

TEST(SwarmFaults, TotalLaneLossMovesNoBytes) {
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.0;  // leechers start empty; only lanes move bytes
  cfg.faults.lane_loss_prob = 1.0;
  graph::Rng rng(31);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  swarm.run(10);
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (!swarm.is_leecher(p)) continue;
    EXPECT_EQ(swarm.stats(p).downloaded_kb, 0.0) << "peer " << p;
    EXPECT_EQ(swarm.stats(p).pieces, 0u) << "peer " << p;
  }
  EXPECT_GT(swarm.fault_state().lost_lanes_, 0u);
  EXPECT_EQ(swarm.fault_state().lost_lanes_, swarm.phase_profile().transfer_lanes)
      << "with loss probability 1 every planned lane is lost";
}

// ---------------------------------------------------------------------
// The fault storm used by the determinism differentials: outages,
// flaky connects, NAT-ed peers and lane loss all active at once, on
// top of explicit churn (joins, leaves, re-announces).
// ---------------------------------------------------------------------

SwarmConfig storm_config(std::size_t threads) {
  SwarmConfig cfg;
  cfg.num_peers = 200;
  cfg.seeds = 2;
  cfg.num_pieces = 128;
  cfg.piece_kb = 128.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.5;
  cfg.threads = threads;
  cfg.faults.outage_period = 7;
  cfg.faults.outage_duration = 3;
  cfg.faults.outage_phase = 2;
  cfg.faults.connect_failure_prob = 0.2;
  cfg.faults.connect_attempts = 2;
  cfg.faults.nat_fraction = 0.25;
  cfg.faults.lane_loss_prob = 0.05;
  cfg.faults.backoff_base = 1;
  cfg.faults.backoff_cap = 8;
  return cfg;
}

/// Deterministic churn script both planes (and every thread count)
/// replay identically.
template <typename SwarmT>
void storm_round(SwarmT& swarm, std::size_t r) {
  if (r % 3 == 1) swarm.join(100.0 + 50.0 * static_cast<double>(r % 5));
  if (r % 5 == 4) {
    const auto live = swarm.live_ids();
    if (live.size() > 20) swarm.leave(live[live.size() / 2]);
  }
  if (r % 4 == 2) {
    const auto live = swarm.live_ids();
    if (!live.empty()) swarm.reannounce(live[live.size() / 3]);
  }
  swarm.run_round();
}

struct StormDigest {
  std::vector<PeerStats> stats;
  StratificationReport strat;
  std::size_t live = 0;
  std::uint64_t failed_announces = 0;
  std::uint64_t announce_retries = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t nat_rejections = 0;
  std::uint64_t lost_lanes = 0;
  std::size_t degraded = 0;
};

template <typename SwarmT>
StormDigest run_storm(SwarmT& swarm, std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) storm_round(swarm, r);
  StormDigest d;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) d.stats.push_back(swarm.stats(p));
  d.strat = swarm.stratification();
  d.live = swarm.live_peer_count();
  const FaultState& fs = swarm.fault_state();
  d.failed_announces = fs.failed_announces_;
  d.announce_retries = fs.announce_retries_;
  d.connect_failures = fs.connect_failures_;
  d.nat_rejections = fs.nat_rejections_;
  d.lost_lanes = fs.lost_lanes_;
  d.degraded = fs.degraded_count();
  return d;
}

void expect_storm_equal(const StormDigest& a, const StormDigest& b, const char* what) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (std::size_t p = 0; p < a.stats.size(); ++p) {
    ASSERT_EQ(a.stats[p].uploaded_kb, b.stats[p].uploaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].downloaded_kb, b.stats[p].downloaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].pieces, b.stats[p].pieces) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].completion_round, b.stats[p].completion_round)
        << what << " peer " << p;
    ASSERT_EQ(a.stats[p].leave_round, b.stats[p].leave_round) << what << " peer " << p;
  }
  EXPECT_EQ(a.strat.partner_rank_correlation, b.strat.partner_rank_correlation) << what;
  EXPECT_EQ(a.strat.mean_normalized_offset, b.strat.mean_normalized_offset) << what;
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs) << what;
  EXPECT_EQ(a.live, b.live) << what;
  EXPECT_EQ(a.failed_announces, b.failed_announces) << what;
  EXPECT_EQ(a.announce_retries, b.announce_retries) << what;
  EXPECT_EQ(a.connect_failures, b.connect_failures) << what;
  EXPECT_EQ(a.nat_rejections, b.nat_rejections) << what;
  EXPECT_EQ(a.lost_lanes, b.lost_lanes) << what;
  EXPECT_EQ(a.degraded, b.degraded) << what;
}

TEST(SwarmFaults, StormBitwiseInvariantToThreads) {
  graph::Rng ref_rng(4242);
  ReferenceSwarm oracle(storm_config(1), capacities(200), ref_rng);
  const StormDigest want = run_storm(oracle, 30);
  // The storm must actually exercise every fault path, or the
  // differential proves nothing.
  EXPECT_GT(want.failed_announces, 0u);
  EXPECT_GT(want.connect_failures, 0u);
  EXPECT_GT(want.nat_rejections, 0u);
  EXPECT_GT(want.lost_lanes, 0u);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    graph::Rng rng(4242);
    Swarm swarm(storm_config(threads), capacities(200), rng);
    const StormDigest got = run_storm(swarm, 30);
    expect_storm_equal(want, got,
                       threads == 1   ? "threads=1 vs oracle"
                       : threads == 2 ? "threads=2 vs oracle"
                       : threads == 8 ? "threads=8 vs oracle"
                                      : "threads=auto vs oracle");
  }
}

// ---------------------------------------------------------------------
// Mid-outage checkpointing: a save taken while peers are waiting out
// backoff must carry the deadlines, and the resumed run continues
// bitwise (the uninterrupted flat run is the yardstick).
// ---------------------------------------------------------------------

TEST(SwarmFaults, MidOutageSnapshotResumesBitwise) {
  const SwarmConfig cfg = storm_config(2);
  // Rounds with (r+2)%7 < 3 are outages: {5,6,7, 12,13,14, ...}. The
  // storm's join at round 13 fails its announce and schedules a retry
  // for round 14, so a checkpoint at round 14 is both mid-outage and
  // carries a live backoff deadline.
  const std::size_t save_round = 14;
  const std::size_t total_rounds = 30;

  graph::Rng full_rng(4242);
  Swarm full(cfg, capacities(200), full_rng);
  std::string snapshot;
  for (std::size_t r = 0; r < total_rounds; ++r) {
    if (r == save_round) {
      EXPECT_TRUE(cfg.faults.tracker_down(full.rounds_elapsed()))
          << "checkpoint round must fall inside an outage window";
      EXPECT_GT(full.fault_state().degraded_count(), 0u)
          << "someone must be waiting out backoff at the checkpoint";
      snapshot = save_to_string(full);
    }
    storm_round(full, r);
  }
  ASSERT_FALSE(snapshot.empty());
  const StormDigest want = run_storm(full, 0);  // digest only, no extra rounds

  ResumedSwarm resumed = resume_from_string(snapshot);
  // Backoff deadlines survive the round-trip verbatim.
  {
    graph::Rng probe_rng(4242);
    Swarm probe(cfg, capacities(200), probe_rng);
    for (std::size_t r = 0; r < save_round; ++r) storm_round(probe, r);
    const FaultState& a = probe.fault_state();
    const FaultState& b = resumed.swarm().fault_state();
    ASSERT_EQ(a.retry_round_, b.retry_round_);
    ASSERT_EQ(a.retry_count_, b.retry_count_);
    ASSERT_EQ(a.announce_seq_, b.announce_seq_);
    ASSERT_EQ(a.nat_, b.nat_);
    EXPECT_EQ(a.failed_announces_, b.failed_announces_);
    EXPECT_GT(b.degraded_count(), 0u);
  }
  for (std::size_t r = save_round; r < total_rounds; ++r) storm_round(resumed.swarm(), r);
  const StormDigest got = run_storm(resumed.swarm(), 0);
  expect_storm_equal(want, got, "mid-outage resume vs uninterrupted");
}

// ---------------------------------------------------------------------
// TrackerSim: faulted member swarms stay bitwise invariant to the
// shard count (save() byte equality, the established tracker yardstick).
// ---------------------------------------------------------------------

TrackerConfig storm_tracker_config(std::size_t shards) {
  TrackerConfig cfg;
  cfg.shards = shards;
  cfg.arrival_rate = 2.0;
  cfg.zipf_exponent = 1.0;
  cfg.multi_torrent_fraction = 0.3;
  cfg.arrival_model = BandwidthModel::saroiu2002();
  cfg.swarm_churn.lifetime = ChurnSpec::Lifetime::kExponential;
  cfg.swarm_churn.lifetime_rounds = 25.0;
  cfg.swarm_churn.arrival_completion = 0.25;
  return cfg;
}

std::vector<TrackerSwarmSeed> storm_tracker_seeds() {
  constexpr std::size_t kSwarms = 6;
  constexpr std::size_t kPeers = 16;
  std::vector<TrackerSwarmSeed> seeds(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    SwarmConfig scfg;
    scfg.num_peers = kPeers;
    scfg.seeds = 1;
    scfg.num_pieces = 64;
    scfg.piece_kb = 64.0;
    scfg.neighbor_degree = 6.0;
    scfg.initial_completion = 0.5;
    scfg.stay_as_seed = false;
    scfg.faults.outage_period = 6;
    scfg.faults.outage_duration = 2;
    scfg.faults.outage_phase = k;  // stagger outages across swarms
    scfg.faults.connect_failure_prob = 0.15;
    scfg.faults.connect_attempts = 2;
    scfg.faults.nat_fraction = 0.2;
    scfg.faults.lane_loss_prob = 0.05;
    seeds[k].config = scfg;
    seeds[k].members.resize(kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      seeds[k].members[i] = static_cast<GlobalPeerId>(k * kPeers + i);
    }
  }
  return seeds;
}

TEST(TrackerFaults, FaultedEcosystemBitwiseInvariantToShards) {
  std::string want_bytes;
  std::uint64_t want_lost = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    TrackerSim tracker(storm_tracker_config(shards), storm_tracker_seeds(),
                       capacities(6 * 16), 777);
    tracker.run(14);
    const EcosystemReport report = tracker.ecosystem_report();
    std::ostringstream out(std::ios::binary);
    tracker.save(out);
    if (shards == 1) {
      want_bytes = std::move(out).str();
      want_lost = report.fault_lost_lanes;
      EXPECT_GT(report.fault_failed_announces, 0u);
      EXPECT_GT(report.fault_nat_rejections, 0u);
      EXPECT_GT(report.fault_lost_lanes, 0u);
    } else {
      EXPECT_EQ(std::move(out).str(), want_bytes) << "shards=" << shards;
      EXPECT_EQ(report.fault_lost_lanes, want_lost) << "shards=" << shards;
    }
  }
}

TEST(TrackerFaults, FaultedEcosystemSnapshotRoundTrips) {
  TrackerSim tracker(storm_tracker_config(2), storm_tracker_seeds(), capacities(6 * 16), 777);
  tracker.run(8);  // swarm k is mid-outage for several k (staggered phases)
  std::ostringstream out(std::ios::binary);
  tracker.save(out);
  tracker.run(6);
  std::ostringstream want(std::ios::binary);
  tracker.save(want);

  std::istringstream in(std::move(out).str(), std::ios::binary);
  TrackerSim resumed = TrackerSim::resume(in, storm_tracker_config(8));
  resumed.run(6);
  std::ostringstream got(std::ios::binary);
  resumed.save(got);
  EXPECT_EQ(std::move(got).str(), std::move(want).str());
}

// ---------------------------------------------------------------------
// Zero-cost-when-off: stats digests pinned against the pre-fault tree.
// ---------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001B3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

void digest_stats(Fnv& f, const PeerStats& s) {
  f.f64(s.upload_kbps);
  f.f64(s.uploaded_kb);
  f.f64(s.downloaded_kb);
  f.u64(s.pieces);
  f.f64(s.completion_round);
  f.u64(s.seed ? 1 : 0);
  f.f64(s.join_round);
  f.f64(s.leave_round);
}

TEST(FaultsOffGolden, ChurnedSwarmMatchesPreFaultTree) {
  // Scenario and digest captured from the commit before the fault
  // subsystem landed. A default FaultSpec must leave every byte of the
  // run's output untouched — no draws, no behavior change.
  SwarmConfig cfg;
  cfg.num_peers = 300;
  cfg.seeds = 2;
  cfg.num_pieces = 256;
  cfg.piece_kb = 256.0;
  cfg.neighbor_degree = 12.0;
  cfg.initial_completion = 0.5;
  const auto caps = capacities(300);
  graph::Rng rng(12345);
  Swarm swarm(cfg, caps, rng);
  ChurnSpec spec;
  spec.replacement_rate = 3.0;
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 5;
  ChurnDriver<Swarm> churn(spec, cfg, caps, rng);
  churn.attach(swarm);
  for (int r = 0; r < 25; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  Fnv f;
  f.u64(swarm.peer_count());
  f.u64(swarm.live_peer_count());
  f.u64(swarm.arrivals());
  f.u64(swarm.departures());
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) digest_stats(f, swarm.stats(p));
  const StratificationReport report = swarm.stratification();
  f.f64(report.partner_rank_correlation);
  f.f64(report.mean_normalized_offset);
  f.u64(report.reciprocated_pairs);
  EXPECT_EQ(f.h, 0x62edd9b68d408508ULL)
      << "faults-off churned run diverged from the pre-fault golden digest";
  std::uint64_t corr_bits = 0;
  const double want_corr = 0.080379019231747548;
  std::uint64_t want_bits = 0;
  std::memcpy(&want_bits, &want_corr, sizeof want_bits);
  std::memcpy(&corr_bits, &report.partner_rank_correlation, sizeof corr_bits);
  EXPECT_EQ(corr_bits, want_bits);
  // And the fault machinery must report all-zeros.
  EXPECT_EQ(swarm.fault_state().failed_announces_, 0u);
  EXPECT_EQ(swarm.fault_state().lost_lanes_, 0u);
  EXPECT_EQ(swarm.fault_state().degraded_count(), 0u);
}

TEST(FaultsOffGolden, TrackerEcosystemMatchesPreFaultTree) {
  TrackerConfig tcfg;
  tcfg.shards = 1;
  tcfg.arrival_rate = 2.0;
  tcfg.zipf_exponent = 1.0;
  tcfg.multi_torrent_fraction = 0.3;
  tcfg.arrival_model = BandwidthModel::saroiu2002();
  tcfg.swarm_churn.lifetime = ChurnSpec::Lifetime::kExponential;
  tcfg.swarm_churn.lifetime_rounds = 25.0;
  tcfg.swarm_churn.arrival_completion = 0.25;
  constexpr std::size_t kSwarms = 8;
  constexpr std::size_t kPeers = 16;
  std::vector<TrackerSwarmSeed> seeds(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    SwarmConfig scfg;
    scfg.num_peers = kPeers;
    scfg.seeds = 1;
    scfg.num_pieces = 64;
    scfg.piece_kb = 64.0;
    scfg.neighbor_degree = 6.0;
    scfg.initial_completion = 0.5;
    scfg.stay_as_seed = false;
    seeds[k].config = scfg;
    seeds[k].members.resize(kPeers);
    for (std::size_t i = 0; i < kPeers; ++i) {
      seeds[k].members[i] = static_cast<GlobalPeerId>(k * kPeers + i);
    }
  }
  TrackerSim tracker(tcfg, seeds, capacities(kSwarms * kPeers), 777);
  tracker.run(12);
  const EcosystemReport report = tracker.ecosystem_report();
  Fnv f;
  f.u64(report.per_swarm.size());
  for (const auto& s : report.per_swarm) {
    f.u64(s.live_peers);
    f.u64(s.arrivals);
    f.u64(s.departures);
    f.u64(s.completed_leechers);
    f.f64(s.partner_rank_correlation);
    f.u64(s.reciprocated_pairs);
  }
  f.f64(report.mean_partner_rank_correlation);
  f.u64(report.live_registry_peers);
  f.u64(report.live_memberships);
  for (double v : report.decile_leech_kbps) f.f64(v);
  for (double v : report.completion_round_deciles) f.f64(v);
  f.u64(report.completed_leechers);
  EXPECT_EQ(f.h, 0xd860223c8fdb695cULL)
      << "faults-off ecosystem run diverged from the pre-fault golden digest";
  EXPECT_EQ(report.fault_failed_announces, 0u);
  EXPECT_EQ(report.fault_lost_lanes, 0u);
  EXPECT_EQ(report.degraded_peers, 0u);
}

}  // namespace
}  // namespace strat::bt
