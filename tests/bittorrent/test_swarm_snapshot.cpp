// Resume-equivalence differential tier for the checkpoint/restore
// subsystem: Swarm::save() at round k, resume(), and the continued run
// must be bitwise identical to the uninterrupted one — every PeerStats
// field, the stratification report, and every *subsequent* structural
// RNG draw — at any SwarmConfig::threads value, static and churned,
// and still bitwise equal to the map-based ReferenceSwarm oracle that
// never checkpoints at all. Re-saving a resumed swarm must reproduce
// the original byte stream (serialization is a pure function of run
// state). The robustness half feeds the loader hostile streams — bad
// magic, wrong version, every truncation point, single-byte
// corruption, corrupt list counts, stored flags other than 0 and 1, and
// config values the constructors refuse — and requires a clean
// SnapshotError every time (the ASan/UBSan CI job runs this binary to
// certify no UB on any path); a stream that cannot seek is refused.
// Format pins hold the saved bytes of a swarm with every section
// non-empty and of its churn section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/peer_table.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace strat::bt {
namespace {

constexpr std::uint64_t kSeed = 90;
constexpr std::size_t kRounds = 40;
constexpr std::size_t kPostDraws = 16;  // structural draws compared after the run

std::vector<double> capacities(std::size_t n) {
  return BandwidthModel::saroiu2002().representative_sample(n);
}

SwarmConfig base_config(std::size_t peers) {
  SwarmConfig cfg;
  cfg.num_peers = peers;
  cfg.seeds = 2;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.5;
  cfg.endgame = true;        // partial/in-flight/reservation state in the stream
  cfg.stay_as_seed = false;  // completion departures: tombstones + retired records
  return cfg;
}

ChurnSpec churny_spec() {
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 2.0;
  spec.arrival_completion = 0.4;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 25.0;
  spec.replacement_rate = 2.0;
  spec.reannounce_interval = 5;
  return spec;
}

/// Everything a run exposes, plus the structural draws that follow it.
struct EndState {
  std::vector<PeerStats> stats;
  StratificationReport strat;
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  std::vector<std::uint64_t> post_draws;
};

template <typename SwarmT>
EndState end_state_of(const SwarmT& swarm, graph::Rng& rng) {
  EndState end;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) end.stats.push_back(swarm.stats(p));
  end.strat = swarm.stratification();
  end.arrivals = swarm.arrivals();
  end.departures = swarm.departures();
  end.live = swarm.live_peer_count();
  end.completed = swarm.completed_leechers();
  for (std::size_t i = 0; i < kPostDraws; ++i) end.post_draws.push_back(rng());
  return end;
}

void expect_bitwise_equal(const EndState& a, const EndState& b, const char* what) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (std::size_t p = 0; p < a.stats.size(); ++p) {
    ASSERT_EQ(a.stats[p].upload_kbps, b.stats[p].upload_kbps) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].uploaded_kb, b.stats[p].uploaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].downloaded_kb, b.stats[p].downloaded_kb) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].pieces, b.stats[p].pieces) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].completion_round, b.stats[p].completion_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].join_round, b.stats[p].join_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].leave_round, b.stats[p].leave_round) << what << " peer " << p;
    ASSERT_EQ(a.stats[p].seed, b.stats[p].seed) << what << " peer " << p;
  }
  EXPECT_EQ(a.strat.reciprocated_pairs, b.strat.reciprocated_pairs) << what;
  EXPECT_EQ(a.strat.mean_normalized_offset, b.strat.mean_normalized_offset) << what;
  EXPECT_EQ(a.strat.partner_rank_correlation, b.strat.partner_rank_correlation) << what;
  EXPECT_EQ(a.arrivals, b.arrivals) << what;
  EXPECT_EQ(a.departures, b.departures) << what;
  EXPECT_EQ(a.live, b.live) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.post_draws.size(), b.post_draws.size()) << what;
  for (std::size_t i = 0; i < a.post_draws.size(); ++i) {
    ASSERT_EQ(a.post_draws[i], b.post_draws[i]) << what << " post-run draw " << i;
  }
}

/// One uninterrupted run with a checkpoint taken mid-flight: the swarm
/// (and, when churned, the driver) serialized after `save_round`
/// rounds, then driven to `rounds` without interruption.
struct UninterruptedRun {
  std::string swarm_snapshot;
  std::string churn_snapshot;  // empty when not churned
  EndState end;
};

UninterruptedRun run_with_checkpoint(const SwarmConfig& cfg, std::size_t peers, bool churned,
                                     std::size_t save_round, std::size_t rounds = kRounds,
                                     std::uint64_t seed = kSeed) {
  graph::Rng rng(seed);
  Swarm swarm(cfg, capacities(peers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) churn.attach(swarm);
  UninterruptedRun run;
  auto checkpoint = [&] {
    run.swarm_snapshot = save_to_string(swarm);
    if (churned) {
      run.churn_snapshot.clear();
      save_churn_driver(run.churn_snapshot, churn);
    }
  };
  if (save_round == 0) checkpoint();
  for (std::size_t r = 0; r < rounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
    if (r + 1 == save_round) checkpoint();
  }
  run.end = end_state_of(swarm, rng);
  return run;
}

/// Resumes `run`'s checkpoint and drives it to `rounds` under the same
/// schedule, returning the continued end state. The swarm and churn
/// sections are read back to back through one Reader.
EndState continue_from(const UninterruptedRun& run, const SwarmConfig& cfg, std::size_t peers,
                       bool churned, std::size_t rounds = kRounds,
                       const SwarmConfig* override_cfg = nullptr) {
  graph::Rng rng;  // state comes entirely from the snapshot
  const std::string bytes = run.swarm_snapshot + run.churn_snapshot;
  snapshot_detail::Reader in(bytes);
  Swarm swarm = Swarm::resume(in, rng, override_cfg);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) {
    restore_churn_driver(in, churn);  // NOT attach(): deadlines come from the stream
  }
  for (std::size_t r = swarm.rounds_elapsed(); r < rounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
  }
  return end_state_of(swarm, rng);
}

/// The oracle never checkpoints: a straight ReferenceSwarm run.
EndState run_reference(const SwarmConfig& cfg, std::size_t peers, bool churned) {
  graph::Rng rng(kSeed);
  ReferenceSwarm swarm(cfg, capacities(peers), rng);
  ChurnDriver<ReferenceSwarm> churn(churny_spec(), cfg, capacities(peers), rng);
  if (churned) churn.attach(swarm);
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (churned) churn.before_round(swarm);
    swarm.run_round();
  }
  return end_state_of(swarm, rng);
}

// --- resume equivalence ---------------------------------------------------

TEST(SwarmSnapshot, StaticRunResumesBitwiseIdentically) {
  constexpr std::size_t kPeers = 200;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/false, 15);
  const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/false);
  expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (static)");
  expect_bitwise_equal(run.end, run_reference(cfg, kPeers, /*churned=*/false),
                       "reference vs uninterrupted (static)");
}

TEST(SwarmSnapshot, ChurnedRunResumesBitwiseIdentically) {
  constexpr std::size_t kPeers = 200;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
  expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (churned)");
  expect_bitwise_equal(run.end, run_reference(cfg, kPeers, /*churned=*/true),
                       "reference vs uninterrupted (churned)");
}

TEST(SwarmSnapshot, ResumeIsThreadCountInvariant) {
  // A snapshot taken from a serial run resumes bitwise-identically
  // under any fan-out (the config override admits exactly `threads`).
  constexpr std::size_t kPeers = 300;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    SwarmConfig threaded = cfg;
    threaded.threads = threads;
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true, kRounds, &threaded);
    expect_bitwise_equal(run.end, resumed, "threaded resume vs serial uninterrupted");
  }
}

TEST(SwarmSnapshot, EveryCheckpointRoundIsEquivalent) {
  // Round 0 (nothing elapsed), mid-run, and the final round (nothing
  // left to simulate) are all valid checkpoints.
  constexpr std::size_t kPeers = 120;
  const SwarmConfig cfg = base_config(kPeers);
  for (const std::size_t save_round : {std::size_t{0}, std::size_t{7}, std::size_t{23}, kRounds}) {
    const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, save_round);
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
    expect_bitwise_equal(run.end, resumed, "resumed vs uninterrupted (varying save round)");
  }
}

TEST(SwarmSnapshot, ResaveReproducesByteIdenticalStream) {
  // Serialization is a pure function of run state: save -> resume ->
  // save must reproduce the original bytes exactly.
  constexpr std::size_t kPeers = 150;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 18);
  ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
  EXPECT_EQ(save_to_string(resumed.swarm()), run.swarm_snapshot);
}

TEST(SwarmSnapshot, RoundTripFuzzAcrossSeedsAndRounds) {
  // Randomized save points and run seeds: the resumed run must match
  // the uninterrupted one and re-serialize byte-identically each time.
  constexpr std::size_t kPeers = 80;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng meta(0xF0F0);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t seed = meta();
    const auto save_round = static_cast<std::size_t>(meta.below(kRounds + 1));
    const UninterruptedRun run =
        run_with_checkpoint(cfg, kPeers, /*churned=*/true, save_round, kRounds, seed);
    {
      ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
      ASSERT_EQ(save_to_string(resumed.swarm()), run.swarm_snapshot)
          << "seed " << seed << " save round " << save_round;
    }
    const EndState resumed = continue_from(run, cfg, kPeers, /*churned=*/true);
    expect_bitwise_equal(run.end, resumed, "fuzz resumed vs uninterrupted");
  }
}

// --- fork ------------------------------------------------------------------

TEST(SwarmSnapshot, ForkUnderOriginalScheduleMatchesUninterrupted) {
  constexpr std::size_t kPeers = 150;
  const SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, 20);
  std::vector<ResumedSwarm> forks = fork_snapshot(run.swarm_snapshot, 2);
  ASSERT_EQ(forks.size(), 2u);
  // Fork 0 continues the checkpointed schedule: bitwise equal to the
  // uninterrupted run.
  {
    ResumedSwarm& fork = forks[0];
    ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), fork.rng());
    snapshot_detail::Reader churn_in(run.churn_snapshot);
    restore_churn_driver(churn_in, churn);
    for (std::size_t r = fork.swarm().rounds_elapsed(); r < kRounds; ++r) {
      churn.before_round(fork.swarm());
      fork.swarm().run_round();
    }
    expect_bitwise_equal(run.end, end_state_of(fork.swarm(), fork.rng()),
                         "fork 0 vs uninterrupted");
  }
  // Fork 1 explores a divergent future: triple the replacement churn.
  // It must diverge from the original (the what-if has an effect) while
  // both histories share the checkpointed prefix.
  {
    ResumedSwarm& fork = forks[1];
    ChurnSpec divergent = churny_spec();
    divergent.replacement_rate = 6.0;
    ChurnDriver<Swarm> churn(divergent, cfg, capacities(kPeers), fork.rng());
    snapshot_detail::Reader churn_in(run.churn_snapshot);
    restore_churn_driver(churn_in, churn);
    const std::size_t shared_arrivals = fork.swarm().arrivals();
    for (std::size_t r = fork.swarm().rounds_elapsed(); r < kRounds; ++r) {
      churn.before_round(fork.swarm());
      fork.swarm().run_round();
    }
    EXPECT_GE(fork.swarm().arrivals(), shared_arrivals);
    EXPECT_NE(fork.swarm().departures(), run.end.departures)
        << "tripled replacement churn should change the departure count";
  }
}

// --- churn-driver state ----------------------------------------------------

TEST(SwarmSnapshot, ChurnDriverStateRoundTrips) {
  constexpr std::size_t kPeers = 100;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 10; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  std::string bytes;
  save_churn_driver(bytes, churn);

  graph::Rng rng2(kSeed);
  ChurnDriver<Swarm> restored(churny_spec(), cfg, capacities(kPeers), rng2);
  snapshot_detail::Reader in(bytes);
  restore_churn_driver(in, restored);
  EXPECT_EQ(restored.deadline_snapshot(), churn.deadline_snapshot());
  EXPECT_EQ(restored.capacity_cursor(), churn.capacity_cursor());
}

// --- id-index compaction (the 4 B/arrival-ever fix) ------------------------

TEST(SwarmSnapshot, LoadedIdIndexHasZeroCapacitySlack) {
  // The in-process id->row map grows geometrically (capacity slack on
  // top of 4 B per id ever); PeerTable::restore rebuilds it at exactly
  // id_space entries. The loaded index must be the information-
  // theoretic floor — live rows + tombstones, nothing more.
  constexpr std::size_t kPeers = 100;
  SwarmConfig cfg = base_config(kPeers);
  const UninterruptedRun run = run_with_checkpoint(cfg, kPeers, /*churned=*/true, kRounds);
  ResumedSwarm resumed = resume_from_string(run.swarm_snapshot);
  const PeerTable& table = resumed.swarm().peer_table();
  EXPECT_GT(table.id_space(), kPeers + 2) << "churn should have grown the id space";
  EXPECT_EQ(table.id_map_bytes(), table.id_space() * sizeof(PeerTable::Row))
      << "loaded id->row index must carry zero capacity slack";
}

// --- robustness ------------------------------------------------------------

std::string tiny_snapshot() {
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(8), rng);
  swarm.run(3);
  return save_to_string(swarm);
}

TEST(SwarmSnapshot, RejectsBadMagic) {
  std::string bytes = tiny_snapshot();
  bytes[0] ^= 0x5A;
  EXPECT_THROW((void)resume_from_string(bytes), SnapshotError);
}

TEST(SwarmSnapshot, RejectsWrongVersion) {
  std::string bytes = tiny_snapshot();
  bytes[8] = 99;  // the version u32 follows the 8-byte magic
  EXPECT_THROW((void)resume_from_string(bytes), SnapshotError);
}

TEST(SwarmSnapshot, RejectsEveryTruncationPoint) {
  const std::string bytes = tiny_snapshot();
  // Every strictly-shorter prefix must throw — never crash, never
  // yield a swarm. Small snapshot, so all prefixes are affordable.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)resume_from_string(bytes.substr(0, len)), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SwarmSnapshot, RejectsSingleByteCorruption) {
  const std::string bytes = tiny_snapshot();
  // Flip one byte at a time across the whole stream: the checksum (or
  // an earlier structural check) must reject every variant. The loader
  // may throw at any layer, but it must always throw SnapshotError —
  // a corrupt snapshot can never come up as a live swarm.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    EXPECT_THROW((void)resume_from_string(corrupt), SnapshotError) << "byte offset " << at;
  }
}

TEST(SwarmSnapshot, RejectsConfigOverrideMismatch) {
  const std::string bytes = tiny_snapshot();
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  cfg.threads = 4;  // allowed to differ
  EXPECT_NO_THROW((void)resume_from_string(bytes, cfg));
  // Every other field, each changed alone, must be refused.
  using Change = void (*)(SwarmConfig&);
  const std::vector<std::pair<const char*, Change>> changes = {
      {"num_peers", [](SwarmConfig& c) { ++c.num_peers; }},
      {"seeds", [](SwarmConfig& c) { ++c.seeds; }},
      {"num_pieces", [](SwarmConfig& c) { ++c.num_pieces; }},
      {"piece_kb", [](SwarmConfig& c) { c.piece_kb *= 2.0; }},
      {"tft_slots", [](SwarmConfig& c) { ++c.tft_slots; }},
      {"optimistic_rounds", [](SwarmConfig& c) { ++c.optimistic_rounds; }},
      {"round_seconds", [](SwarmConfig& c) { c.round_seconds *= 2.0; }},
      {"neighbor_degree", [](SwarmConfig& c) { c.neighbor_degree += 1.0; }},
      {"post_flashcrowd", [](SwarmConfig& c) { c.post_flashcrowd = !c.post_flashcrowd; }},
      {"initial_completion", [](SwarmConfig& c) { c.initial_completion /= 2.0; }},
      {"stay_as_seed", [](SwarmConfig& c) { c.stay_as_seed = !c.stay_as_seed; }},
      {"seed_upload_kbps", [](SwarmConfig& c) { c.seed_upload_kbps += 100.0; }},
      {"rate_smoothing", [](SwarmConfig& c) { c.rate_smoothing /= 2.0; }},
      {"tft_slots_per_peer", [](SwarmConfig& c) { c.tft_slots_per_peer.assign(c.num_peers, 2); }},
      {"endgame", [](SwarmConfig& c) { c.endgame = !c.endgame; }},
      {"faults.outage_period", [](SwarmConfig& c) { ++c.faults.outage_period; }},
      {"faults.outage_duration", [](SwarmConfig& c) { ++c.faults.outage_duration; }},
      {"faults.outage_phase", [](SwarmConfig& c) { ++c.faults.outage_phase; }},
      {"faults.connect_failure_prob", [](SwarmConfig& c) { c.faults.connect_failure_prob += 0.1; }},
      {"faults.connect_attempts", [](SwarmConfig& c) { ++c.faults.connect_attempts; }},
      {"faults.nat_fraction", [](SwarmConfig& c) { c.faults.nat_fraction += 0.1; }},
      {"faults.lane_loss_prob", [](SwarmConfig& c) { c.faults.lane_loss_prob += 0.1; }},
      {"faults.backoff_base", [](SwarmConfig& c) { ++c.faults.backoff_base; }},
      {"faults.backoff_cap", [](SwarmConfig& c) { ++c.faults.backoff_cap; }},
  };
  ASSERT_EQ(changes.size(), 24u) << "every SwarmConfig field but threads";
  for (const auto& [field, change] : changes) {
    SwarmConfig changed = cfg;
    change(changed);
    EXPECT_THROW((void)resume_from_string(bytes, changed), SnapshotError) << field;
  }
}

TEST(SwarmSnapshot, ConfigWithEveryFieldOffDefaultRoundTrips) {
  SwarmConfig cfg;
  cfg.num_peers = 12;
  cfg.seeds = 3;
  cfg.num_pieces = 24;
  cfg.piece_kb = 48.0;
  cfg.tft_slots = 2;
  cfg.optimistic_rounds = 4;
  cfg.round_seconds = 7.5;
  cfg.neighbor_degree = 5.0;
  cfg.post_flashcrowd = false;
  cfg.initial_completion = 0.3;
  cfg.stay_as_seed = false;
  cfg.seed_upload_kbps = 900.0;
  cfg.rate_smoothing = 0.8;
  cfg.tft_slots_per_peer = {1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4};
  cfg.endgame = true;
  cfg.threads = 2;
  cfg.faults.outage_period = 5;
  cfg.faults.outage_duration = 2;
  cfg.faults.outage_phase = 1;
  cfg.faults.connect_failure_prob = 0.1;
  cfg.faults.connect_attempts = 4;
  cfg.faults.nat_fraction = 0.2;
  cfg.faults.lane_loss_prob = 0.03;
  cfg.faults.backoff_base = 2;
  cfg.faults.backoff_cap = 16;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  swarm.run(6);
  ResumedSwarm resumed = resume_from_string(save_to_string(swarm));
  EXPECT_TRUE(resumed.swarm().config() == cfg);
  EXPECT_FALSE(resumed.swarm().config() == SwarmConfig{});
}

// --- config rules ----------------------------------------------------------
//
// One rule set (detail::validate_config) guards every entry point: each
// bad value must be refused by both data planes' constructors, and by
// the loader when patched into a saved stream — there as a
// SnapshotError naming the rule, raised before the checksum is read.

/// One invalid value for one field, and the rule that must name it.
template <typename T>
struct BadField {
  const char* rule;
  T& (*field)(SwarmConfig&);
  T bad;
};

SwarmConfig rules_base_config() {
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  return cfg;
}

std::string saved_at_round_zero(const SwarmConfig& cfg) {
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  return save_to_string(swarm);
}

/// Offset of `field` in the saved stream, found without a layout: the
/// first byte where the streams of `cfg` and of `cfg` with the field's
/// low bits nudged differ (the config section leads the stream, and
/// fields are little-endian).
template <typename T>
std::size_t field_offset(const SwarmConfig& cfg, T& (*field)(SwarmConfig&), T nudged) {
  SwarmConfig other = cfg;
  field(other) = nudged;
  const std::string a = saved_at_round_zero(cfg);
  const std::string b = saved_at_round_zero(other);
  return static_cast<std::size_t>(std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
}

template <typename T>
void expect_rule_everywhere(const BadField<T>& row, T nudged) {
  const SwarmConfig good = rules_base_config();
  SwarmConfig bad = good;
  row.field(bad) = row.bad;
  const auto expect_names_rule = [&](auto&& construct, const char* where) {
    try {
      construct();
      ADD_FAILURE() << where << " accepted a bad value for rule: " << row.rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.rule), std::string::npos)
          << where << ": " << e.what();
    }
  };
  expect_names_rule([&] {
    graph::Rng rng(kSeed);
    Swarm swarm(bad, capacities(bad.num_peers), rng);
  }, "Swarm");
  expect_names_rule([&] {
    graph::Rng rng(kSeed);
    ReferenceSwarm swarm(bad, capacities(bad.num_peers), rng);
  }, "ReferenceSwarm");

  std::string bytes = saved_at_round_zero(good);
  const std::size_t at = field_offset(good, row.field, nudged);
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &row.bad, sizeof(T));
  try {
    (void)resume_from_string(bytes);
    ADD_FAILURE() << "loader accepted a bad value for rule: " << row.rule;
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(row.rule), std::string::npos) << what;
    EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
  }
}

TEST(SwarmConfigRules, EveryBadValueIsRefusedByBothPlanesAndTheLoader) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Double = double& (*)(SwarmConfig&);
  const Double piece_kb = [](SwarmConfig& c) -> double& { return c.piece_kb; };
  const Double round_seconds = [](SwarmConfig& c) -> double& { return c.round_seconds; };
  const Double degree = [](SwarmConfig& c) -> double& { return c.neighbor_degree; };
  const Double completion = [](SwarmConfig& c) -> double& { return c.initial_completion; };
  const Double seed_kbps = [](SwarmConfig& c) -> double& { return c.seed_upload_kbps; };
  const Double smoothing = [](SwarmConfig& c) -> double& { return c.rate_smoothing; };
  const Double connect = [](SwarmConfig& c) -> double& { return c.faults.connect_failure_prob; };
  const Double nat = [](SwarmConfig& c) -> double& { return c.faults.nat_fraction; };
  const Double loss = [](SwarmConfig& c) -> double& { return c.faults.lane_loss_prob; };
  const std::vector<BadField<double>> doubles = {
      {"pieces must be positive", piece_kb, 0.0},
      {"pieces must be positive", piece_kb, kNaN},
      {"pieces must be positive", piece_kb, kInf},
      {"round_seconds", round_seconds, 0.0},
      {"round_seconds", round_seconds, kNaN},
      {"round_seconds", round_seconds, kInf},
      {"neighbor_degree", degree, -1.0},
      {"neighbor_degree", degree, kNaN},
      {"neighbor_degree", degree, kInf},
      {"initial_completion", completion, 1.0},
      {"initial_completion", completion, -0.1},
      {"initial_completion", completion, kNaN},
      {"seed_upload_kbps", seed_kbps, kNaN},
      {"seed_upload_kbps", seed_kbps, kInf},
      {"rate_smoothing", smoothing, 5.0},
      {"rate_smoothing", smoothing, -0.1},
      {"rate_smoothing", smoothing, kNaN},
      {"fault probabilities", connect, 1.5},
      {"fault probabilities", connect, kNaN},
      {"fault probabilities", nat, -0.1},
      {"fault probabilities", nat, kNaN},
      {"fault probabilities", loss, 2.0},
      {"fault probabilities", loss, kNaN},
  };
  for (const BadField<double>& row : doubles) {
    SCOPED_TRACE(row.rule);
    SwarmConfig probe = rules_base_config();
    expect_rule_everywhere(row, std::nextafter(row.field(probe), kInf));
  }

  using Count = std::size_t& (*)(SwarmConfig&);
  const Count peers = [](SwarmConfig& c) -> std::size_t& { return c.num_peers; };
  const Count pieces = [](SwarmConfig& c) -> std::size_t& { return c.num_pieces; };
  const Count attempts = [](SwarmConfig& c) -> std::size_t& { return c.faults.connect_attempts; };
  const Count base = [](SwarmConfig& c) -> std::size_t& { return c.faults.backoff_base; };
  const Count cap = [](SwarmConfig& c) -> std::size_t& { return c.faults.backoff_cap; };
  const std::vector<BadField<std::size_t>> counts = {
      {"need at least 2 peers", peers, 1},
      {"pieces must be positive", pieces, 0},
      {"connect_attempts", attempts, 0},
      {"backoff", base, 0},
      {"backoff", cap, 0},
  };
  for (const BadField<std::size_t>& row : counts) {
    SCOPED_TRACE(row.rule);
    SwarmConfig probe = rules_base_config();
    expect_rule_everywhere(row, row.field(probe) + 1);
  }
}

// --- stored capacities -------------------------------------------------------
//
// The loader applies the constructor's capacity rule (finite, >= 0) to
// every stored PeerStats::upload_kbps, live rows and retired records
// alike, as it reads them: the checksum is no security boundary, and a
// NaN capacity would reach the rank sort's comparator.

/// Round-zero stream of rules_base_config() where peer `who` holds
/// capacity `kbps`, then departs into a retired record if `retire`.
std::string saved_with_capacity(core::PeerId who, double kbps, bool retire) {
  const SwarmConfig cfg = rules_base_config();
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  swarm.set_upload_capacity(who, kbps);
  if (retire) swarm.leave(who);
  return save_to_string(swarm);
}

TEST(SwarmSnapshot, LoaderRefusesBadStoredCapacities) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr core::PeerId kWho = 3;
  constexpr double kGood = 100.0;
  for (const bool retire : {false, true}) {
    // The capacity's offset, found as in field_offset(): the first byte
    // where a one-ulp change moves the stream.
    const std::string good = saved_with_capacity(kWho, kGood, retire);
    const std::string nudged = saved_with_capacity(kWho, std::nextafter(kGood, kInf), retire);
    ASSERT_EQ(good.size(), nudged.size());
    const auto at = static_cast<std::size_t>(
        std::mismatch(good.begin(), good.end(), nudged.begin()).first - good.begin());
    ASSERT_LE(at + sizeof(double), good.size());
    ASSERT_NO_THROW((void)resume_from_string(good));
    for (const double bad : {kNaN, -1.0, kInf}) {
      SCOPED_TRACE(std::string(retire ? "retired record" : "live row") + " capacity " +
                   std::to_string(bad));
      std::string bytes = good;
      std::memcpy(bytes.data() + at, &bad, sizeof bad);
      try {
        (void)resume_from_string(bytes);
        ADD_FAILURE() << "loader accepted a bad stored capacity";
      } catch (const SnapshotError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("capacity must be finite"), std::string::npos) << what;
        EXPECT_NE(what.find(retire ? "retired peer" : "live peer"), std::string::npos) << what;
        EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
      }
    }
  }
}

// --- corrupt list counts ---------------------------------------------------
//
// A count-prefixed list must be rejected from its count alone, before
// anything is sized: byte 3 of the count set to 0xFF asks for ~4G
// elements, which must end in a SnapshotError naming the list rather
// than an attempted multi-GB allocation.

/// A static swarm with no departures and the seeds in the last rows,
/// so the tail of its stream has a layout known from the outside.
std::string count_probe_snapshot() {
  SwarmConfig cfg = base_config(8);
  cfg.neighbor_degree = 4.0;
  cfg.num_pieces = 16;
  cfg.stay_as_seed = true;  // no departures: empty retired sections
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(8), rng);
  swarm.run(3);
  EXPECT_EQ(swarm.departures(), 0u);
  return save_to_string(swarm);
}

std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

std::uint32_t u32_at(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

/// Offset of the availability section tag, counted back from the
/// checksum footer over the fault section (four row-sized arrays and
/// five counters) and the per-piece availability words.
std::size_t avail_tag_offset(const std::string& bytes, std::size_t rows, std::size_t pieces) {
  const std::size_t faults = 4 + (8 + rows) + 3 * (8 + 4 * rows) + 5 * 8;
  return bytes.size() - 8 - faults - (4 + 8 + 4 * pieces);
}

/// Sets byte 3 of the count at `at` to 0xFF and requires a
/// SnapshotError whose message names `list`.
void expect_corrupt_count_rejected(std::string bytes, std::size_t at, const char* list) {
  bytes[at + 3] = static_cast<char>(0xFF);
  try {
    (void)resume_from_string(bytes);
    ADD_FAILURE() << "corrupt " << list << " count was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(list), std::string::npos) << e.what();
  }
}

TEST(SwarmSnapshot, RejectsCorruptRetiredPairCount) {
  const std::string bytes = count_probe_snapshot();
  const std::size_t avail = avail_tag_offset(bytes, 10, 16);
  ASSERT_EQ(u32_at(bytes, avail), 8u) << "availability tag";
  ASSERT_EQ(u32_at(bytes, avail - 20), 7u) << "retired tag";
  const std::size_t count_at = avail - 8;  // no retired ids, no pairs
  ASSERT_EQ(u64_at(bytes, count_at), 0u);
  expect_corrupt_count_rejected(bytes, count_at, "retired pair");
}

TEST(SwarmSnapshot, RejectsCorruptPartialCount) {
  const std::string bytes = count_probe_snapshot();
  const std::size_t retired = avail_tag_offset(bytes, 10, 16) - 20;
  ASSERT_EQ(u32_at(bytes, retired), 7u) << "retired tag";
  // The last row is a seed, which holds every piece: its partial list
  // is the empty one right before the retired section.
  const std::size_t count_at = retired - 8;
  ASSERT_EQ(u64_at(bytes, count_at), 0u);
  expect_corrupt_count_rejected(bytes, count_at, "partial");
}

TEST(SwarmSnapshot, RejectsCorruptChurnDeadlineCount) {
  constexpr std::size_t kPeers = 40;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  std::string bytes;
  save_churn_driver(bytes, churn);
  ASSERT_GT(u64_at(bytes, 12), 0u) << "deadline count follows magic and version";
  bytes[15] = static_cast<char>(0xFF);
  ChurnDriver<Swarm> restored(churny_spec(), cfg, capacities(kPeers), rng);
  snapshot_detail::Reader in(bytes);
  EXPECT_THROW(restore_churn_driver(in, restored), SnapshotError);
}

/// Byte offsets into the table and per-row sections, walked forward
/// over the fixed-width fields and length prefixes of a snapshot whose
/// config has no per-peer slot list; every section tag on the way is
/// checked.
struct RowSections {
  std::size_t live_ids = 0;  // row 0's external id (u32 per row)
  std::size_t rows = 0;
  std::size_t stats = 0;    // 57 bytes per row
  std::size_t chokers = 0;  // 28 bytes per row
  std::vector<std::size_t> neighbors;  // per row: its neighbor list's u64 count
  std::size_t partials = 0;            // row 0's partial-piece list
};

RowSections row_sections(const std::string& bytes, std::size_t pieces) {
  RowSections out;
  std::size_t at = 12;  // magic, version
  const auto word = [&](std::size_t width) -> std::uint64_t {
    if (at + width > bytes.size()) {
      ADD_FAILURE() << "the walk ran past the stream at " << at;
      return 0;
    }
    return width == 4 ? u32_at(bytes, at) : u64_at(bytes, at);
  };
  const auto section = [&](std::uint32_t tag, std::size_t body) {
    EXPECT_EQ(word(4), tag) << "section tag at " << at;
    at += 4 + body;
  };
  const auto pod = [&](std::size_t width) { at += 8 + width * word(8); };
  section(1, 22 * 8 + 4);      // config: 22 eight-byte fields, 4 flags
  section(2, 8 + 4 * 8 + 9);   // choke key, xoshiro words, Box-Muller cache
  section(3, 8);               // id space
  out.rows = word(8);
  out.live_ids = at + 8;
  pod(4);                      // live ids
  pod(4);                      // row generations
  section(4, 5 * 8);           // counters
  section(5, 8);               // slot-pool size
  for (const std::size_t width : {4u, 4u, 4u, 4u, 8u, 8u, 4u, 4u}) pod(width);
  section(6, 8);               // row count
  out.stats = at;
  at += out.rows * (7 * 8 + 1);  // stats
  at += out.rows * ((pieces + 63) / 64) * 8;  // bitfields
  out.chokers = at;
  at += out.rows * (3 * 8 + 4);  // choker state
  for (std::size_t r = 0; r < out.rows; ++r) pod(4);  // unchoke sets
  for (std::size_t r = 0; r < out.rows; ++r) {
    out.neighbors.push_back(at);
    at += 8 + 8 * word(8);  // neighbours + slots
  }
  out.partials = at;
  return out;
}

/// Offset of row 0's partial-piece list (see row_sections).
std::size_t partial_lists_offset(const std::string& bytes, std::size_t pieces,
                                 std::size_t& rows) {
  const RowSections sections = row_sections(bytes, pieces);
  rows = sections.rows;
  return sections.partials;
}

TEST(SwarmSnapshot, RejectsAPieceListedTwiceInOneRowsPartials) {
  // The simulator keeps one partial entry per (row, piece): send_to and
  // the commit find an entry before they add one, and the commit erases
  // only the first. A snapshot with a repeated piece must die at load,
  // as the list is read, not one round later at the next save.
  SwarmConfig cfg = base_config(60);
  cfg.piece_kb = 4096.0;  // pieces span rounds: several partials per row
  cfg.stay_as_seed = true;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(60), rng);
  swarm.run(3);
  std::string bytes = save_to_string(swarm);
  std::size_t rows = 0;
  std::size_t at = partial_lists_offset(bytes, cfg.num_pieces, rows);
  std::size_t patched = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    ASSERT_LE(at + 8, bytes.size()) << "partial list " << r;
    const std::uint64_t entries = u64_at(bytes, at);
    if (patched == 0 && entries >= 2) {
      // Entry 1's piece becomes entry 0's (entries are u32 piece + f64 KB).
      std::memcpy(bytes.data() + at + 8 + 12, bytes.data() + at + 8, 4);
      patched = at;
    }
    at += 8 + 12 * entries;
  }
  ASSERT_LE(at + 4, bytes.size());
  ASSERT_EQ(u32_at(bytes, at), 7u) << "the walk must end on the retired tag";
  ASSERT_NE(patched, 0u) << "no row holds two partial pieces";
  try {
    (void)resume_from_string(bytes);
    ADD_FAILURE() << "a piece listed twice in one row was accepted";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("listed twice"), std::string::npos) << what;
    EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
  }
}

/// A pipe-like stream buffer: reads work, tellg()/seekg() fail (the
/// std::streambuf defaults), so the remaining bytes cannot be measured.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(SwarmSnapshot, NonSeekableStreamIsRefused) {
  // A count check needs the bytes left, which a pipe cannot tell: the
  // Reader, and so TrackerSim::resume, refuses it before any read.
  {
    PipeBuf buf(count_probe_snapshot());
    std::istream in(&buf);
    try {
      snapshot_detail::Reader r(in);
      ADD_FAILURE() << "a non-seekable stream was accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("not seekable"), std::string::npos) << e.what();
    }
  }
  {
    constexpr std::size_t kPeers = 20;
    TrackerSwarmSeed seed;
    seed.config = base_config(kPeers);
    for (GlobalPeerId g = 0; g < kPeers; ++g) seed.members.push_back(g);
    const TrackerSim tracker(TrackerConfig{}, {seed}, capacities(kPeers), kSeed);
    std::ostringstream out(std::ios::binary);
    tracker.save(out);
    PipeBuf buf(std::move(out).str());
    std::istream in(&buf);
    EXPECT_THROW((void)TrackerSim::resume(in, TrackerConfig{}), SnapshotError);
  }
}

// --- format pins -----------------------------------------------------------
//
// FNV-1a digests of save() bytes, captured from the tree before the
// serializers moved to one field list per record: the version-2 wire
// format must stay byte-identical. The swarm is churned, in endgame
// mode, faulted and saved mid-outage, so every section is non-empty
// (partial pieces, retired records and pairs, pending retry deadlines).

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct PinnedRun {
  std::string swarm;
  std::string churn;
};

PinnedRun pinned_mid_outage_run() {
  constexpr std::size_t kPeers = 60;
  SwarmConfig cfg = base_config(kPeers);
  cfg.piece_kb = 128.0;  // pieces span rounds: partial progress in the stream
  cfg.faults.outage_period = 7;
  cfg.faults.outage_duration = 3;
  cfg.faults.outage_phase = 2;
  cfg.faults.connect_failure_prob = 0.2;
  cfg.faults.connect_attempts = 2;
  cfg.faults.nat_fraction = 0.25;
  cfg.faults.lane_loss_prob = 0.05;
  cfg.faults.backoff_cap = 8;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  // Rounds with (r + 2) % 7 < 3 are outages; rounds 12 and 13 fail
  // their announces, so the save at 14 carries live backoff deadlines.
  for (std::size_t r = 0; r < 14; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  EXPECT_TRUE(cfg.faults.tracker_down(swarm.rounds_elapsed())) << "save inside an outage";
  EXPECT_GT(swarm.fault_state().degraded_count(), 0u) << "retry deadlines pending";
  EXPECT_GT(swarm.departures(), 0u) << "retired records present";
  PinnedRun run;
  run.swarm = save_to_string(swarm);
  save_churn_driver(run.churn, churn);
  return run;
}

TEST(SnapshotFormat, MidOutageSwarmBytesArePinned) {
  const PinnedRun run = pinned_mid_outage_run();
  EXPECT_EQ(run.swarm.size(), 51574u);
  EXPECT_EQ(fnv1a(run.swarm), 0xc6d68ae55c1b7531ULL);
}

TEST(SnapshotFormat, ChurnDriverBytesArePinned) {
  const PinnedRun run = pinned_mid_outage_run();
  EXPECT_EQ(run.churn.size(), 996u);
  EXPECT_EQ(fnv1a(run.churn), 0xf5616858f0da1526ULL);
}

// TrackerSim::save() stages each section in a string and writes it
// whole: a failed stream must throw.
TEST(SnapshotFormat, TrackerSaveThrowsOnAFailedStream) {
  constexpr std::size_t kPeers = 20;
  TrackerSwarmSeed seed;
  seed.config = base_config(kPeers);
  for (GlobalPeerId g = 0; g < kPeers; ++g) seed.members.push_back(g);
  const TrackerSim tracker(TrackerConfig{}, {seed}, capacities(kPeers), kSeed);
  std::ostringstream bad(std::ios::binary);
  bad.setstate(std::ios::badbit);
  EXPECT_THROW(tracker.save(bad), SnapshotError);
}

TEST(SwarmSnapshot, RejectsChurnSectionAsSwarmSnapshot) {
  SwarmConfig cfg = base_config(8);
  graph::Rng rng(kSeed);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(8), rng);
  std::string bytes;
  save_churn_driver(bytes, churn);
  EXPECT_THROW((void)resume_from_string(bytes), SnapshotError);
}

// --- the checksum fold ------------------------------------------------------

/// The fold one 8-byte lane at a time, as the format defines it.
std::uint64_t single_lane_fold(std::uint64_t hash, const unsigned char* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p, 8);
    hash = hash * snapshot_detail::kFoldMul + lane;
  }
  if (n > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, n);
    hash = hash * snapshot_detail::kFoldMul + (lane + n);
  }
  return hash;
}

TEST(SnapshotFormat, FourLaneFoldEqualsTheSingleLaneFold) {
  // Bulk spans fold four lanes per step; every length up to 300 bytes
  // covers each mix of 32-byte blocks, whole lanes and tails, from
  // misaligned starts.
  graph::Rng rng(2007);
  std::vector<unsigned char> buf(300 + 7);
  for (std::size_t n = 0; n <= 300; ++n) {
    for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.below(256));
    const std::uint64_t start = rng();
    const std::size_t offset = n % 8;
    EXPECT_EQ(snapshot_detail::fold_bytes(start, buf.data() + offset, n),
              single_lane_fold(start, buf.data() + offset, n))
        << n << " bytes";
  }
}

// --- one loader, two sources ---------------------------------------------
//
// Swarm::resume() reads through a Reader over the caller's bytes in
// place, or over a seekable std::istringstream through the stream
// read-ahead with a seek-measured bound. The two must agree on every
// outcome — the same SnapshotError message or byte-equal re-saves.

/// A load's outcome: the SnapshotError message, or the re-saved bytes.
struct LoadOutcome {
  bool threw = false;
  std::string text;
};

/// Resumes the first section of `r` and re-saves it.
LoadOutcome outcome_of(snapshot_detail::Reader& r) {
  try {
    graph::Rng rng;
    const Swarm swarm = Swarm::resume(r, rng);
    return {false, save_to_string(swarm)};
  } catch (const SnapshotError& e) {
    return {true, e.what()};
  }
}

void expect_sources_agree(const std::string& bytes, const std::string& where) {
  snapshot_detail::Reader view_reader(bytes);
  const LoadOutcome view = outcome_of(view_reader);
  std::istringstream in(bytes, std::ios::binary);
  snapshot_detail::Reader stream_reader(in);
  const LoadOutcome stream = outcome_of(stream_reader);
  EXPECT_EQ(view.threw, stream.threw) << where;
  EXPECT_EQ(view.text, stream.text) << where;
}

TEST(SnapshotSources, TruncationSweepAgrees) {
  const std::string bytes = tiny_snapshot();
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    expect_sources_agree(bytes.substr(0, len), "prefix length " + std::to_string(len));
  }
}

TEST(SnapshotSources, SingleByteCorruptionSweepAgrees) {
  const std::string bytes = tiny_snapshot();
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    expect_sources_agree(corrupt, "byte offset " + std::to_string(at));
  }
}

TEST(SnapshotSources, PinnedMidOutageSnapshotLoadsAlike) {
  const PinnedRun run = pinned_mid_outage_run();
  expect_sources_agree(run.swarm, "pinned snapshot");
  EXPECT_EQ(save_to_string(resume_from_string(run.swarm).swarm()), run.swarm);
  // A companion section after the swarm: the bound is the whole buffer
  // on both sources, and the churn section is read from the same
  // Reader after the swarm's footer, its checksum restarted.
  expect_sources_agree(run.swarm + run.churn, "pinned snapshot + churn section");
  // Two copies of both sections through one stream Reader (~105 KB, so
  // the 64 KB read-ahead refills inside the second swarm section).
  const std::string both = run.swarm + run.churn;
  std::istringstream in(both + both, std::ios::binary);
  snapshot_detail::Reader r(in);
  for (int copy = 0; copy < 2; ++copy) {
    graph::Rng rng;
    const Swarm swarm = Swarm::resume(r, rng);
    ChurnDriver<Swarm> churn(churny_spec(), swarm.config(), capacities(60), rng);
    restore_churn_driver(r, churn);
    std::string resaved = save_to_string(swarm);
    save_churn_driver(resaved, churn);
    EXPECT_EQ(resaved, both) << "copy " << copy;
  }
}

// --- the first error does not depend on threads ----------------------------
//
// Two rows break two different rules, one early and one late; the
// loader's row checks must report the early row's rule at every
// thread count.

/// M^e mod 2^64 for the fold multiplier M; e < 0 through M's inverse
/// (M is odd, so Newton's iteration converges 2-adically).
std::uint64_t fold_pow(long e) {
  std::uint64_t base = snapshot_detail::kFoldMul;
  if (e < 0) {
    std::uint64_t inv = base;
    for (int i = 0; i < 6; ++i) inv *= 2 - base * inv;
    base = inv;
    e = -e;
  }
  std::uint64_t out = 1;
  for (long i = 0; i < e; ++i) out *= base;
  return out;
}

/// Writes `value` over the `width`-byte field at `at` (one fold lane)
/// and rewrites the 8-byte lane at `comp`, `lanes` fold lanes after it
/// (before, if negative), so the footer still matches. The running
/// hash is sum(lane_i * M^(L-1-i)) mod 2^64 before the finalizer, so a
/// lane moved by d is cancelled by moving the other by -d * M^lanes.
void patch_lane(std::string& bytes, std::size_t at, std::uint64_t value, std::size_t width,
                std::size_t comp, long lanes) {
  std::uint64_t old = 0;
  std::memcpy(&old, bytes.data() + at, width);
  std::memcpy(bytes.data() + at, &value, width);
  const std::uint64_t moved = value - old;
  const std::uint64_t fixed = u64_at(bytes, comp) - moved * fold_pow(lanes);
  std::memcpy(bytes.data() + comp, &fixed, 8);
}

constexpr std::size_t kRulePeers = 600;

SwarmConfig rule_config() {
  SwarmConfig cfg = base_config(kRulePeers);
  cfg.stay_as_seed = true;  // no departures: rows stay in id order
  return cfg;
}

std::string rule_snapshot() {
  graph::Rng rng(kSeed);
  Swarm swarm(rule_config(), capacities(kRulePeers), rng);
  swarm.run(3);
  return save_to_string(swarm);
}

/// The message of resume_from_string(bytes) at `threads`, or "" if it
/// loads.
std::string load_error(const std::string& bytes, std::size_t threads) {
  SwarmConfig cfg = rule_config();
  cfg.threads = threads;
  try {
    (void)resume_from_string(bytes, cfg);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return "";
}

using Patch = std::function<void(std::string&)>;

/// Requires `low` alone, `high` alone and both together to fail with
/// the named rules at threads {1, 2, 8}: both together name `low`'s.
void expect_low_row_wins(const std::string& bytes, const Patch& low, const char* low_rule,
                         const Patch& high, const char* high_rule) {
  std::string low_only = bytes;
  low(low_only);
  std::string high_only = bytes;
  high(high_only);
  std::string both = bytes;
  low(both);
  high(both);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(load_error(low_only, threads), std::string("snapshot: ") + low_rule) << threads;
    EXPECT_EQ(load_error(high_only, threads), std::string("snapshot: ") + high_rule) << threads;
    EXPECT_EQ(load_error(both, threads), std::string("snapshot: ") + low_rule) << threads;
  }
}

constexpr std::size_t kLowRow = 2;
constexpr std::size_t kHighRow = kRulePeers - 20;

TEST(SnapshotChecks, AdjacencyWalkReportsTheLowestRowAtAnyThreadCount) {
  const std::string bytes = rule_snapshot();
  ASSERT_EQ(load_error(bytes, 1), "");
  const RowSections at = row_sections(bytes, rule_config().num_pieces);
  ASSERT_EQ(at.rows, kRulePeers + 2);
  for (const std::size_t row : {kLowRow, kHighRow}) {
    ASSERT_GE(u64_at(bytes, at.neighbors[row]), 4u) << "row " << row << " needs two lanes";
  }
  // Neighbour lane 0 holds ids 0 and 1, lane 1 ids 2 and 3; lane 1
  // absorbs the change, and the row's walk stops before reading it.
  const auto duplicate = [&](std::string& b) {
    const std::size_t lane0 = at.neighbors[kLowRow] + 8;
    const std::uint64_t first = u32_at(b, lane0);
    patch_lane(b, lane0, first | (first << 32), 8, lane0 + 8, 1);
  };
  const auto self = [&](std::string& b) {
    const std::size_t lane0 = at.neighbors[kHighRow] + 8;
    const std::uint64_t owner = u32_at(b, at.live_ids + 4 * kHighRow);
    patch_lane(b, lane0, owner | (std::uint64_t{u32_at(b, lane0 + 4)} << 32), 8, lane0 + 8, 1);
  };
  expect_low_row_wins(bytes, duplicate, "adjacency row not strictly sorted", self,
                      "adjacency names a departed or self peer");
}

TEST(SnapshotChecks, RowChecksReportTheLowestRowAtAnyThreadCount) {
  const std::string bytes = rule_snapshot();
  ASSERT_EQ(load_error(bytes, 1), "");
  const RowSections at = row_sections(bytes, rule_config().num_pieces);
  // Stats: the piece counter is the lane before completion_round.
  // Choker state: the optimistic target (a 4-byte lane) follows
  // rounds_since_rotation. Neither absorbing field is checked.
  const auto pieces = [&](std::string& b) {
    const std::size_t field = at.stats + kLowRow * 57 + 24;
    patch_lane(b, field, u64_at(b, field) + 1, 8, field + 8, 1);
  };
  const auto optimistic = [&](std::string& b) {
    const std::size_t field = at.chokers + kHighRow * 28 + 24;
    patch_lane(b, field, kRulePeers + 40, 4, field - 8, -1);
  };
  expect_low_row_wins(bytes, pieces, "piece counter disagrees with bitfield", optimistic,
                      "optimistic target out of range");
}

// --- ranks on demand --------------------------------------------------------

TEST(SwarmSnapshot, RanksComputedOnDemandMatchTheUninterruptedRun) {
  // The loader leaves the bandwidth ranks dirty; the first reader sorts
  // them, archived departures included, right after the resume and
  // after more rounds.
  constexpr std::size_t kPeers = 120;
  const SwarmConfig cfg = base_config(kPeers);
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(churny_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 15; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  ASSERT_GT(swarm.departures(), 0u);
  ResumedSwarm resumed = resume_from_string(save_to_string(swarm));
  for (int window = 0; window < 2; ++window) {
    const std::string where = "window " + std::to_string(window);
    EXPECT_EQ(resumed.swarm().reciprocated_pairs(), swarm.reciprocated_pairs()) << where;
    const StratificationReport a = swarm.stratification();
    const StratificationReport b = resumed.swarm().stratification();
    EXPECT_EQ(b.reciprocated_pairs, a.reciprocated_pairs) << where;
    EXPECT_EQ(b.mean_normalized_offset, a.mean_normalized_offset) << where;
    EXPECT_EQ(b.partner_rank_correlation, a.partner_rank_correlation) << where;
    swarm.run(5);
    resumed.swarm().run(5);
  }
}

// --- the retired archive flag ------------------------------------------------

TEST(SwarmSnapshot, LoaderRefusesTheRetiredAggregatesOnlyByte) {
  // The config section keeps the byte of the retired retain_departed
  // flag, right after `endgame`, always 1. A stream whose byte says 0
  // (a swarm with no departures, so the archive itself is consistent)
  // is refused by name, and so is any stored flag byte other than 0
  // and 1 — a 2 would load as "on" and re-save as 1. The choke key, 12
  // fold lanes on from the retired byte and 13 from `endgame`, absorbs
  // each patch so the checksum still matches; any key is a valid one.
  SwarmConfig cfg = rules_base_config();
  cfg.stay_as_seed = true;
  const std::string bytes = saved_at_round_zero(cfg);
  using Flag = bool& (*)(SwarmConfig&);
  const Flag endgame = [](SwarmConfig& c) -> bool& { return c.endgame; };
  const std::size_t flag = field_offset(cfg, endgame, !cfg.endgame) + 1;
  ASSERT_EQ(bytes[flag - 1], 1) << "endgame";
  ASSERT_EQ(bytes[flag], 1);
  ASSERT_NO_THROW((void)resume_from_string(bytes));
  // threads, nine fault fields (8 bytes each) and the RNG section tag.
  const std::size_t choke_key = flag + 1 + 10 * 8 + 4;
  const auto expect_refused = [&](std::size_t at, std::uint64_t value, long lanes,
                                  const char* rule) {
    std::string patched = bytes;
    patch_lane(patched, at, value, 1, choke_key, lanes);
    try {
      (void)resume_from_string(patched);
      ADD_FAILURE() << "loader accepted byte " << value << " at offset " << at;
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << e.what();
      EXPECT_EQ(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
    }
  };
  expect_refused(flag, 0, 12, "retain_departed");
  expect_refused(flag, 2, 12, "flag byte");
  expect_refused(flag - 1, 2, 13, "flag byte");
}

}  // namespace
}  // namespace strat::bt
