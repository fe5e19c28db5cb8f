// TrackerSim: the determinism contract one level up from Swarm.
//
// The tentpole assertions are differential and bitwise, via save()
// byte equality: any shard count {1, 2, 8, auto} must produce the
// identical ecosystem (a 10^3-swarm run included — the tier-1
// acceptance bar), a closed member swarm must equal the same Swarm run
// standalone, and a save()/resume() round-trip must continue bitwise
// even when the resumed tracker uses a different shard count. On top:
// the capacity-split conservation invariant (shares sum to the
// ecosystem capacity with operator==, not a tolerance), Zipf arrival
// determinism and skew, and the registry's O(live) bound under heavy
// churn (the longchurn regression at tracker level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"
#include "graph/rng.hpp"

namespace strat::bt {
namespace {

SwarmConfig member_config(std::size_t peers) {
  SwarmConfig cfg;
  cfg.num_peers = peers;
  cfg.seeds = 1;
  cfg.num_pieces = 32;
  cfg.piece_kb = 16.0;
  cfg.neighbor_degree = 6.0;
  cfg.initial_completion = 0.5;
  cfg.stay_as_seed = false;  // completion departures exercise the prune
  return cfg;
}

/// Disjoint member swarms: swarm k owns global ids
/// [k*peers, (k+1)*peers), capacities from the global ecosystem CDF.
std::vector<TrackerSwarmSeed> disjoint_seeds(std::size_t num_swarms, std::size_t peers) {
  std::vector<TrackerSwarmSeed> seeds(num_swarms);
  for (std::size_t k = 0; k < num_swarms; ++k) {
    seeds[k].config = member_config(peers);
    seeds[k].members.resize(peers);
    for (std::size_t local = 0; local < peers; ++local) {
      seeds[k].members[local] = static_cast<GlobalPeerId>(k * peers + local);
    }
  }
  return seeds;
}

TrackerConfig churned_config(std::size_t shards) {
  TrackerConfig cfg;
  cfg.shards = shards;
  cfg.arrival_rate = 6.0;
  cfg.zipf_exponent = 1.0;
  cfg.multi_torrent_fraction = 0.3;
  cfg.arrival_model = BandwidthModel::saroiu2002();
  cfg.swarm_churn.lifetime = ChurnSpec::Lifetime::kExponential;
  cfg.swarm_churn.lifetime_rounds = 25.0;
  cfg.swarm_churn.arrival_completion = 0.25;
  return cfg;
}

TrackerSim churned_tracker(std::size_t shards, std::size_t num_swarms, std::size_t peers,
                           std::uint64_t seed) {
  const auto capacities =
      BandwidthModel::saroiu2002().representative_sample(num_swarms * peers);
  return TrackerSim(churned_config(shards), disjoint_seeds(num_swarms, peers), capacities,
                    seed);
}

std::string save_bytes(const TrackerSim& tracker) {
  std::ostringstream out;
  tracker.save(out);
  return out.str();
}

TEST(TrackerSim, ShardCountIsBitwiseInvariant) {
  const std::string reference = [&] {
    TrackerSim t = churned_tracker(1, 12, 16, 99);
    t.run(12);
    return save_bytes(t);
  }();
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    TrackerSim t = churned_tracker(shards, 12, 16, 99);
    t.run(12);
    EXPECT_EQ(save_bytes(t), reference) << "shards=" << shards;
  }
}

TEST(TrackerSim, ThousandSwarmRunIsShardInvariant) {
  // The acceptance bar: a 10^3-swarm ecosystem, churned and
  // multi-torrent, bitwise identical across shards {1, 2, 8, auto}.
  // Swarms are kept tiny so the 4 runs stay tier-1-fast.
  const auto build = [](std::size_t shards) {
    std::vector<TrackerSwarmSeed> seeds(1000);
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      SwarmConfig cfg;
      cfg.num_peers = 6;
      cfg.seeds = 1;
      cfg.num_pieces = 16;
      cfg.piece_kb = 16.0;
      cfg.neighbor_degree = 4.0;
      cfg.initial_completion = 0.5;
      cfg.stay_as_seed = false;
      seeds[k].config = cfg;
      seeds[k].members.resize(6);
      for (std::size_t local = 0; local < 6; ++local) {
        seeds[k].members[local] = static_cast<GlobalPeerId>(k * 6 + local);
      }
    }
    TrackerConfig cfg = churned_config(shards);
    cfg.arrival_rate = 50.0;
    const auto capacities = BandwidthModel::saroiu2002().representative_sample(6000);
    return TrackerSim(cfg, std::move(seeds), capacities, 1234);
  };
  const std::string reference = [&] {
    TrackerSim t = build(1);
    t.run(3);
    return save_bytes(t);
  }();
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    TrackerSim t = build(shards);
    t.run(3);
    EXPECT_EQ(save_bytes(t), reference) << "shards=" << shards;
  }
}

TEST(TrackerSim, ClosedMemberSwarmsMatchStandaloneRuns) {
  // With no ecosystem churn, member swarm k must reproduce — bitwise,
  // by snapshot bytes — a standalone Swarm run from
  // Rng(seed + kTrackerSwarmSeedStride * (k+1)) with the same config.
  const std::size_t num_swarms = 4;
  const std::size_t peers = 14;
  const std::uint64_t seed = 7;
  const auto capacities =
      BandwidthModel::saroiu2002().representative_sample(num_swarms * peers);
  TrackerConfig cfg;
  cfg.shards = 3;
  TrackerSim tracker(cfg, disjoint_seeds(num_swarms, peers), capacities, seed);
  tracker.run(10);

  for (std::size_t k = 0; k < num_swarms; ++k) {
    SwarmConfig scfg = member_config(peers);
    scfg.threads = 1;  // the tracker forces this under sharding
    std::vector<double> local_caps(peers);
    for (std::size_t local = 0; local < peers; ++local) {
      local_caps[local] = capacities[k * peers + local];
    }
    graph::Rng rng(seed + kTrackerSwarmSeedStride * (k + 1));
    Swarm standalone(scfg, local_caps, rng);
    standalone.run(10);

    EXPECT_EQ(save_to_string(tracker.swarm(k)), save_to_string(standalone)) << "swarm " << k;
  }
}

TEST(TrackerSim, MultiTorrentCapacitySplitIsConserved) {
  // Every round, for every registry peer whose memberships are all
  // live, the per-swarm capacities must sum to the ecosystem capacity
  // *exactly* — membership_capacity_share's remainder construction
  // makes conservation an == invariant, not a tolerance. Records with
  // a mid-round departure are re-split at the next barrier, so they
  // are checked after their next round.
  TrackerConfig cfg = churned_config(1);
  cfg.arrival_rate = 10.0;
  cfg.multi_torrent_fraction = 1.0;  // every arrival splits
  TrackerSim tracker(cfg, disjoint_seeds(4, 16),
                     BandwidthModel::saroiu2002().representative_sample(64), 11);

  std::size_t multi_checked = 0;
  for (std::size_t round = 0; round < 25; ++round) {
    tracker.run_round();
    for (const PeerRegistry::Record& rec : tracker.registry().records()) {
      bool all_live = true;
      double sum = 0.0;
      for (const PeerRegistry::Membership& m : rec.memberships) {
        if (tracker.swarm(m.swarm).departed(m.local)) {
          all_live = false;
          break;
        }
        sum += tracker.swarm(m.swarm).stats(m.local).upload_kbps;
      }
      if (!all_live) continue;
      EXPECT_EQ(sum, rec.upload_kbps) << "peer " << rec.id << " round " << round;
      if (rec.memberships.size() > 1) ++multi_checked;
    }
  }
  // The invariant must actually have been exercised on split peers.
  EXPECT_GT(multi_checked, 50u);
}

TEST(TrackerSim, ZipfArrivalsAreDeterministicAndSkewed) {
  TrackerConfig cfg = churned_config(1);
  cfg.arrival_rate = 30.0;
  cfg.zipf_exponent = 1.2;
  cfg.multi_torrent_fraction = 0.0;
  const auto capacities = BandwidthModel::saroiu2002().representative_sample(6 * 12);

  TrackerSim a(cfg, disjoint_seeds(6, 12), capacities, 21);
  a.run(20);
  TrackerSim b(cfg, disjoint_seeds(6, 12), capacities, 21);
  b.run(20);
  EXPECT_EQ(save_bytes(a), save_bytes(b));

  // Popularity skew: the head swarm must out-draw the tail swarm by a
  // wide margin (expected ratio 7^1.2 ~ 10x at these rates).
  EXPECT_GT(a.swarm(0).arrivals(), a.swarm(5).arrivals() + 20);
  std::size_t total = 0;
  for (std::size_t k = 0; k < 6; ++k) total += a.swarm(k).arrivals();
  EXPECT_GT(total, 400u);  // ~600 expected from 20 rounds at rate 30
}

TEST(TrackerSim, RegistryStaysLiveSizedUnderChurn) {
  // Longchurn regression at tracker level: cumulative arrivals grow
  // without bound, the registry must not — records are pruned when
  // their last membership departs.
  TrackerConfig cfg = churned_config(1);
  cfg.arrival_rate = 25.0;
  cfg.swarm_churn.lifetime_rounds = 4.0;  // fast turnover
  TrackerSim tracker(cfg, disjoint_seeds(2, 16),
                     BandwidthModel::saroiu2002().representative_sample(32), 3);
  tracker.run(50);

  const std::size_t arrivals_ever = tracker.registry().id_space();
  EXPECT_GT(arrivals_ever, 1000u);  // ~1250 expected
  // Every record holds >= 1 membership live at the last barrier; slack
  // covers one round of not-yet-pruned departures.
  EXPECT_LE(tracker.registry().size(), tracker.live_membership_count() + 200);
  EXPECT_LT(tracker.registry().size() * 5, arrivals_ever);
}

TEST(TrackerSim, ResumeContinuesBitwiseAtAnyShardCount) {
  TrackerSim uninterrupted = churned_tracker(2, 8, 16, 42);
  uninterrupted.run(6);
  const std::string snapshot = save_bytes(uninterrupted);
  uninterrupted.run(6);
  const std::string expect = save_bytes(uninterrupted);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    std::istringstream in(snapshot);
    TrackerSim resumed = TrackerSim::resume(in, churned_config(shards));
    EXPECT_EQ(resumed.rounds_elapsed(), 6u);
    resumed.run(6);
    EXPECT_EQ(save_bytes(resumed), expect) << "shards=" << shards;
  }
}

TEST(TrackerSim, ResumeRejectsCorruptStreams) {
  TrackerSim tracker = churned_tracker(1, 3, 12, 5);
  tracker.run(4);
  const std::string snapshot = save_bytes(tracker);

  {
    std::string bad = snapshot;
    bad[0] ^= 0x01;  // magic
    std::istringstream in(bad);
    EXPECT_THROW((void)TrackerSim::resume(in, churned_config(1)), SnapshotError);
  }
  {
    std::string bad = snapshot;
    bad[40] ^= 0x01;  // inside the tracker header: checksum mismatch
    std::istringstream in(bad);
    EXPECT_THROW((void)TrackerSim::resume(in, churned_config(1)), SnapshotError);
  }
  {
    const std::string truncated = snapshot.substr(0, snapshot.size() / 2);
    std::istringstream in(truncated);
    EXPECT_THROW((void)TrackerSim::resume(in, churned_config(1)), SnapshotError);
  }
  // Corrupt list counts: byte 3 of the registry's id space and record
  // count (u64s at offsets 85 and 93, after the 81-byte meta section
  // and the registry tag), then byte 3 of the first record's
  // membership count (after its u32 id and f64 capacity).
  {
    std::string bad = snapshot;
    bad[85 + 3] = static_cast<char>(0xFF);
    bad[93 + 3] = static_cast<char>(0xFF);
    std::istringstream in(bad);
    EXPECT_THROW((void)TrackerSim::resume(in, churned_config(1)), SnapshotError);
  }
  {
    std::string bad = snapshot;
    bad[113 + 3] = static_cast<char>(0xFF);
    std::istringstream in(bad);
    EXPECT_THROW((void)TrackerSim::resume(in, churned_config(1)), SnapshotError);
  }
}

TEST(TrackerSim, SaveBytesMatchPinnedDigest) {
  // FNV-1a of save() bytes, captured from the tree before the
  // serializers moved to one field list per record: the tracker
  // header, every member swarm and every churn-driver section must
  // stay byte-identical.
  TrackerSim tracker = churned_tracker(1, 4, 12, 21);
  tracker.run(6);
  const std::string bytes = save_bytes(tracker);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  EXPECT_EQ(bytes.size(), 30738u);
  EXPECT_EQ(h, 0xf60f8c78a9049e00ULL);
}

// The loader applies the constructor's capacity rule (finite, > 0) to
// every registry record as it reads it, before the checksum: the
// barrier re-splits capacities every round, so a +inf capacity would
// otherwise load and fail only at the next round's re-split.

/// Round-zero save of a 3-swarm tracker where global peer `who` holds
/// ecosystem capacity `kbps`.
std::string saved_with_registry_capacity(GlobalPeerId who, double kbps) {
  auto capacities = BandwidthModel::saroiu2002().representative_sample(3 * 12);
  capacities[who] = kbps;
  return save_bytes(TrackerSim(churned_config(1), disjoint_seeds(3, 12), capacities, 5));
}

TEST(TrackerSim, ResumeRefusesBadRegistryCapacities) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr GlobalPeerId kWho = 7;
  constexpr double kGood = 100.0;
  // The capacity's offset: the first byte where a one-ulp change moves
  // the stream (the registry precedes every swarm section).
  const std::string good = saved_with_registry_capacity(kWho, kGood);
  const std::string nudged = saved_with_registry_capacity(kWho, std::nextafter(kGood, kInf));
  ASSERT_EQ(good.size(), nudged.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(good.begin(), good.end(), nudged.begin()).first - good.begin());
  ASSERT_LE(at + sizeof(double), good.size());
  {
    std::istringstream in(good);
    ASSERT_NO_THROW((void)TrackerSim::resume(in, churned_config(1)));
  }
  for (const double bad : {kNaN, -1.0, 0.0, kInf}) {
    SCOPED_TRACE("registry capacity " + std::to_string(bad));
    std::string bytes = good;
    std::memcpy(bytes.data() + at, &bad, sizeof bad);
    std::istringstream in(bytes);
    try {
      (void)TrackerSim::resume(in, churned_config(1));
      ADD_FAILURE() << "loader accepted a bad registry capacity";
    } catch (const SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("capacity must be finite and positive"), std::string::npos) << what;
      EXPECT_NE(what.find("registry record"), std::string::npos) << what;
      EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
    }
    // PeerRegistry::restore applies the same rule.
    PeerRegistry registry;
    std::vector<PeerRegistry::Record> records(1);
    records[0].upload_kbps = bad;
    records[0].memberships.push_back({});
    EXPECT_THROW(registry.restore(std::move(records), 1), std::invalid_argument);
  }
}

TEST(TrackerSim, RejectsInvalidConstruction) {
  const auto capacities = BandwidthModel::saroiu2002().representative_sample(32);

  // Empty ecosystem.
  EXPECT_THROW(TrackerSim(TrackerConfig{}, {}, capacities, 1), std::invalid_argument);

  // Member capacities follow the swarm capacity rule: finite, positive.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0, -5.0}) {
    auto bad_capacities = capacities;
    bad_capacities[3] = bad;
    EXPECT_THROW(TrackerSim(TrackerConfig{}, disjoint_seeds(2, 16), bad_capacities, 1),
                 std::invalid_argument)
        << bad;
  }

  // Member id beyond the capacity list.
  {
    auto seeds = disjoint_seeds(2, 16);
    seeds[1].members.back() = 99;
    EXPECT_THROW(TrackerSim(TrackerConfig{}, std::move(seeds), capacities, 1),
                 std::invalid_argument);
  }
  // The same peer twice in one swarm.
  {
    auto seeds = disjoint_seeds(2, 16);
    seeds[0].members[1] = seeds[0].members[0];
    EXPECT_THROW(TrackerSim(TrackerConfig{}, std::move(seeds), capacities, 1),
                 std::invalid_argument);
  }
  // A listed capacity no swarm uses.
  {
    auto bigger = capacities;
    bigger.push_back(100.0);
    EXPECT_THROW(TrackerSim(TrackerConfig{}, disjoint_seeds(2, 16), bigger, 1),
                 std::invalid_argument);
  }
  // Arrivals without a capacity model.
  {
    TrackerConfig cfg;
    cfg.arrival_rate = 5.0;
    EXPECT_THROW(TrackerSim(cfg, disjoint_seeds(2, 16), capacities, 1),
                 std::invalid_argument);
  }
  // The tracker owns arrivals: swarm-local arrival churn is rejected.
  {
    TrackerConfig cfg;
    cfg.swarm_churn.arrivals = ChurnSpec::Arrivals::kPoisson;
    cfg.swarm_churn.arrival_rate = 1.0;
    EXPECT_THROW(TrackerSim(cfg, disjoint_seeds(2, 16), capacities, 1),
                 std::invalid_argument);
  }
}

// --- churn and tracker rate rules ---------------------------------------------
//
// One ChurnSpec rule set (detail::validate_churn_spec) guards every
// consumer: both data planes' ChurnDrivers and TrackerSim's swarm_churn.
// A value that slips through runs a round, so an accepted +inf rate
// shows the failure it causes: Rng::poisson(+inf) recurses until the
// stack overflows.

/// Requires `construct_and_run` to throw std::invalid_argument naming `rule`.
template <typename F>
void expect_refused(const char* rule, const char* where, F&& construct_and_run) {
  try {
    construct_and_run();
    ADD_FAILURE() << where << " accepted a bad value for rule: " << rule;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << where << ": " << e.what();
  }
}

template <typename SwarmT>
void run_churned_round(const ChurnSpec& spec) {
  const SwarmConfig cfg = member_config(16);
  const auto capacities = BandwidthModel::saroiu2002().representative_sample(16);
  graph::Rng rng(7);
  SwarmT swarm(cfg, capacities, rng);
  ChurnDriver<SwarmT> driver(spec, cfg, capacities, rng);
  driver.attach(swarm);
  driver.before_round(swarm);
  swarm.run_round();
}

void run_tracker_round(const TrackerConfig& cfg) {
  const auto capacities = BandwidthModel::saroiu2002().representative_sample(32);
  TrackerSim tracker(cfg, disjoint_seeds(2, 16), capacities, 7);
  tracker.run_round();
}

TEST(ChurnSpecRules, EveryBadValueIsRefusedByBothDriversAndTheTracker) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Valid for every consumer: no spec-driven arrivals (the tracker owns
  // them), a lifetime model on so lifetime_rounds is live.
  ChurnSpec base;
  base.lifetime = ChurnSpec::Lifetime::kExponential;
  base.lifetime_rounds = 25.0;
  base.arrival_completion = 0.25;
  base.reannounce_interval = 5;

  struct BadSpec {
    const char* rule;
    double ChurnSpec::*field;
    double bad;
  };
  const std::vector<BadSpec> specs = {
      {"arrival_rate", &ChurnSpec::arrival_rate, kInf},
      {"arrival_rate", &ChurnSpec::arrival_rate, kNaN},
      {"arrival_rate", &ChurnSpec::arrival_rate, -1.0},
      {"replacement_rate", &ChurnSpec::replacement_rate, kInf},
      {"replacement_rate", &ChurnSpec::replacement_rate, kNaN},
      {"replacement_rate", &ChurnSpec::replacement_rate, -1.0},
      {"lifetime_rounds", &ChurnSpec::lifetime_rounds, kNaN},
      {"lifetime_rounds", &ChurnSpec::lifetime_rounds, kInf},
      {"lifetime_rounds", &ChurnSpec::lifetime_rounds, 0.0},
      {"lifetime_rounds", &ChurnSpec::lifetime_rounds, -5.0},
      {"arrival_completion", &ChurnSpec::arrival_completion, 1.5},
      {"arrival_completion", &ChurnSpec::arrival_completion, 1.0},
      {"arrival_completion", &ChurnSpec::arrival_completion, -0.1},
      {"arrival_completion", &ChurnSpec::arrival_completion, kNaN},
  };
  for (const BadSpec& row : specs) {
    SCOPED_TRACE(std::string(row.rule) + " = " + std::to_string(row.bad));
    ChurnSpec spec = base;
    spec.*row.field = row.bad;
    expect_refused(row.rule, "ChurnDriver<Swarm>", [&] { run_churned_round<Swarm>(spec); });
    expect_refused(row.rule, "ChurnDriver<ReferenceSwarm>",
                   [&] { run_churned_round<ReferenceSwarm>(spec); });
    TrackerConfig cfg;
    cfg.swarm_churn = spec;
    expect_refused(row.rule, "TrackerSim", [&] { run_tracker_round(cfg); });
  }

  struct BadTracker {
    const char* rule;
    double TrackerConfig::*field;
    double bad;
  };
  const std::vector<BadTracker> trackers = {
      {"arrival_rate", &TrackerConfig::arrival_rate, kInf},
      {"arrival_rate", &TrackerConfig::arrival_rate, kNaN},
      {"arrival_rate", &TrackerConfig::arrival_rate, -1.0},
      {"zipf_exponent", &TrackerConfig::zipf_exponent, kNaN},
      {"zipf_exponent", &TrackerConfig::zipf_exponent, kInf},
      {"zipf_exponent", &TrackerConfig::zipf_exponent, -1.0},
      {"multi_torrent_fraction", &TrackerConfig::multi_torrent_fraction, kNaN},
      {"multi_torrent_fraction", &TrackerConfig::multi_torrent_fraction, 1.5},
      {"multi_torrent_fraction", &TrackerConfig::multi_torrent_fraction, -0.1},
  };
  for (const BadTracker& row : trackers) {
    SCOPED_TRACE(std::string(row.rule) + " = " + std::to_string(row.bad));
    TrackerConfig cfg = churned_config(1);
    cfg.*row.field = row.bad;
    expect_refused(row.rule, "TrackerSim", [&] { run_tracker_round(cfg); });
  }
}

TEST(TrackerSim, EcosystemReportAndProfileAreCoherent) {
  TrackerSim tracker = churned_tracker(1, 5, 16, 13);
  tracker.run(12);

  const EcosystemReport report = tracker.ecosystem_report();
  ASSERT_EQ(report.per_swarm.size(), 5u);
  std::size_t live = 0;
  for (const auto& s : report.per_swarm) live += s.live_peers;
  EXPECT_EQ(report.live_memberships, live);
  // The registry may briefly exceed the live membership count: records
  // whose last membership departed during the final round are pruned
  // at the *next* barrier. It still tracks the same population.
  EXPECT_EQ(report.live_registry_peers, tracker.registry().size());
  EXPECT_GT(report.live_registry_peers, 0u);
  EXPECT_GT(report.completed_leechers, 0u);
  for (std::size_t i = 1; i < report.completion_round_deciles.size(); ++i) {
    EXPECT_LE(report.completion_round_deciles[i - 1], report.completion_round_deciles[i]);
  }

  const EcosystemProfile profile = tracker.ecosystem_profile();
  EXPECT_EQ(profile.rounds, 12u);
  EXPECT_GT(profile.swarms.transfer_seconds, 0.0);
  EXPECT_GT(profile.shard_seconds, 0.0);
  EXPECT_GE(profile.barrier_seconds, 0.0);
  // One shard: max == min wall every round, so imbalance is exactly 0.
  EXPECT_EQ(profile.shard_imbalance_seconds, 0.0);
}

TEST(TrackerSim, EcosystemProfileFoldsEveryMemberProfile) {
  // ecosystem_profile().swarms is the member-order fold of the member
  // swarms' profiles, the same doubles field by field. The size check
  // makes a field added to PhaseProfile fail here until it is compared
  // (and folded in operator+=).
  static_assert(sizeof(Swarm::PhaseProfile) == 11 * 8,
                "compare the new PhaseProfile field below and fold it in operator+=");
  TrackerSim tracker = churned_tracker(2, 5, 16, 13);
  tracker.run(12);
  Swarm::PhaseProfile want;
  for (std::size_t k = 0; k < tracker.swarm_count(); ++k) want += tracker.swarm(k).phase_profile();
  const Swarm::PhaseProfile got = tracker.ecosystem_profile().swarms;
  EXPECT_EQ(got.choke_seconds, want.choke_seconds);
  EXPECT_EQ(got.endgame_seconds, want.endgame_seconds);
  EXPECT_EQ(got.mutual_seconds, want.mutual_seconds);
  EXPECT_EQ(got.transfer_seconds, want.transfer_seconds);
  EXPECT_EQ(got.fold_seconds, want.fold_seconds);
  EXPECT_EQ(got.transfer_compute_seconds, want.transfer_compute_seconds);
  EXPECT_EQ(got.transfer_commit_seconds, want.transfer_commit_seconds);
  EXPECT_EQ(got.transfer_rerun_seconds, want.transfer_rerun_seconds);
  EXPECT_EQ(got.transfer_lanes, want.transfer_lanes);
  EXPECT_EQ(got.transfer_reruns, want.transfer_reruns);
  EXPECT_EQ(got.fault_seconds, want.fault_seconds);
  EXPECT_GT(got.transfer_lanes, 0u);
}

TEST(TrackerSim, TwoWorkerImbalanceIsIdleTimeInsideTheFanOut) {
  // Each worker's swarm rounds run one after another inside the fan-out,
  // so the summed per-swarm wall is at most workers x the fan-out wall:
  // the idle time per worker lies between 0 and the fan-out wall.
  TrackerSim tracker = churned_tracker(2, 5, 16, 13);
  tracker.run(12);
  const EcosystemProfile profile = tracker.ecosystem_profile();
  EXPECT_GT(profile.shard_seconds, 0.0);
  EXPECT_GE(profile.shard_imbalance_seconds, 0.0);
  EXPECT_LE(profile.shard_imbalance_seconds, profile.shard_seconds);
}

TEST(TrackerSim, InjectedArrivalsShareDriverBookkeeping) {
  // ChurnDriver::join_injected is the tracker's entry point: the
  // caller brings the capacity, the driver contributes the
  // arrival-completion bitfield and the lifetime deadline — the same
  // path spec-driven arrivals take, not a duplicate.
  SwarmConfig cfg = member_config(12);
  const auto pool = BandwidthModel::saroiu2002().representative_sample(12);
  graph::Rng rng(17);
  Swarm swarm(cfg, pool, rng);
  ChurnSpec spec;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 30.0;
  spec.arrival_completion = 0.5;
  ChurnDriver<Swarm> driver(spec, cfg, {}, rng);
  driver.attach(swarm);
  const std::size_t deadlines_before = driver.tracked_deadlines();

  const core::PeerId fresh = driver.join_injected(swarm, 768.0);
  EXPECT_EQ(fresh, static_cast<core::PeerId>(swarm.peer_count() - 1));
  EXPECT_EQ(swarm.stats(fresh).upload_kbps, 768.0);
  EXPECT_EQ(driver.tracked_deadlines(), deadlines_before + 1);
  // A half-complete arrival actually carries pieces.
  EXPECT_GT(swarm.stats(fresh).pieces, 0u);
}

TEST(TrackerSim, CapacityShareSumsExactly) {
  for (const double kbps : {56.0, 384.0, 768.0, 1537.3, 99999.875}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      double sum = 0.0;
      for (std::size_t j = 0; j < m; ++j) sum += membership_capacity_share(kbps, m, j);
      EXPECT_EQ(sum, kbps) << kbps << " over " << m;
    }
  }
}

}  // namespace
}  // namespace strat::bt
