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

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
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

    std::ostringstream expect_stream;
    standalone.save(expect_stream);
    std::ostringstream got_stream;
    tracker.swarm(k).save(got_stream);
    EXPECT_EQ(got_stream.str(), expect_stream.str()) << "swarm " << k;
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

  // retain_departed=false (reports cover departed peers).
  {
    auto seeds = disjoint_seeds(2, 16);
    seeds[0].config.retain_departed = false;
    EXPECT_THROW(TrackerSim(TrackerConfig{}, std::move(seeds), capacities, 1),
                 std::invalid_argument);
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
