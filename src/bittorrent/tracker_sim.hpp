// Tracker-scale ecosystem simulation: N swarms, one tracker.
//
// TrackerSim owns a fleet of Swarm instances — each with its own
// structural Rng and ChurnDriver — and advances the whole ecosystem in
// lockstep rounds. Each round has two phases:
//
//  1. A serial barrier phase (the "tracker"): prune departed
//     memberships from the global PeerRegistry, re-split multi-torrent
//     peers' capacities across their surviving memberships, and admit
//     ecosystem-level arrivals — a single Poisson process whose
//     arrivals pick swarms from a Zipf popularity distribution and
//     whose per-arrival randomness (capacity draw, multi-torrent coin,
//     swarm picks) comes from counter-based streams keyed by (tracker
//     key, global peer id, round), the PR-5 recipe lifted to ecosystem
//     level: no arrival's draws depend on how many arrivals precede it
//     in the same round.
//  2. A member-swarm fan-out: each swarm's round (churn step +
//     run_round) is one sim::parallel_for task, and up to `shards`
//     workers claim the tasks on demand in ascending k. The seeds are
//     most-popular-first, so the largest swarms start first. Intra-swarm
//     `threads` is forced to 1 so the pool is never oversubscribed: the
//     parallel unit is the whole swarm round.
//
// Determinism contract, one level up from Swarm's: every swarm's round
// touches only its own slot (swarm + driver + rng + wall time), and
// every cross-swarm decision happens in the serial barrier — so results
// are bitwise identical at any `shards` value, and a closed (no-churn)
// member swarm is bitwise identical to the same Swarm run standalone
// with Rng(seed + stride * (k+1)). test_tracker_sim proves both
// differentials, at 10^3 swarms included.
//
// Capacity-split semantics: a peer in m swarms brings
// membership_capacity_share(kbps, m, j) to its j-th membership — every
// membership gets kbps/m except the last, which absorbs the exact
// remainder, so the shares always sum to kbps bit-exactly. The barrier
// re-splits after each departure, so a multi-torrent peer whose other
// swarm ends regains its full capacity the next round.
//
// Scale: per-round cost and the hot state are O(live) — a PeerTable
// per swarm, a pruned registry at the tracker. Memory is not: every
// member swarm archives each departure (a retired PeerStats record,
// ~72 B, plus the retired pair history), so it grows with cumulative
// departures. BM_TrackerSimShards measures round throughput and idle
// worker time across shards 1/2/4/8 × swarms 10/100/1000.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bittorrent/autosave.hpp"
#include "bittorrent/bandwidth.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"
#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Ecosystem-wide peer identifier. Each member swarm still speaks its
/// own local core::PeerId space; the PeerRegistry maps between them.
using GlobalPeerId = core::PeerId;

/// "STRATTRK" — the tracker header section's magic (the per-swarm
/// STRATSWM/STRATCHN sections follow it on the same stream).
inline constexpr std::uint64_t kTrackerMagic = 0x535452415454524BULL;

/// Seed offset per member swarm (SplitMix64 increment): member swarm k
/// draws from Rng(seed + kTrackerSwarmSeedStride * (k+1)) — the same
/// derivation run_multi_swarm() has always used, which is what makes
/// the standalone-Swarm differential possible.
inline constexpr std::uint64_t kTrackerSwarmSeedStride = 0x9E3779B97F4A7C15ULL;

/// Share of a peer's capacity its j-th of m memberships receives:
/// kbps/m for all but the last membership, which absorbs the exact
/// remainder — so the shares sum to kbps bit-exactly for any m (for
/// the common m == 2 the remainder equals kbps/2 exactly whenever
/// kbps/2 is exact, by Sterbenz's lemma). Conservation is an invariant
/// the capacity-split tests assert with operator==, not a tolerance.
[[nodiscard]] inline double membership_capacity_share(double kbps, std::size_t memberships,
                                                      std::size_t index) {
  const auto m = static_cast<double>(memberships);
  const double even = kbps / m;
  if (index + 1 < memberships) return even;
  double others = 0.0;
  for (std::size_t j = 0; j + 1 < memberships; ++j) others += even;
  return kbps - others;
}

/// One member swarm's construction recipe: a per-swarm config plus the
/// global ids of its initial population (in local-id order — member j
/// becomes local peer j). num_peers is overridden with members.size()
/// and threads is forced to 1 (the member-swarm fan-out owns the
/// parallelism).
struct TrackerSwarmSeed {
  SwarmConfig config;
  std::vector<GlobalPeerId> members;
};

/// Ecosystem-level knobs.
struct TrackerConfig {
  /// Worker cap for the member-swarm fan-out (0 = one per hardware
  /// thread): at most this many workers claim whole-swarm rounds on
  /// demand. A runtime knob, not simulation state: results are
  /// bitwise identical at any value, and save()/resume() round-trips
  /// across different shard counts.
  std::size_t shards = 1;

  /// Mean fresh peers per round across the whole ecosystem (Poisson;
  /// 0 = closed system). Requires arrival_model when > 0.
  double arrival_rate = 0.0;

  /// Swarm-popularity exponent: swarm k attracts arrivals with
  /// probability proportional to (k+1)^-zipf_exponent (0 = uniform) —
  /// order the seeds most-popular-first.
  double zipf_exponent = 1.0;

  /// Probability an arrival is multi-torrent: it joins two *distinct*
  /// Zipf-picked swarms with its capacity split across them.
  double multi_torrent_fraction = 0.0;

  /// Capacity distribution for ecosystem arrivals (e.g.
  /// BandwidthModel::saroiu2002()); sampled from the arrival's
  /// counter-based stream, never from a shared sequential generator.
  std::optional<BandwidthModel> arrival_model;

  /// Swarm-local churn applied by each member swarm's ChurnDriver
  /// (lifetime departures, re-announce sweeps, arrival-completion
  /// bitfields for injected arrivals). Its arrival and replacement
  /// processes must be off — the tracker owns arrivals.
  ChurnSpec swarm_churn;
};

/// Global peer directory: ecosystem id -> capacity + per-swarm
/// memberships. Dense storage compacted swap-with-last as peers' last
/// memberships depart (the PeerTable discipline at tracker level), so
/// the registry is O(live ecosystem peers), never O(arrivals-ever).
/// The id index is an unordered_map that is looked up and erased but
/// never iterated — no simulation decision can see its bucket order.
class PeerRegistry {
 public:
  struct Membership {
    std::uint32_t swarm = 0;
    core::PeerId local = 0;
  };
  struct Record {
    GlobalPeerId id = 0;
    double upload_kbps = 0.0;
    /// Join order; index j is the peer's j-th capacity share.
    std::vector<Membership> memberships;
  };

  /// Registers a fresh peer; ids are arrival-ordered, never recycled.
  GlobalPeerId add(double upload_kbps) {
    const GlobalPeerId g = next_id_++;
    index_.emplace(g, static_cast<std::uint32_t>(records_.size()));
    records_.push_back(Record{g, upload_kbps, {}});
    return g;
  }

  void add_membership(GlobalPeerId g, std::uint32_t swarm, core::PeerId local) {
    records_[index_.at(g)].memberships.push_back(Membership{swarm, local});
  }

  /// Live records in dense (compaction) order.
  [[nodiscard]] std::span<const Record> records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  /// One past the largest id ever issued (= cumulative arrivals).
  [[nodiscard]] GlobalPeerId id_space() const noexcept { return next_id_; }
  [[nodiscard]] const Record* find(GlobalPeerId g) const {
    const auto it = index_.find(g);
    return it == index_.end() ? nullptr : &records_[it->second];
  }

  /// Visits every record in dense order; `edit` may mutate the record
  /// and returns true to drop it (swap-with-last). The visit history —
  /// and therefore the surviving dense order — is deterministic.
  template <typename EditFn>
  void prune(EditFn&& edit) {
    std::size_t i = 0;
    while (i < records_.size()) {
      if (!edit(records_[i])) {
        ++i;
        continue;
      }
      index_.erase(records_[i].id);
      if (i + 1 != records_.size()) {
        records_[i] = std::move(records_.back());
        index_[records_[i].id] = static_cast<std::uint32_t>(i);
      }
      records_.pop_back();
    }
  }

  /// Snapshot loader: re-seats a serialized record list verbatim.
  /// Throws std::invalid_argument on duplicate ids, ids outside
  /// [0, id_space), or membership-less records.
  void restore(std::vector<Record> records, GlobalPeerId id_space);

 private:
  std::vector<Record> records_;
  /// id -> dense index of live records. Never iterated (strat-lint R1).
  std::unordered_map<GlobalPeerId, std::uint32_t> index_;
  GlobalPeerId next_id_ = 0;
};

/// Ecosystem aggregates: the paper's stratification statistic per
/// swarm, cross-referenced against the *global* capacity distribution,
/// plus the ecosystem completion-time CDF.
struct EcosystemReport {
  struct SwarmSummary {
    std::size_t live_peers = 0;
    std::size_t arrivals = 0;
    std::size_t departures = 0;
    std::size_t completed_leechers = 0;
    double partner_rank_correlation = 0.0;
    std::size_t reciprocated_pairs = 0;
    /// Peers currently running degraded (waiting out announce backoff).
    std::size_t degraded_peers = 0;
  };
  std::vector<SwarmSummary> per_swarm;
  /// Fault-injection totals summed over member swarms (all zero with
  /// faults disabled): announces lost to outages, backoff retries,
  /// connects abandoned after the attempt budget, inbound connects
  /// refused by NAT-ed peers, transfer lanes whose bytes were dropped.
  std::uint64_t fault_failed_announces = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_connect_failures = 0;
  std::uint64_t fault_nat_rejections = 0;
  std::uint64_t fault_lost_lanes = 0;
  /// Degraded peers summed over member swarms right now.
  std::size_t degraded_peers = 0;
  /// Mean per-swarm correlation weighted by reciprocated pairs.
  double mean_partner_rank_correlation = 0.0;
  std::size_t live_registry_peers = 0;
  std::size_t live_memberships = 0;
  /// Mean per-membership leech rate by *global* capacity decile over
  /// live registry peers (decile 0 = fastest tenth of the ecosystem) —
  /// stratification against the ecosystem-wide bandwidth distribution,
  /// not any single swarm's.
  std::array<double, 10> decile_leech_kbps{};
  /// Completion-time CDF: p10..p90 of completion rounds over every
  /// leecher that ever completed in any member swarm.
  std::array<double, 9> completion_round_deciles{};
  std::size_t completed_leechers = 0;
};

/// Where the ecosystem's wall-clock went. `swarms` sums the member
/// swarms' own phase profiles (CPU work, additive across workers);
/// the shard_* fields describe the member-swarm fan-out itself, summed
/// over rounds: shard_seconds is its wall time, and
/// shard_imbalance_seconds is that wall time minus the summed
/// per-swarm wall times divided by the worker count — the time an
/// average worker sat idle, 0 at one worker.
struct EcosystemProfile {
  Swarm::PhaseProfile swarms;
  double barrier_seconds = 0.0;
  double shard_seconds = 0.0;
  double shard_imbalance_seconds = 0.0;
  std::size_t rounds = 0;
};

/// The tracker. See the file comment for the phase structure and the
/// determinism contract.
class TrackerSim {
 public:
  /// `member_upload_kbps` holds one ecosystem-wide capacity per
  /// distinct initial peer, indexed by global id, each finite and
  /// positive (detail::require_capacity); every id in
  /// [0, member_upload_kbps.size()) must appear in >= 1 seed's member
  /// list (and at most once per swarm). Swarm k's Rng is seeded
  /// seed + kTrackerSwarmSeedStride * (k+1); the tracker's own
  /// generator (arrival counts) is seeded `seed`, and its first draw
  /// becomes the key of the per-arrival counter streams.
  TrackerSim(const TrackerConfig& cfg, std::vector<TrackerSwarmSeed> seeds,
             const std::vector<double>& member_upload_kbps, std::uint64_t seed);

  TrackerSim(TrackerSim&&) = default;
  TrackerSim& operator=(TrackerSim&&) = default;

  /// One ecosystem round: serial barrier (registry prune, capacity
  /// re-split, arrivals), then every member swarm's round, fanned out.
  void run_round();
  void run(std::size_t rounds);

  /// Clears every member swarm's stratification window (warm-up /
  /// measurement split, as in run_scenario).
  void reset_stratification();

  [[nodiscard]] std::size_t swarm_count() const noexcept { return swarms_.size(); }
  [[nodiscard]] const Swarm& swarm(std::size_t k) const;
  [[nodiscard]] const PeerRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] std::size_t rounds_elapsed() const noexcept { return round_; }
  /// Live peers summed over member swarms (multi-torrent peers count
  /// once per membership; registry().size() counts them once).
  [[nodiscard]] std::size_t live_membership_count() const;

  [[nodiscard]] EcosystemReport ecosystem_report() const;
  [[nodiscard]] EcosystemProfile ecosystem_profile() const;

  /// Serializes the whole ecosystem onto one stream: a checksummed
  /// tracker header section (round counter, arrival-stream key,
  /// tracker generator, registry), then each member swarm's STRATSWM
  /// snapshot followed by its driver's STRATCHN companion, in swarm
  /// order. Each section is staged in a string of its own and written
  /// whole, so the ecosystem is never held in memory at once. Call
  /// between rounds only. Two trackers in lockstep emit identical bytes
  /// regardless of their shard counts — the byte equality the shard
  /// differential tests assert. Throws SnapshotError if the stream
  /// write fails.
  void save(std::ostream& out) const;

  /// Restores a save()d ecosystem, reading the whole stream through one
  /// snapshot_detail::Reader. `cfg` is a construction input, not
  /// state (the ChurnDriver restore() precedent): pass the same
  /// arrival/churn semantics or the continued run diverges — but
  /// `shards` is free, and the resumed run is bitwise-equal to the
  /// uninterrupted one at any value. Throws SnapshotError on a stream
  /// that cannot seek, bad magic/version, truncation, checksum
  /// failure, or any structurally inconsistent registry (every id and
  /// membership is bounds-checked against the restored swarms before
  /// wiring).
  [[nodiscard]] static TrackerSim resume(std::istream& in, const TrackerConfig& cfg);

  /// Arms periodic crash-safe checkpoints: every `every` rounds,
  /// run_round() serializes the whole ecosystem through save() and
  /// publishes it under `dir` via temp-file + atomic rename, keeping
  /// the newest `keep` generations (see autosave.hpp). Host-side
  /// policy, not simulation state: snapshots don't carry it, and it
  /// never affects results.
  void autosave_every(std::size_t every, const std::filesystem::path& dir, std::size_t keep = 3);

 private:
  /// One member swarm: the structural Rng at a stable heap-slot
  /// address (Swarm and ChurnDriver hold references into it — the
  /// ResumedSwarm pattern), the swarm, its churn driver, and the wall
  /// time of its last round (profiling only, never saved).
  struct SwarmSlot {
    graph::Rng rng;
    std::optional<Swarm> swarm;
    std::optional<ChurnDriver<Swarm>> driver;
    double round_seconds = 0.0;
  };

  /// Resume shell: binds the config, leaves the rest to resume().
  explicit TrackerSim(const TrackerConfig& cfg);

  static void validate_config(const TrackerConfig& cfg);
  void build_zipf();
  [[nodiscard]] std::uint32_t zipf_pick(graph::Rng& stream) const;
  /// Barrier phase 1: drop departed memberships, compact the registry,
  /// re-split surviving multi-torrent capacities.
  void maintain_registry();
  /// Barrier phase 2: ecosystem Poisson arrivals.
  void admit_arrivals();
  void admit_one();

  // strat-lint: not-serialized -- construction input; resume() takes the
  // same config again (the ChurnDriver spec/pool precedent).
  TrackerConfig cfg_;
  std::vector<std::unique_ptr<SwarmSlot>> swarms_;
  PeerRegistry registry_;
  /// Key of the per-arrival counter streams: the tracker generator's
  /// first draw, mirroring Swarm's choke_key_ derivation.
  std::uint64_t tracker_key_ = 0;
  /// Serial tracker generator — arrival *counts* only; everything
  /// per-arrival comes from Rng::stream(tracker_key_, id, round).
  graph::Rng tracker_rng_;
  std::size_t round_ = 0;
  // strat-lint: not-serialized -- derived from cfg_ and swarm count,
  // rebuilt by build_zipf() on both construction paths.
  std::vector<double> zipf_cdf_;
  // strat-lint: not-serialized -- profiling accumulators; like Swarm's
  // profile_, a resumed run restarts its timers at zero yet stays
  // bitwise-identical.
  double barrier_seconds_ = 0.0;
  // strat-lint: not-serialized -- profiling accumulator (see above)
  double shard_seconds_ = 0.0;
  // strat-lint: not-serialized -- profiling accumulator (see above)
  double shard_imbalance_seconds_ = 0.0;
  // strat-lint: not-serialized -- host-side checkpoint policy
  // (autosave_every), never simulation state; a resumed run re-arms it.
  std::optional<Autosaver> autosaver_;
};

/// Crash recovery for a tracker ecosystem: resumes from the newest
/// autosave generation under `dir` that passes resume()'s full
/// validation, falling back past corrupt or truncated generations.
/// Returns nullopt when none loads. `cfg` follows the resume()
/// contract (construction input, `shards` free). Implemented in
/// autosave.cpp.
[[nodiscard]] std::optional<TrackerSim> recover_latest_tracker(const std::filesystem::path& dir,
                                                               const TrackerConfig& cfg);

}  // namespace strat::bt
