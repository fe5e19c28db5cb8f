// Scenario engine over the swarm simulator.
//
// A SwarmScenario bundles a SwarmConfig with a capacity assignment, a
// warm-up/measurement schedule and an optional churn schedule;
// run_scenario() executes one seeded run and distills the aggregates
// the §6 validation cares about (completion, leech-phase rates by
// capacity decile, stratification, availability dispersion).
// run_replications() runs every (grid point, seed) pair of a scenario
// grid as one sim::parallel_for task, claimed on demand — results are
// deterministic per pair regardless of the thread count.
//
// ChurnSpec + ChurnDriver turn the closed swarm into an open system:
// they mirror core/churn.hpp's replacement/removal/arrival event
// taxonomy (§3, Figure 3) at the protocol level. Arrivals follow a
// Poisson process or a one-shot flash crowd; departures follow
// exponential or fixed seedless lifetimes; replacement events keep the
// population stationary at the paper's x/1000 rates; and a periodic
// tracker re-announce sweep tops degrees back up as departures thin
// the overlay. The driver is a template over the data plane so the
// Swarm-vs-ReferenceSwarm differential tests replay identical churn
// schedules through both.
//
// On top of single swarms, MultiSwarmSpec models peers split across
// several overlapping swarms: a peer in k swarms divides its upload
// capacity k ways, so multi-homed peers rank lower *within* each swarm
// — the stratification penalty of divided attention, a scenario the
// paper's single-swarm model cannot express directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/swarm.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Protocol-level churn schedule (all rates are per round).
struct ChurnSpec {
  /// Arrival process for fresh leechers (empty bitfield unless
  /// arrival_completion > 0).
  enum class Arrivals { kNone, kPoisson, kFlashCrowd };
  Arrivals arrivals = Arrivals::kNone;
  double arrival_rate = 0.0;         // mean arrivals per round (Poisson)
  std::size_t flash_crowd_size = 0;  // burst size (flash crowd)
  std::size_t flash_crowd_round = 0; // burst round (flash crowd)

  /// Seedless-departure lifetime model: a peer leaves once it has been
  /// in the swarm this long, complete or not (initial seeds stay).
  enum class Lifetime { kNone, kExponential, kFixed };
  Lifetime lifetime = Lifetime::kNone;
  double lifetime_rounds = 0.0;  // mean (exponential) or exact (fixed)

  /// Replacement events per round (Poisson): one uniformly random live
  /// leecher departs and one fresh leecher arrives, keeping the
  /// population stationary — the paper's x/1000 churn regime.
  double replacement_rate = 0.0;

  /// Fraction of pieces an arrival already holds (independent
  /// Bernoulli per piece), mirroring post_flashcrowd initialization.
  double arrival_completion = 0.0;

  /// How arrivals get their upload capacity: when set, each arrival
  /// draws it independently from this empirical distribution (e.g.
  /// BandwidthModel::saroiu2002(), the open-system analogue of the
  /// paper's Figure 10 / Table 1 upstream-bandwidth CDF) — one
  /// inverse-CDF draw from the swarm RNG per arrival, so both data
  /// planes stay in lockstep. Unset: arrivals cycle a fixed pool.
  std::optional<BandwidthModel> arrival_model;

  /// Capacities handed to arrivals, cycled in order (no arrival_model
  /// only). Empty = cycle the scenario's leecher capacity list.
  std::vector<double> arrival_upload_kbps;

  /// Rounds between tracker re-announce sweeps topping every live
  /// peer's degree back up toward neighbor_degree (0 = arrivals only).
  std::size_t reannounce_interval = 0;

  [[nodiscard]] bool active() const noexcept {
    return arrivals != Arrivals::kNone || lifetime != Lifetime::kNone ||
           replacement_rate > 0.0 || reannounce_interval > 0;
  }
};

namespace detail {
/// The ChurnSpec rules every consumer applies (the ChurnDriver
/// constructor, TrackerSim for its swarm_churn): rates finite and
/// >= 0 (Rng::poisson(+inf) never returns), lifetime_rounds finite and
/// > 0 when a lifetime model is on, arrival_completion in [0, 1). Each
/// check is written so that NaN fails it. Throws std::invalid_argument
/// prefixed with `where`.
void validate_churn_spec(const ChurnSpec& spec, const char* where);
}  // namespace detail

/// The paper's "x/1000" churn notation mapped to a per-round
/// replacement rate: x events per 1000 peers per round.
[[nodiscard]] inline double paper_replacement_rate(double x, std::size_t peers) {
  return x * static_cast<double>(peers) / 1000.0;
}

/// Applies a ChurnSpec to a running swarm, one round at a time.
/// Templated over the data plane (Swarm or ReferenceSwarm) so
/// differential tests replay identical schedules through both: all
/// randomness is drawn from `rng` — pass the same generator the swarm
/// was constructed with, and two planes in lockstep stay in lockstep.
template <typename SwarmT>
class ChurnDriver {
 public:
  /// `arrival_pool` provides arrival capacities (cycled); required
  /// whenever the spec can create arrivals and has no arrival_model.
  ChurnDriver(const ChurnSpec& spec, const SwarmConfig& config, std::vector<double> arrival_pool,
              graph::Rng& rng)
      : spec_(spec), config_(config), pool_(std::move(arrival_pool)), rng_(rng) {
    detail::validate_churn_spec(spec_, "ChurnDriver");
    const bool makes_arrivals =
        spec_.arrivals != ChurnSpec::Arrivals::kNone || spec_.replacement_rate > 0.0;
    if (makes_arrivals && !spec_.arrival_model.has_value() && pool_.empty()) {
      throw std::invalid_argument("ChurnDriver: arrival capacity pool required");
    }
  }

  /// Call once, right after constructing the swarm: draws lifetimes
  /// for the initial leecher population (dense-table order).
  void attach(SwarmT& swarm) {
    if (spec_.lifetime == ChurnSpec::Lifetime::kNone) return;
    for (const core::PeerId p : swarm.live_ids()) {
      if (swarm.is_leecher(p)) set_deadline(p, 0.0);
    }
  }

  /// Applies this round's churn events; call immediately before each
  /// run_round(). Event order is fixed (and therefore reproducible):
  /// lifetime departures, replacement events, arrivals, re-announce.
  /// Every scan walks the swarm's dense live table — O(live
  /// population), never O(arrivals-ever).
  void before_round(SwarmT& swarm) {
    const std::size_t r = swarm.rounds_elapsed();
    const auto now = static_cast<double>(r);
    if (spec_.lifetime != ChurnSpec::Lifetime::kNone) {
      // Snapshot: leave() compacts the live table mid-scan.
      const auto ids = swarm.live_ids();
      live_scratch_.assign(ids.begin(), ids.end());
      for (const core::PeerId p : live_scratch_) {
        if (!swarm.is_leecher(p)) continue;
        if (deadline(p) <= now) {
          swarm.leave(p);
          deadline_.erase(p);
        }
      }
      // Completion departures bypass the driver, so their deadlines
      // linger; sweep them out once the stale fraction dominates. This
      // keeps driver memory O(live) across unbounded arrivals (it used
      // to grow 8 bytes per arrival-ever) without consuming RNG.
      if (deadline_.size() > 2 * swarm.live_peer_count() + 64) {
        // strat-lint: allow(unordered-iter) -- erasure sweep: the surviving
        // map contents are independent of visit order and no RNG is drawn.
        for (auto it = deadline_.begin(); it != deadline_.end();) {
          it = swarm.departed(it->first) ? deadline_.erase(it) : std::next(it);
        }
      }
    }
    if (spec_.replacement_rate > 0.0) {
      const std::uint64_t events = rng_.poisson(spec_.replacement_rate);
      if (events > 0) {
        // One live-table scan for the whole round, maintained
        // incrementally per event (swap-remove keeps the pick uniform).
        live_scratch_.clear();
        for (const core::PeerId p : swarm.live_ids()) {
          if (swarm.is_leecher(p)) live_scratch_.push_back(p);
        }
        for (std::uint64_t e = 0; e < events; ++e) {
          if (!live_scratch_.empty()) {
            const auto j = static_cast<std::size_t>(rng_.below(live_scratch_.size()));
            swarm.leave(live_scratch_[j]);
            deadline_.erase(live_scratch_[j]);
            live_scratch_[j] = live_scratch_.back();
            live_scratch_.pop_back();
          }
          const core::PeerId fresh = join_fresh(swarm);
          // (a Bernoulli-complete arrival can depart on the spot)
          if (!swarm.departed(fresh)) live_scratch_.push_back(fresh);
        }
      }
    }
    std::size_t arriving = 0;
    if (spec_.arrivals == ChurnSpec::Arrivals::kPoisson) {
      arriving = static_cast<std::size_t>(rng_.poisson(spec_.arrival_rate));
    } else if (spec_.arrivals == ChurnSpec::Arrivals::kFlashCrowd &&
               r == spec_.flash_crowd_round) {
      arriving = spec_.flash_crowd_size;
    }
    for (std::size_t i = 0; i < arriving; ++i) join_fresh(swarm);
    if (spec_.reannounce_interval > 0 && r > 0 && r % spec_.reannounce_interval == 0) {
      // reannounce() never joins or departs anyone, so the live span
      // itself is stable here.
      for (const core::PeerId p : swarm.live_ids()) swarm.reannounce(p);
    }
  }

  /// Injected arrival: the caller supplies the capacity (e.g.
  /// TrackerSim's ecosystem-level arrival process, which samples it
  /// from a counter-based stream and may split it across swarms), and
  /// the driver contributes everything swarm-local — the
  /// arrival-completion bitfield and the lifetime bookkeeping — so
  /// injected and spec-driven arrivals share one code path. Draw order
  /// against `rng` matches join_fresh minus the capacity draw. Returns
  /// the new peer's external id. Call between rounds only.
  core::PeerId join_injected(SwarmT& swarm, double kbps) {
    const Bitfield have = spec_.arrival_completion > 0.0
                              ? Bitfield::random(config_.num_pieces, spec_.arrival_completion, rng_)
                              : Bitfield(config_.num_pieces);
    const core::PeerId p = swarm.join(kbps, have);
    set_deadline(p, static_cast<double>(swarm.rounds_elapsed()));
    return p;
  }

  /// Deadlines currently tracked — O(live) by construction (erased on
  /// driver-issued departures, swept when completion departures leave
  /// stale entries behind). Exposed for the leak-regression tests.
  [[nodiscard]] std::size_t tracked_deadlines() const noexcept { return deadline_.size(); }

  // --- checkpoint state -----------------------------------------------
  // The driver's only mutable state is the deadline map and the
  // capacity-pool cursor: everything else (spec, config, pool) is a
  // construction input the resuming caller must supply unchanged.
  // Deadlines are exported sorted by peer id so two lockstep drivers
  // serialize identically (the unordered_map's bucket order is not
  // deterministic, but no simulation decision ever iterates it).

  /// Deadline entries sorted ascending by external peer id.
  [[nodiscard]] std::vector<std::pair<core::PeerId, double>> deadline_snapshot() const {
    // strat-lint: allow(unordered-iter) -- copied then sorted below; the
    // bucket order never reaches the serialized bytes.
    std::vector<std::pair<core::PeerId, double>> out(deadline_.begin(), deadline_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Arrivals served from the cycled capacity pool so far.
  [[nodiscard]] std::size_t capacity_cursor() const noexcept { return next_capacity_; }

  /// Restores the state exported by deadline_snapshot()/
  /// capacity_cursor(). The driver must have been constructed with the
  /// same spec, config and pool as the one that was checkpointed —
  /// those are inputs, not state — or the continued run diverges.
  void restore(std::span<const std::pair<core::PeerId, double>> deadlines,
               std::size_t capacity_cursor) {
    deadline_.clear();
    deadline_.reserve(deadlines.size());
    for (const auto& [p, d] : deadlines) deadline_.emplace(p, d);
    next_capacity_ = capacity_cursor;
  }

 private:
  // Spec-driven arrival: sample the capacity (model draw or pool
  // cycle), then hand off to the shared injected-arrival path. The
  // `now` deadlines join_injected stamps equal the `now` callers used
  // to pass — rounds_elapsed() is constant across a before_round().
  core::PeerId join_fresh(SwarmT& swarm) {
    const double kbps = spec_.arrival_model.has_value() ? spec_.arrival_model->sample(rng_)
                                                        : pool_[next_capacity_++ % pool_.size()];
    return join_injected(swarm, kbps);
  }

  void set_deadline(core::PeerId p, double now) {
    if (spec_.lifetime == ChurnSpec::Lifetime::kNone) return;
    const double life = spec_.lifetime == ChurnSpec::Lifetime::kFixed
                            ? spec_.lifetime_rounds
                            : rng_.exponential(spec_.lifetime_rounds);
    deadline_[p] = now + life;
  }

  [[nodiscard]] double deadline(core::PeerId p) const {
    const auto it = deadline_.find(p);
    return it == deadline_.end() ? std::numeric_limits<double>::infinity() : it->second;
  }

  // strat-lint: not-serialized -- construction input; the resuming caller
  // rebuilds the driver with the same spec (see restore()).
  ChurnSpec spec_;
  // strat-lint: not-serialized -- construction input, equal to the swarm's
  SwarmConfig config_;
  // strat-lint: not-serialized -- construction input (arrival capacity pool)
  std::vector<double> pool_;
  // strat-lint: not-serialized -- the swarm's structural generator; its
  // words travel in the swarm snapshot, never in the companion section.
  graph::Rng& rng_;
  // Departure deadlines of live leechers, keyed by external id
  // (populated only when a lifetime model is active). Entries are
  // erased when the driver departs a peer and swept when completion
  // departures strand them, so the map stays O(live) — external ids
  // grow forever, a vector indexed by them would too.
  // strat-lint: serialized-via(deadline_snapshot, restore)
  std::unordered_map<core::PeerId, double> deadline_;
  // Live-id snapshot scratch, O(live), reused across rounds.
  // strat-lint: not-serialized -- scratch, reassigned before every use
  std::vector<core::PeerId> live_scratch_;
  // strat-lint: serialized-via(capacity_cursor, restore)
  std::size_t next_capacity_ = 0;
};

/// One parameterized swarm experiment.
struct SwarmScenario {
  SwarmConfig config;
  /// One capacity per initial leecher (config.num_peers entries).
  std::vector<double> upload_kbps;
  /// Rounds run before the stratification window opens (TFT lock-in).
  std::size_t warmup_rounds = 20;
  /// Rounds measured after the warm-up.
  std::size_t measure_rounds = 40;
  /// Churn schedule applied across both phases (inert by default).
  ChurnSpec churn;
};

/// Aggregates of one seeded scenario run. Leecher aggregates cover
/// every leecher that ever joined (initial population + arrivals).
struct ScenarioResult {
  std::uint64_t seed = 0;
  std::size_t completed_leechers = 0;
  /// Mean completion round over completed leechers (0 when none).
  double mean_completion_round = 0.0;
  /// Mean leech-phase download rate over all leechers (kbps).
  double mean_leech_kbps = 0.0;
  /// Mean leech-phase rate of the fastest / slowest 10% by capacity.
  double top_decile_kbps = 0.0;
  double bottom_decile_kbps = 0.0;
  StratificationReport strat;
  double availability_cv = 0.0;
  double total_uploaded_kb = 0.0;
  double total_downloaded_kb = 0.0;
  /// Churn accounting: join() arrivals, departures (voluntary and
  /// completion-driven), and peers still present at the end.
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t live_peers = 0;
  /// Fault-injection totals (all zero with faults disabled): announces
  /// lost to tracker outages, backoff retries, connects abandoned
  /// after the attempt budget, inbound connects refused by NAT-ed
  /// peers, transfer lanes whose bytes were dropped.
  std::uint64_t fault_failed_announces = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_connect_failures = 0;
  std::uint64_t fault_nat_rejections = 0;
  std::uint64_t fault_lost_lanes = 0;
};

/// Runs one scenario with the given seed (warm-up, reset, measure),
/// churn schedule included.
[[nodiscard]] ScenarioResult run_scenario(const SwarmScenario& scenario, std::uint64_t seed);

/// Runs one replication per (grid point, seed) pair: each pair is one
/// task, and up to `threads` workers claim them on demand in
/// point-major order. results[p][i] is run_scenario(grid[p], seeds[i]),
/// independent of `threads`; an empty `seeds` gives one empty vector
/// per point.
[[nodiscard]] std::vector<std::vector<ScenarioResult>> run_replications(
    std::span<const SwarmScenario> grid, std::span<const std::uint64_t> seeds,
    std::size_t threads = 1);

/// The one-point grid: results are indexed like `seeds`.
[[nodiscard]] std::vector<ScenarioResult> run_replications(const SwarmScenario& scenario,
                                                           std::span<const std::uint64_t> seeds,
                                                           std::size_t threads = 1);

/// Heterogeneous-slot helper: maps capacities to per-peer TFT slot
/// counts in [lo, hi], linear in log-capacity (fastest peer gets hi).
/// Requires lo >= 1, lo <= hi, and finite positive capacities
/// (detail::require_capacity).
[[nodiscard]] std::vector<std::size_t> capacity_scaled_slots(const std::vector<double>& upload_kbps,
                                                             std::size_t lo, std::size_t hi);

/// Peers spread across `num_swarms` overlapping swarms.
struct MultiSwarmSpec {
  std::size_t num_swarms = 2;
  std::size_t peers_per_swarm = 80;
  /// Fraction of each swarm's leechers shared with the next swarm
  /// (in [0, 1); consecutive swarms overlap on that many peers).
  double overlap_fraction = 0.2;
  /// Per-swarm config; num_peers is overridden with peers_per_swarm.
  SwarmConfig config;
  /// One capacity per *distinct* peer (distinct_peer_count entries).
  std::vector<double> upload_kbps;
  std::size_t warmup_rounds = 20;
  std::size_t measure_rounds = 40;
};

/// Number of distinct peers implied by the overlap layout.
[[nodiscard]] std::size_t distinct_peer_count(const MultiSwarmSpec& spec);

/// Multi-swarm aggregates: per-swarm results plus the single- vs
/// multi-homed comparison. Rates are *per swarm membership* (a peer in
/// two swarms contributes the average of its two in-swarm rates), so a
/// ratio below 1 is the stratification penalty of divided capacity —
/// each swarm downloads distinct content, so summing would compare
/// different workloads.
struct MultiSwarmResult {
  std::vector<ScenarioResult> per_swarm;
  std::size_t single_home_peers = 0;
  std::size_t multi_home_peers = 0;
  double mean_single_home_kbps = 0.0;  // mean in-swarm leech rate, 1 swarm
  double mean_multi_home_kbps = 0.0;   // mean in-swarm leech rate, 2+ swarms
};

/// Runs every member swarm. A thin shim over TrackerSim
/// (tracker_sim.hpp) since the tracker layer landed: `threads` maps to
/// TrackerConfig::shards (0 = one per hardware thread). The tracker
/// barrier re-splits a multi-homed peer's capacity as its memberships
/// depart: with config.stay_as_seed on (the default) nobody departs and
/// the construction-time split holds, while with stay_as_seed = false
/// each time a multi-homed peer completes in one swarm and leaves it,
/// its remaining memberships split its whole capacity anew.
/// Deterministic at any thread count, bitwise.
[[nodiscard]] MultiSwarmResult run_multi_swarm(const MultiSwarmSpec& spec, std::uint64_t seed,
                                               std::size_t threads = 1);

}  // namespace strat::bt
