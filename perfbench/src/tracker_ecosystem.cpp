// tracker_ecosystem: 300 churned member swarms under one tracker with
// TrackerConfig::shards = 2. The serial tracker barrier and the
// round-robin shard imbalance do their work here, over many small
// cache-resident swarms with intra-swarm fan-out off; the checkpoint is
// ~300 small sections through the ostream path, not one big buffer.
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/tracker_sim.hpp"
#include "graph/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSwarms = 300;
constexpr std::size_t kShards = 2;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupRounds = 40;
constexpr std::size_t kWindowRounds = 10;
constexpr std::size_t kMinWindows = 5;
constexpr std::size_t kCheckpointsPerWindow = 2;

// Zipf initial sizes: floor(3000 / (k + 1)), at least 8.
std::size_t swarm_size(std::size_t k) { return std::max<std::size_t>(8, 3000 / (k + 1)); }

bt::TrackerConfig tracker_config() {
  bt::TrackerConfig cfg;
  cfg.shards = kShards;
  cfg.arrival_rate = 500.0;
  cfg.zipf_exponent = 1.0;
  cfg.multi_torrent_fraction = 0.3;
  cfg.arrival_model = bt::BandwidthModel::saroiu2002();
  cfg.swarm_churn.lifetime = bt::ChurnSpec::Lifetime::kExponential;
  cfg.swarm_churn.lifetime_rounds = 40.0;
  cfg.swarm_churn.reannounce_interval = 10;
  return cfg;
}

// Disjoint member lists over global ids [0, total); capacities are the
// representative sample shuffled by the seed, so every swarm draws
// from the whole distribution.
std::vector<bt::TrackerSwarmSeed> member_swarms() {
  std::vector<bt::TrackerSwarmSeed> seeds(kSwarms);
  bt::GlobalPeerId next = 0;
  for (std::size_t k = 0; k < kSwarms; ++k) {
    const std::size_t n = swarm_size(k);
    bt::SwarmConfig& c = seeds[k].config;
    c.seeds = 1;
    c.num_pieces = 256;
    c.piece_kb = 256.0;
    c.neighbor_degree = std::min(20.0, static_cast<double>(n));
    c.stay_as_seed = false;
    seeds[k].members.resize(n);
    for (std::size_t j = 0; j < n; ++j) seeds[k].members[j] = next++;
  }
  return seeds;
}

std::size_t total_members() {
  std::size_t total = 0;
  for (std::size_t k = 0; k < kSwarms; ++k) total += swarm_size(k);
  return total;
}

double phase_seconds(const bt::Swarm::PhaseProfile& p) {
  return p.choke_seconds + p.endgame_seconds + p.mutual_seconds + p.transfer_seconds +
         p.fold_seconds + p.fault_seconds;
}

std::size_t arrivals(const bt::TrackerSim& t) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < t.swarm_count(); ++k) n += t.swarm(k).arrivals();
  return n;
}

std::size_t departures(const bt::TrackerSim& t) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < t.swarm_count(); ++k) n += t.swarm(k).departures();
  return n;
}

void save_tracker(const bt::TrackerSim& t, std::string& bytes) {
  std::ostringstream out;
  t.save(out);
  bytes = std::move(out).str();
}

bt::TrackerSim resume_tracker(std::string&& bytes) {
  std::istringstream in(std::move(bytes));
  return bt::TrackerSim::resume(in, tracker_config());
}

}  // namespace

void run_tracker_ecosystem(Run& run) {
  const Options& opts = run.options();
  Tracer& tracer = run.tracer();
  const std::size_t members = total_members();

  // Set-up: capacity sampling plus construction, repeated between the
  // windows so that one slow spell of the host does not hit every one.
  Samples setup_s;
  std::optional<bt::TrackerSim> tracker;
  const auto set_up = [&](std::size_t i) {
    const bool traced = run.begin_rep(i);
    const auto t0 = Clock::now();
    const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
    std::vector<double> capacities;
    {
      const Tracer::Span span(tracer, "BandwidthModel::representative_sample", "bandwidth");
      capacities = model.representative_sample(members);
    }
    strat::graph::Rng shuffle_rng(opts.seed ^ 0x5EED5EED5EED5EEDULL);
    shuffle_rng.shuffle(capacities);
    {
      const Tracer::Span span(tracer, "TrackerSim::TrackerSim", "tracker");
      tracker.emplace(tracker_config(), member_swarms(), capacities, opts.seed);
    }
    setup_s.add(traced, seconds_since(t0));
  };
  const auto release_tracker = [&] {
    tracker.reset();
    release_free_memory();
  };

  // Warm up until the population is steady, snapshot, release.
  set_up(0);
  tracer.set_enabled(opts.trace);
  {
    const Tracer::Span span(tracer, "TrackerSim::run (warm-up)", "tracker");
    tracker->run(kWarmupRounds);
  }
  std::string base;
  save_tracker(*tracker, base);
  release_tracker();

  Samples peer_rounds_per_s;
  PhaseTotals phases;
  std::vector<double> round_ms;
  std::vector<double> live_memberships;
  double barrier_s = 0.0;
  double shard_s = 0.0;
  double imbalance_s = 0.0;
  double member_work_s = 0.0;
  double window_arrivals = 0.0;
  double window_departures = 0.0;
  std::uint64_t end_digest = 0;
  Checkpoints checkpoints;
  const std::size_t setups = run.min_reps(kSetups, 2);
  const std::size_t min_windows = run.min_reps(kMinWindows, 2);
  std::size_t setups_done = 1;
  double window_time = 0.0;
  for (std::size_t w = 0; w < min_windows || window_time < opts.seconds || setups_done < setups;
       ++w) {
    if (w > 0 && setups_done < setups) {
      release_tracker();
      set_up(setups_done++);
    }
    const bool traced = run.begin_rep(w);
    const auto window_start = Clock::now();
    run.attempt("window " + std::to_string(w) + " ends on the reference digest", [&] {
      release_tracker();
      {
        const Tracer::Span span(tracer, "TrackerSim::resume", "snapshot");
        std::istringstream in(base);
        tracker.emplace(bt::TrackerSim::resume(in, tracker_config()));
      }
      const std::size_t arrivals0 = arrivals(*tracker);
      const std::size_t departures0 = departures(*tracker);
      double wall = 0.0;
      double peer_rounds = 0.0;
      const double cpu0 = cpu_seconds();
      for (std::size_t r = 0; r < kWindowRounds; ++r) {
        const std::size_t live = tracker->live_membership_count();
        peer_rounds += static_cast<double>(live);
        const double work0 = traced ? phase_seconds(tracker->ecosystem_profile().swarms) : 0.0;
        const auto t0 = Clock::now();
        {
          const Tracer::Span span(tracer, "TrackerSim::run_round", "tracker");
          tracker->run_round();
        }
        const double dt = seconds_since(t0);
        wall += dt;
        if (traced) {
          round_ms.push_back(dt * 1e3);
          live_memberships.push_back(static_cast<double>(live));
          phases.round_ms.push_back(
              (phase_seconds(tracker->ecosystem_profile().swarms) - work0) * 1e3);
        }
      }
      const double cpu = cpu_seconds() - cpu0;
      peer_rounds_per_s.add(traced, peer_rounds / wall);
      if (traced) {
        // A resumed tracker restarts its profile, so this is the window's.
        const bt::EcosystemProfile prof = tracker->ecosystem_profile();
        phases.add(prof.swarms, kWindowRounds);
        phases.cpu_s += cpu;
        phases.wall_s += wall;
        barrier_s += prof.barrier_seconds;
        shard_s += prof.shard_seconds;
        imbalance_s += prof.shard_imbalance_seconds;
        member_work_s += phase_seconds(prof.swarms);
        window_arrivals = static_cast<double>(arrivals(*tracker) - arrivals0);
        window_departures = static_cast<double>(departures(*tracker) - departures0);
      }
      std::string bytes;
      save_tracker(*tracker, bytes);
      end_digest = digest_of(bytes);
      return run.digest_ok(end_digest);
    });
    window_time += seconds_since(window_start);
    checkpoint_chain(run, tracker, end_digest, kCheckpointsPerWindow, checkpoints, save_tracker,
                     resume_tracker);
  }

  tracker.reset();

  run.end_to_end("setup_s", setup_s);
  run.end_to_end("peer_rounds_per_s", peer_rounds_per_s);
  run.end_to_end("checkpoint_ms", checkpoints.total_ms);
  if (!opts.trace) return;

  const std::vector<double> sample_ms = tracer.durations_ms("BandwidthModel::representative_sample");
  run.layer("bandwidth.sample_ms", median(sample_ms));
  run.layer("bandwidth.us_per_quantile", median(sample_ms) * 1e3 / static_cast<double>(members));
  phases.report(run);
  checkpoints.report(run);
  run.layer("churn.arrivals", window_arrivals);
  run.layer("churn.departures", window_departures);
  const Tail t = tail(round_ms);
  run.layer("tracker.construct_ms", median(tracer.durations_ms("TrackerSim::TrackerSim")));
  run.layer("tracker.round_ms_p50", median(round_ms));
  run.layer("tracker.round_ms_tail", t.value);
  run.note("tracker.round_ms_tail is " + describe(t));
  const auto rounds = static_cast<double>(round_ms.size());
  run.layer("tracker.barrier_ms", barrier_s * 1e3 / rounds);
  run.layer("tracker.shard_ms", shard_s * 1e3 / rounds);
  run.layer("tracker.imbalance_ms", imbalance_s * 1e3 / rounds);
  run.layer("tracker.shard_efficiency",
            shard_s > 0.0 ? member_work_s / (static_cast<double>(kShards) * shard_s) : 0.0);
  run.layer("tracker.live_memberships", mean(live_memberships));
}

}  // namespace perfbench
