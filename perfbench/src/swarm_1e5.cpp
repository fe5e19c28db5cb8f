// swarm_1e5: one closed swarm of 10^5 leechers plus 1 seed at
// SwarmConfig::threads = 2 -- the ROADMAP scale point. The intra-round
// fan-out (choke, transfer compute, fold) and the serial commit do the
// work over an edge-slot pool far larger than the last-level cache, and
// the 10^5-peer snapshot prices checkpoints. Churn, faults and the
// tracker stay idle.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "graph/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPeers = 100000;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupRounds = 2;
constexpr std::size_t kWindowRounds = 3;
constexpr std::size_t kMinWindows = 5;
constexpr std::size_t kCheckpointsPerWindow = 1;

bt::SwarmConfig swarm_config(std::size_t threads) {
  bt::SwarmConfig c;
  c.num_peers = kPeers;
  c.seeds = 1;
  c.num_pieces = 1024;
  c.piece_kb = 1024.0;
  c.neighbor_degree = 30.0;
  c.initial_completion = 0.5;
  c.threads = threads;
  return c;
}

}  // namespace

void run_swarm_1e5(Run& run) {
  const Options& opts = run.options();
  Tracer& tracer = run.tracer();

  // Set-up: capacity sampling plus construction. Rows come out
  // best-first, as every swarm driver builds them. The repetitions are
  // spread between the windows, so one slow spell of the host does not
  // hit all of them.
  Samples setup_s;
  std::unique_ptr<strat::graph::Rng> rng;
  std::optional<bt::Swarm> swarm;
  const auto set_up = [&](std::size_t i) {
    const bool traced = run.begin_rep(i);
    const auto t0 = Clock::now();
    const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
    std::vector<double> capacities;
    {
      const Tracer::Span span(tracer, "BandwidthModel::representative_sample", "bandwidth");
      capacities = model.representative_sample(kPeers);
    }
    rng = std::make_unique<strat::graph::Rng>(opts.seed);
    {
      const Tracer::Span span(tracer, "Swarm::Swarm", "swarm.construct");
      swarm.emplace(swarm_config(kThreads), std::move(capacities), *rng);
    }
    setup_s.add(traced, seconds_since(t0));
  };
  const auto release_swarm = [&] {
    swarm.reset();
    rng.reset();
    release_free_memory();
  };

  // Warm-up, then every window resumes from the same snapshot so that
  // windows do identical work. The warm-up swarm is released first, so
  // the windows hold one live simulation plus this snapshot.
  set_up(0);
  tracer.set_enabled(opts.trace);
  {
    const Tracer::Span span(tracer, "Swarm::run (warm-up)", "swarm.round");
    swarm->run(kWarmupRounds);
  }
  std::string base;
  swarm->save(base);
  release_swarm();

  Samples peer_rounds_per_s;
  PhaseTotals phases;
  std::vector<double> window_s;
  std::optional<bt::ResumedSwarm> live;
  std::uint64_t end_digest = 0;
  Checkpoints checkpoints;
  const std::size_t setups = run.min_reps(kSetups, 1);
  const std::size_t min_windows = run.min_reps(kMinWindows, 2);
  std::size_t setups_done = 1;
  double window_time = 0.0;
  for (std::size_t w = 0; w < min_windows || window_time < opts.seconds || setups_done < setups;
       ++w) {
    if (w > 0 && setups_done < setups) {
      live.reset();
      release_free_memory();
      set_up(setups_done++);
      release_swarm();
    }
    const bool traced = run.begin_rep(w);
    const auto window_start = Clock::now();
    run.attempt("window " + std::to_string(w) + " ends on the reference digest", [&] {
      live.reset();
      release_free_memory();
      {
        const Tracer::Span span(tracer, "resume_from_string", "snapshot");
        live.emplace(bt::resume_from_string(base));
      }
      bt::Swarm& sw = live->swarm();
      double wall = 0.0;
      double peer_rounds = 0.0;
      std::vector<double> round_ms;
      const double cpu0 = cpu_seconds();
      for (std::size_t r = 0; r < kWindowRounds; ++r) {
        peer_rounds += static_cast<double>(sw.live_peer_count());
        const auto t0 = Clock::now();
        {
          const Tracer::Span span(tracer, "Swarm::run_round", "swarm.round");
          sw.run_round();
        }
        const double dt = seconds_since(t0);
        wall += dt;
        round_ms.push_back(dt * 1e3);
      }
      const double cpu = cpu_seconds() - cpu0;
      peer_rounds_per_s.add(traced, peer_rounds / wall);
      window_s.push_back(wall);
      if (traced) {
        phases.add(sw.phase_profile(), kWindowRounds);  // resume restarts the profile
        phases.round_ms.insert(phases.round_ms.end(), round_ms.begin(), round_ms.end());
        phases.cpu_s += cpu;
        phases.wall_s += wall;
      }
      std::string bytes;
      sw.save(bytes);
      end_digest = digest_of(bytes);
      return run.digest_ok(end_digest);
    });
    window_time += seconds_since(window_start);
    checkpoint_chain(run, live, end_digest, kCheckpointsPerWindow, checkpoints, save_swarm,
                     resume_swarm);
  }

  live.reset();

  // One extra window at 1 thread: the fan-out speed-up, and proof that
  // the thread count leaves the result bitwise unchanged.
  if (opts.trace) {
    tracer.set_enabled(true);
    run.attempt("1-thread window ends on the 2-thread digest", [&] {
      std::optional<bt::ResumedSwarm> one;
      one.emplace(bt::resume_from_string(base, swarm_config(1)));
      double wall = 0.0;
      for (std::size_t r = 0; r < kWindowRounds; ++r) {
        const auto t0 = Clock::now();
        {
          const Tracer::Span span(tracer, "Swarm::run_round (1 thread)", "swarm.round");
          one->swarm().run_round();
        }
        wall += seconds_since(t0);
      }
      run.layer("swarm.speedup_2v1", wall / median(window_s));
      // The snapshot records the thread count, so compare at 2 threads.
      std::string bytes;
      one->swarm().save(bytes);
      one.reset();
      const bt::ResumedSwarm again = bt::resume_from_string(bytes, swarm_config(kThreads));
      bytes.clear();
      again.swarm().save(bytes);
      const std::uint64_t d = digest_of(bytes);
      run.note("digest after the 1-thread window " + hex(d) + ", after the 2-thread windows " +
               hex(end_digest));
      return d == end_digest;
    });
  }

  run.end_to_end("setup_s", setup_s);
  run.end_to_end("peer_rounds_per_s", peer_rounds_per_s);
  run.end_to_end("checkpoint_ms", checkpoints.total_ms);
  if (!opts.trace) return;

  const std::vector<double> sample_ms = tracer.durations_ms("BandwidthModel::representative_sample");
  run.layer("bandwidth.sample_ms", median(sample_ms));
  run.layer("bandwidth.us_per_quantile", median(sample_ms) * 1e3 / static_cast<double>(kPeers));
  run.layer("swarm.construct_ms", median(tracer.durations_ms("Swarm::Swarm")));
  phases.report(run);
  checkpoints.report(run);
}

}  // namespace perfbench
