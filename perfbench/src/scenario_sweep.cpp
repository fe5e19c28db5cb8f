// scenario_sweep: the traffic of the swarm_churn and swarm_faults
// drivers -- churned, faulted 1000-peer scenarios replicated through
// run_replications at 2 threads. Each swarm fits in cache and runs on
// one thread, so intra-round fan-out is bypassed; construction, churn,
// faults and result summaries run on every replication.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "graph/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPeers = 1000;
constexpr std::size_t kSeedsPerPoint = 4;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kWarmupRounds = 15;
constexpr std::size_t kMeasureRounds = 30;
constexpr std::size_t kSetups = 9;
constexpr std::size_t kSetupBatch = 3;
constexpr std::size_t kMinSweeps = 3;
constexpr std::size_t kCheckpointsPerSweep = 7;

struct Grid {
  std::vector<bt::SwarmScenario> points;
  std::vector<std::vector<std::uint64_t>> seeds;
};

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t point, std::uint64_t rep) {
  return mix64(seed * 0x9E3779B97F4A7C15ULL + point * 0x100000001B3ULL + rep + 1);
}

// Replacement churn x in {5, 20} events per 1000 peers per round,
// crossed with: no faults; tracker outages plus lane loss; flaky
// connects plus NAT-ed peers -- the swarm_churn/swarm_faults shapes.
Grid build_grid(std::uint64_t seed, std::vector<double> capacities) {
  bt::SwarmScenario base;
  base.config.num_peers = kPeers;
  base.config.seeds = 1;
  base.config.num_pieces = 1024;
  base.config.piece_kb = 1024.0;
  base.config.neighbor_degree = 25.0;
  base.config.initial_completion = 0.5;
  base.upload_kbps = std::move(capacities);
  base.warmup_rounds = kWarmupRounds;
  base.measure_rounds = kMeasureRounds;
  base.churn.arrival_completion = 0.5;
  base.churn.reannounce_interval = 10;

  Grid grid;
  for (const double x : {5.0, 20.0}) {
    for (int faults = 0; faults < 3; ++faults) {
      bt::SwarmScenario s = base;
      s.churn.replacement_rate = bt::paper_replacement_rate(x, kPeers);
      if (faults == 1) {
        s.config.faults.outage_period = 10;
        s.config.faults.outage_duration = 4;
        s.config.faults.lane_loss_prob = 0.02;
      } else if (faults == 2) {
        s.config.faults.connect_failure_prob = 0.2;
        s.config.faults.nat_fraction = 0.25;
      }
      const std::uint64_t point = grid.points.size();
      std::vector<std::uint64_t> seeds(kSeedsPerPoint);
      for (std::size_t i = 0; i < kSeedsPerPoint; ++i) seeds[i] = split_seed(seed, point, i);
      grid.points.push_back(std::move(s));
      grid.seeds.push_back(std::move(seeds));
    }
  }
  return grid;
}

// ScenarioResult of one swarm, from its public accessors, in the order
// run_scenario accumulates them (so the fields match bit for bit).
bt::ScenarioResult summarize(const bt::Swarm& swarm, std::uint64_t seed) {
  bt::ScenarioResult out;
  out.seed = seed;
  out.completed_leechers = swarm.completed_leechers();
  const bt::FaultState& faults = swarm.fault_state();
  out.fault_failed_announces = faults.failed_announces_;
  out.fault_retries = faults.announce_retries_;
  out.fault_connect_failures = faults.connect_failures_;
  out.fault_nat_rejections = faults.nat_rejections_;
  out.fault_lost_lanes = faults.lost_lanes_;

  std::vector<strat::core::PeerId> leechers;
  for (strat::core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (swarm.is_leecher(p)) leechers.push_back(p);
  }
  double completion_sum = 0.0;
  std::size_t completion_count = 0;
  double rate_sum = 0.0;
  std::vector<double> rates(leechers.size(), 0.0);
  for (std::size_t i = 0; i < leechers.size(); ++i) {
    rates[i] = swarm.leech_download_kbps(leechers[i]);
    rate_sum += rates[i];
    const double done = swarm.stats(leechers[i]).completion_round;
    if (done >= 0.0) {
      completion_sum += done;
      ++completion_count;
    }
  }
  out.mean_completion_round =
      completion_count == 0 ? 0.0 : completion_sum / static_cast<double>(completion_count);
  out.mean_leech_kbps = leechers.empty() ? 0.0 : rate_sum / static_cast<double>(leechers.size());
  if (!leechers.empty()) {
    std::vector<std::size_t> order(leechers.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double ca = swarm.stats(leechers[a]).upload_kbps;
      const double cb = swarm.stats(leechers[b]).upload_kbps;
      if (ca != cb) return ca > cb;
      return leechers[a] < leechers[b];
    });
    const std::size_t decile = std::max<std::size_t>(1, leechers.size() / 10);
    double top = 0.0;
    double bottom = 0.0;
    for (std::size_t i = 0; i < decile; ++i) {
      top += rates[order[i]];
      bottom += rates[order[leechers.size() - 1 - i]];
    }
    out.top_decile_kbps = top / static_cast<double>(decile);
    out.bottom_decile_kbps = bottom / static_cast<double>(decile);
  }
  out.strat = swarm.stratification();
  out.availability_cv = swarm.availability_stats().coefficient_of_variation;
  for (strat::core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    out.total_uploaded_kb += swarm.stats(p).uploaded_kb;
    out.total_downloaded_kb += swarm.stats(p).downloaded_kb;
  }
  out.arrivals = swarm.arrivals();
  out.departures = swarm.departures();
  out.live_peers = swarm.live_peer_count();
  return out;
}

std::uint64_t result_digest(const bt::ScenarioResult& r) {
  Digest d;
  digest_result(d, r);
  return d.value();
}

// One replication replayed serially through the public calls
// run_scenario makes, each under its own span.
struct Replay {
  std::unique_ptr<strat::graph::Rng> rng;  // the swarm holds a reference
  std::optional<bt::Swarm> swarm;
  bt::ScenarioResult result;
  double wall_s = 0.0;
};

Replay replay(const bt::SwarmScenario& sc, std::uint64_t seed, Tracer& tracer) {
  if (!sc.churn.active()) throw std::logic_error("scenario_sweep: every grid point churns");
  Replay out;
  const auto t0 = Clock::now();
  out.rng = std::make_unique<strat::graph::Rng>(seed);
  {
    const Tracer::Span span(tracer, "Swarm::Swarm", "swarm.construct");
    out.swarm.emplace(sc.config, sc.upload_kbps, *out.rng);
  }
  bt::Swarm& swarm = *out.swarm;
  std::vector<double> pool =
      sc.churn.arrival_upload_kbps.empty() ? sc.upload_kbps : sc.churn.arrival_upload_kbps;
  bt::ChurnDriver<bt::Swarm> driver(sc.churn, sc.config, std::move(pool), *out.rng);
  {
    const Tracer::Span span(tracer, "ChurnDriver::attach", "churn");
    driver.attach(swarm);
  }
  const auto round = [&] {
    {
      const Tracer::Span span(tracer, "ChurnDriver::before_round", "churn");
      driver.before_round(swarm);
    }
    const Tracer::Span span(tracer, "Swarm::run_round", "swarm.round");
    swarm.run_round();
  };
  for (std::size_t r = 0; r < sc.warmup_rounds; ++r) round();
  {
    const Tracer::Span span(tracer, "Swarm::reset_stratification", "swarm.round");
    swarm.reset_stratification();
  }
  for (std::size_t r = 0; r < sc.measure_rounds; ++r) round();
  {
    const Tracer::Span span(tracer, "summarize", "scenario");
    out.result = summarize(swarm, seed);
  }
  out.wall_s = seconds_since(t0);
  return out;
}

}  // namespace

void run_scenario_sweep(Run& run) {
  const Options& opts = run.options();
  Tracer& tracer = run.tracer();

  // Set-up: the capacity sample and the scenario grid, in batches of
  // three spread between the sweeps, so that one slow spell of the
  // host does not hit every repetition of this short step.
  Samples setup_s;
  PhaseTotals phases;
  Grid grid;
  std::size_t setups_done = 0;
  const auto set_up_batch = [&] {
    for (std::size_t k = 0; k < kSetupBatch; ++k) {
      const bool traced = run.begin_rep(setups_done++);
      const auto t0 = Clock::now();
      const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
      std::vector<double> capacities;
      {
        const Tracer::Span span(tracer, "BandwidthModel::representative_sample", "bandwidth");
        capacities = model.representative_sample(kPeers);
      }
      grid = build_grid(opts.seed, std::move(capacities));
      setup_s.add(traced, seconds_since(t0));
    }
  };
  set_up_batch();

  // The first seed of grid point 0, replayed serially: its end state is
  // what the checkpoints save and resume, a few after every sweep.
  tracer.set_enabled(opts.trace);
  std::optional<bt::ResumedSwarm> live;
  std::uint64_t end_digest = 0;
  std::vector<double> replication_ms;
  std::vector<bt::ScenarioResult> replayed(grid.points.size());
  run.attempt("replay of grid point 0", [&] {
    Replay rp = replay(grid.points[0], grid.seeds[0][0], tracer);
    replication_ms.push_back(rp.wall_s * 1e3);
    phases.add(rp.swarm->phase_profile(), kWarmupRounds + kMeasureRounds);
    replayed[0] = rp.result;
    std::string bytes;
    rp.swarm->save(bytes);
    end_digest = digest_of(bytes);
    rp.swarm.reset();
    live.emplace(bt::resume_from_string(bytes));
    return true;
  });
  Checkpoints checkpoints;

  // Timed sweeps: 6 grid points x 4 seeds. The population is constant
  // (each churn event replaces one peer), so a sweep is a fixed number
  // of peer-rounds, checked against every result's live count.
  const std::size_t live_peers = kPeers + 1;
  const std::size_t replications = grid.points.size() * kSeedsPerPoint;
  const double sweep_peer_rounds = static_cast<double>(live_peers) *
                                   static_cast<double>(kWarmupRounds + kMeasureRounds) *
                                   static_cast<double>(replications);
  Samples peer_rounds_per_s;
  std::vector<std::uint64_t> first_digests;
  std::vector<std::vector<bt::ScenarioResult>> results;
  std::optional<std::vector<std::vector<bt::ScenarioResult>>> traced_results;
  const std::size_t min_sweeps = run.min_reps(kMinSweeps, 2);
  double sweep_time = 0.0;
  for (std::size_t s = 0; s < min_sweeps || sweep_time < opts.seconds; ++s) {
    if (s > 0 && setups_done < kSetups) set_up_batch();
    const bool traced = run.begin_rep(s);
    const auto sweep_start = Clock::now();
    try {
      results.assign(grid.points.size(), {});
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      for (std::size_t g = 0; g < grid.points.size(); ++g) {
        const Tracer::Span span(tracer, "run_replications", "scenario");
        results[g] = bt::run_replications(grid.points[g], grid.seeds[g], kThreads);
      }
      const double wall = seconds_since(t0);
      peer_rounds_per_s.add(traced, sweep_peer_rounds / wall);
      if (traced) {
        phases.cpu_s += cpu_seconds() - cpu0;
        phases.wall_s += wall;
        if (!traced_results) traced_results = results;
      }
      Digest sweep;
      std::vector<std::uint64_t> digests;
      std::size_t failed = 0;
      for (const auto& point : results) {
        for (const bt::ScenarioResult& r : point) {
          digest_result(sweep, r);
          digests.push_back(result_digest(r));
          const std::size_t i = digests.size() - 1;
          const bool differs = !first_digests.empty() && digests[i] != first_digests[i];
          if (differs || r.live_peers != live_peers) ++failed;
        }
      }
      if (first_digests.empty()) first_digests = digests;
      if (!run.digest_ok(sweep.value()) && failed == 0) failed = replications;
      run.count(replications, failed, "replications off the reference digest");
    } catch (const std::exception& e) {
      run.count(replications, replications, std::string("replications: ") + e.what());
    }
    sweep_time += seconds_since(sweep_start);
    checkpoint_chain(run, live, end_digest, kCheckpointsPerSweep, checkpoints, save_swarm,
                     resume_swarm);
  }
  live.reset();

  // Each replay must equal its replication; a traced run replays the
  // first seed of every grid point.
  tracer.set_enabled(opts.trace);
  for (std::size_t g = 0; g < (opts.trace ? grid.points.size() : 1); ++g) {
    run.attempt("replay of grid point " + std::to_string(g) + " equals its replication", [&] {
      if (g > 0) {
        const Replay rp = replay(grid.points[g], grid.seeds[g][0], tracer);
        replication_ms.push_back(rp.wall_s * 1e3);
        phases.add(rp.swarm->phase_profile(), kWarmupRounds + kMeasureRounds);
        replayed[g] = rp.result;
      }
      return result_digest(replayed[g]) == first_digests.at(g * kSeedsPerPoint);
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
  phases.round_ms = tracer.durations_ms("Swarm::run_round");
  phases.report(run);
  if (traced_results) {
    double failed_announces = 0.0;
    double retries = 0.0;
    double connect_failures = 0.0;
    double nat_rejections = 0.0;
    double lost_lanes = 0.0;
    double arrivals = 0.0;
    double departures = 0.0;
    for (const auto& point : *traced_results) {
      for (const bt::ScenarioResult& r : point) {
        failed_announces += static_cast<double>(r.fault_failed_announces);
        retries += static_cast<double>(r.fault_retries);
        connect_failures += static_cast<double>(r.fault_connect_failures);
        nat_rejections += static_cast<double>(r.fault_nat_rejections);
        lost_lanes += static_cast<double>(r.fault_lost_lanes);
        arrivals += static_cast<double>(r.arrivals);
        departures += static_cast<double>(r.departures);
      }
    }
    run.layer("faults.failed_announces", failed_announces);
    run.layer("faults.retries", retries);
    run.layer("faults.connect_failures", connect_failures);
    run.layer("faults.nat_rejections", nat_rejections);
    run.layer("faults.lost_lanes", lost_lanes);
    run.layer("churn.arrivals", arrivals);
    run.layer("churn.departures", departures);
  }
  run.layer("churn.before_round_ms", mean(tracer.durations_ms("ChurnDriver::before_round")));
  run.layer("scenario.replication_ms", median(replication_ms));
  run.layer("scenario.summary_ms", median(tracer.durations_ms("summarize")));
  checkpoints.report(run);
}

}  // namespace perfbench
