#include "bittorrent/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bittorrent/tracker_sim.hpp"
#include "sim/parallel.hpp"

namespace strat::bt {

namespace detail {

void validate_churn_spec(const ChurnSpec& spec, const char* where) {
  const auto require = [where](bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument(std::string(where) + ": " + rule);
  };
  const auto rate = [](double r) { return std::isfinite(r) && r >= 0.0; };
  require(rate(spec.arrival_rate), "arrival_rate must be finite and >= 0");
  require(rate(spec.replacement_rate), "replacement_rate must be finite and >= 0");
  require(spec.lifetime == ChurnSpec::Lifetime::kNone ||
              (std::isfinite(spec.lifetime_rounds) && spec.lifetime_rounds > 0.0),
          "lifetime_rounds must be finite and > 0");
  require(0.0 <= spec.arrival_completion && spec.arrival_completion < 1.0,
          "arrival_completion in [0, 1)");
}

}  // namespace detail

namespace {

ScenarioResult summarize(const Swarm& swarm, std::uint64_t seed) {
  ScenarioResult out;
  out.seed = seed;
  out.completed_leechers = swarm.completed_leechers();
  const FaultState& faults = swarm.fault_state();
  out.fault_failed_announces = faults.failed_announces_;
  out.fault_retries = faults.announce_retries_;
  out.fault_connect_failures = faults.connect_failures_;
  out.fault_nat_rejections = faults.nat_rejections_;
  out.fault_lost_lanes = faults.lost_lanes_;

  // Every leecher that ever joined (initial population + arrivals),
  // with capacities read back from the swarm.
  std::vector<core::PeerId> leechers;
  leechers.reserve(swarm.peer_count());
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (swarm.is_leecher(p)) leechers.push_back(p);
  }

  double completion_sum = 0.0;
  std::size_t completion_count = 0;
  double rate_sum = 0.0;
  std::vector<double> rates(leechers.size(), 0.0);
  for (std::size_t i = 0; i < leechers.size(); ++i) {
    const core::PeerId id = leechers[i];
    rates[i] = swarm.leech_download_kbps(id);
    rate_sum += rates[i];
    const double done = swarm.stats(id).completion_round;
    if (done >= 0.0) {
      completion_sum += done;
      ++completion_count;
    }
  }
  out.mean_completion_round =
      completion_count == 0 ? 0.0 : completion_sum / static_cast<double>(completion_count);
  out.mean_leech_kbps =
      leechers.empty() ? 0.0 : rate_sum / static_cast<double>(leechers.size());

  if (!leechers.empty()) {
    // Deciles by capacity descending (ties by id) — the ranking
    // convention of the efficiency model.
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
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    out.total_uploaded_kb += swarm.stats(p).uploaded_kb;
    out.total_downloaded_kb += swarm.stats(p).downloaded_kb;
  }
  out.arrivals = swarm.arrivals();
  out.departures = swarm.departures();
  out.live_peers = swarm.live_peer_count();
  return out;
}

}  // namespace

ScenarioResult run_scenario(const SwarmScenario& scenario, std::uint64_t seed) {
  graph::Rng rng(seed);
  Swarm swarm(scenario.config, scenario.upload_kbps, rng);
  // An inactive spec draws nothing and changes nothing, so a closed
  // swarm runs the same loop.
  std::vector<double> pool = scenario.churn.arrival_upload_kbps.empty()
                                 ? scenario.upload_kbps
                                 : scenario.churn.arrival_upload_kbps;
  ChurnDriver<Swarm> driver(scenario.churn, scenario.config, std::move(pool), rng);
  driver.attach(swarm);
  for (std::size_t r = 0; r < scenario.warmup_rounds; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  swarm.reset_stratification();
  for (std::size_t r = 0; r < scenario.measure_rounds; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  return summarize(swarm, seed);
}

std::vector<std::vector<ScenarioResult>> run_replications(std::span<const SwarmScenario> grid,
                                                          std::span<const std::uint64_t> seeds,
                                                          std::size_t threads) {
  const std::size_t n = seeds.size();
  std::vector<std::vector<ScenarioResult>> results(grid.size(), std::vector<ScenarioResult>(n));
  sim::parallel_for(grid.size() * n, threads, [&](std::size_t t) {
    results[t / n][t % n] = run_scenario(grid[t / n], seeds[t % n]);
  });
  return results;
}

std::vector<ScenarioResult> run_replications(const SwarmScenario& scenario,
                                             std::span<const std::uint64_t> seeds,
                                             std::size_t threads) {
  return std::move(run_replications(std::span(&scenario, 1), seeds, threads).front());
}

std::vector<std::size_t> capacity_scaled_slots(const std::vector<double>& upload_kbps,
                                               std::size_t lo, std::size_t hi) {
  if (lo < 1 || lo > hi) {
    throw std::invalid_argument("capacity_scaled_slots: need 1 <= lo <= hi");
  }
  double log_min = 0.0;
  double log_max = 0.0;
  bool first = true;
  for (double kbps : upload_kbps) {
    detail::require_capacity(kbps, "capacity_scaled_slots");
    const double l = std::log(kbps);
    log_min = first ? l : std::min(log_min, l);
    log_max = first ? l : std::max(log_max, l);
    first = false;
  }
  std::vector<std::size_t> slots(upload_kbps.size());
  const double span = log_max - log_min;
  for (std::size_t i = 0; i < upload_kbps.size(); ++i) {
    if (span <= 0.0) {
      slots[i] = (lo + hi) / 2;  // uniform capacities: middle of the range
      continue;
    }
    const double t = (std::log(upload_kbps[i]) - log_min) / span;
    slots[i] = lo + static_cast<std::size_t>(
                        std::llround(t * static_cast<double>(hi - lo)));
  }
  return slots;
}

std::size_t distinct_peer_count(const MultiSwarmSpec& spec) {
  if (spec.num_swarms == 0 || spec.peers_per_swarm < 2) {
    throw std::invalid_argument("MultiSwarmSpec: need >= 1 swarm of >= 2 peers");
  }
  if (!(spec.overlap_fraction >= 0.0 && spec.overlap_fraction < 1.0)) {
    throw std::invalid_argument("MultiSwarmSpec: overlap_fraction in [0, 1)");
  }
  const auto overlap = static_cast<std::size_t>(spec.overlap_fraction *
                                                static_cast<double>(spec.peers_per_swarm));
  const std::size_t stride = spec.peers_per_swarm - overlap;
  return (spec.num_swarms - 1) * stride + spec.peers_per_swarm;
}

MultiSwarmResult run_multi_swarm(const MultiSwarmSpec& spec, std::uint64_t seed,
                                 std::size_t threads) {
  const std::size_t distinct = distinct_peer_count(spec);
  if (spec.upload_kbps.size() != distinct) {
    throw std::invalid_argument("MultiSwarmSpec: one capacity per distinct peer required");
  }
  const auto overlap = static_cast<std::size_t>(spec.overlap_fraction *
                                                static_cast<double>(spec.peers_per_swarm));
  const std::size_t stride = spec.peers_per_swarm - overlap;

  // Membership count per distinct peer: swarm k covers global ids
  // [k*stride, k*stride + peers_per_swarm).
  std::vector<std::size_t> memberships(distinct, 0);
  for (std::size_t k = 0; k < spec.num_swarms; ++k) {
    for (std::size_t local = 0; local < spec.peers_per_swarm; ++local) {
      ++memberships[k * stride + local];
    }
  }

  // Thin shim over the tracker layer: the overlap layout becomes the
  // seed list of a closed (no arrivals) TrackerSim and `threads`
  // becomes the shard count. The barrier re-splits capacities as
  // memberships depart, as in every TrackerSim; with stay_as_seed on
  // nobody departs, so the construction-time split holds throughout.
  // Per-swarm Rng seeding (seed + stride * (k+1)) is identical, so a
  // member swarm still reproduces the same run a standalone Swarm would.
  std::vector<TrackerSwarmSeed> seeds(spec.num_swarms);
  for (std::size_t k = 0; k < spec.num_swarms; ++k) {
    seeds[k].config = spec.config;
    seeds[k].members.resize(spec.peers_per_swarm);
    for (std::size_t local = 0; local < spec.peers_per_swarm; ++local) {
      seeds[k].members[local] = static_cast<core::PeerId>(k * stride + local);
    }
  }
  TrackerConfig tcfg;
  tcfg.shards = threads;
  TrackerSim tracker(tcfg, std::move(seeds), spec.upload_kbps, seed);
  tracker.run(spec.warmup_rounds);
  tracker.reset_stratification();
  tracker.run(spec.measure_rounds);

  MultiSwarmResult out;
  out.per_swarm.resize(spec.num_swarms);
  // Aggregate leech rate per distinct peer, summed over member swarms.
  std::vector<double> total_rate(distinct, 0.0);
  for (std::size_t k = 0; k < spec.num_swarms; ++k) {
    const Swarm& swarm = tracker.swarm(k);
    out.per_swarm[k] = summarize(swarm, seed + kTrackerSwarmSeedStride * (k + 1));
    for (std::size_t local = 0; local < spec.peers_per_swarm; ++local) {
      total_rate[k * stride + local] +=
          swarm.leech_download_kbps(static_cast<core::PeerId>(local));
    }
  }
  double single_sum = 0.0;
  double multi_sum = 0.0;
  for (std::size_t i = 0; i < distinct; ++i) {
    // Per-membership mean: each swarm carries distinct content, so the
    // comparable figure is the rate achieved inside one swarm.
    const double per_swarm_rate = total_rate[i] / static_cast<double>(memberships[i]);
    if (memberships[i] <= 1) {
      ++out.single_home_peers;
      single_sum += per_swarm_rate;
    } else {
      ++out.multi_home_peers;
      multi_sum += per_swarm_rate;
    }
  }
  out.mean_single_home_kbps =
      out.single_home_peers == 0 ? 0.0 : single_sum / static_cast<double>(out.single_home_peers);
  out.mean_multi_home_kbps =
      out.multi_home_peers == 0 ? 0.0 : multi_sum / static_cast<double>(out.multi_home_peers);
  return out;
}

}  // namespace strat::bt
