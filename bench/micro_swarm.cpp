// Microbenchmarks: swarm round throughput and its building blocks.
//
// BM_SwarmRound times the flat edge-slot data plane at 10^2..10^4
// peers and BM_SwarmRoundThreads at 10^5 over a thread sweep (fixed
// repetitions of one resumed 3-round window: one round there is itself
// a macro-workload).
// BM_ReferenceSwarmRound times the retained map-based plane on the
// same configuration so the flat layout's speedup stays a measured
// number. BM_SwarmChurnRound
// runs the same 5000-peer workload under replacement churn (the
// paper's x/1000 regime through the dynamic overlay) — the
// BM_SwarmRound/5000 ratio is the cost of churn, which the acceptance
// bar keeps within 1.25x. scripts/bench_all.sh snapshots the whole
// file into BENCH_swarm.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <string>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include <sys/resource.h>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/piece_picker.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"
#include "sim/stats.hpp"

namespace {

using namespace strat;

/// Minor page faults of this process so far.
std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

bt::SwarmConfig round_config(std::size_t peers) {
  bt::SwarmConfig cfg;
  cfg.num_peers = peers;
  cfg.seeds = 1;
  cfg.num_pieces = 1024;
  cfg.piece_kb = 1024.0;  // long-lived so rounds stay comparable
  cfg.neighbor_degree = 30.0;
  cfg.initial_completion = 0.5;
  return cfg;
}

void BM_SwarmRound(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::Swarm swarm(round_config(peers), model.representative_sample(peers), rng);
  for (auto _ : state) {
    swarm.run_round();
    benchmark::DoNotOptimize(swarm.rounds_elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_SwarmRound)->Arg(100)->Arg(400)->Arg(5000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Thread-scaling sweep over the steady-state window of perfbench's
// swarm_1e5 workload: round_config(peers) (seed 1, ~3M edge slots for
// 10^5 peers) is built once, runs 2 warm-up rounds and is saved; every
// repetition resumes that snapshot with SwarmConfig::threads = the
// second argument and times 3 rounds, wall clock, the resume excluded.
// Runs are bitwise identical across the sweep (per-peer choke and
// transfer streams); only the wall clock moves. The counters split the
// round via Swarm::phase_profile(): choke_fold_ms plus mutual_ms plus
// transfer_compute_ms is the parallel portion, transfer_commit_ms (the
// serial commit) is the Amdahl remainder the whole-round time dilutes
// the speedup with.
// transfer_rerun_ms and rerun_frac expose the conflict cost of the
// speculative plan-against-snapshot stage — rerun_frac is thread-count
// invariant by construction, so a change across the sweep is a bug.
const std::string& warm_snapshot(std::size_t peers) {
  static std::map<std::size_t, std::string> snapshots;
  auto it = snapshots.find(peers);
  if (it == snapshots.end()) {
    graph::Rng rng(1);
    bt::Swarm swarm(round_config(peers),
                    bt::BandwidthModel::saroiu2002().representative_sample(peers), rng);
    swarm.run(2);
    it = snapshots.emplace(peers, bt::save_to_string(swarm)).first;
  }
  return it->second;
}

void BM_SwarmRoundThreads(benchmark::State& state) {
  constexpr std::int64_t kWindow = 3;
  const auto peers = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  bt::SwarmConfig cfg = round_config(peers);
  cfg.threads = threads;
  const std::string& snapshot = warm_snapshot(peers);
  bt::Swarm::PhaseProfile sum;
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<bt::ResumedSwarm> run;
    run.emplace(bt::resume_from_string(snapshot, cfg));
    state.ResumeTiming();
    run->swarm().run(static_cast<std::size_t>(kWindow));
    state.PauseTiming();
    sum += run->swarm().phase_profile();
    run.reset();
    state.ResumeTiming();
  }
  const auto rounds = static_cast<double>(state.iterations() * kWindow);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["choke_fold_ms"] = (sum.choke_seconds + sum.fold_seconds) * 1000.0 / rounds;
  state.counters["mutual_ms"] = sum.mutual_seconds * 1000.0 / rounds;
  state.counters["transfer_compute_ms"] = sum.transfer_compute_seconds * 1000.0 / rounds;
  state.counters["transfer_commit_ms"] = sum.transfer_commit_seconds * 1000.0 / rounds;
  state.counters["transfer_rerun_ms"] = sum.transfer_rerun_seconds * 1000.0 / rounds;
  state.counters["rerun_frac"] = sum.rerun_fraction();
  state.SetItemsProcessed(state.iterations() * kWindow * static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_SwarmRoundThreads)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Iterations(1)
    ->Repetitions(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Set-up path: the capacity sample every swarm driver and benchmark
// workload builds first, then the constructor it feeds (overlay, slot
// pool, Bernoulli piece fill, ranks) on the BM_SwarmRoundThreads config.
void BM_RepresentativeSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.representative_sample(n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RepresentativeSample)->Arg(1000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SwarmConstruct(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const std::vector<double> capacities =
      bt::BandwidthModel::saroiu2002().representative_sample(peers);
  std::optional<bt::Swarm> swarm;
  for (auto _ : state) {
    graph::Rng rng(1);
    swarm.emplace(round_config(peers), capacities, rng);
    benchmark::DoNotOptimize(swarm->live_peer_count());
    // Tear-down is not construction.
    state.PauseTiming();
    swarm.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SwarmConstruct)->Arg(100000)->Unit(benchmark::kMillisecond);

// The pre-rewrite unordered_map data plane, same workload: the
// BM_SwarmRound/5000 vs BM_ReferenceSwarmRound/5000 ratio is the
// speedup the CSR layout buys.
void BM_ReferenceSwarmRound(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::ReferenceSwarm swarm(round_config(peers), model.representative_sample(peers), rng);
  for (auto _ : state) {
    swarm.run_round();
    benchmark::DoNotOptimize(swarm.rounds_elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_ReferenceSwarmRound)->Arg(400)->Arg(5000)->Unit(benchmark::kMillisecond);

// The dynamic overlay under replacement churn: every round first
// applies the churn events (departures release slots, arrivals recycle
// them, periodic re-announce), then runs the round. The argument is
// the paper's x (events per 1000 peers per round).
void BM_SwarmChurnRound(benchmark::State& state) {
  constexpr std::size_t kPeers = 5000;
  const auto x = static_cast<double>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::Swarm swarm(round_config(kPeers), model.representative_sample(kPeers), rng);
  bt::ChurnSpec spec;
  spec.replacement_rate = bt::paper_replacement_rate(x, kPeers);
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 10;
  bt::ChurnDriver<bt::Swarm> churn(spec, round_config(kPeers),
                                   model.representative_sample(kPeers), rng);
  churn.attach(swarm);
  for (auto _ : state) {
    churn.before_round(swarm);
    swarm.run_round();
    benchmark::DoNotOptimize(swarm.rounds_elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPeers));
  state.counters["arrivals"] = static_cast<double>(swarm.arrivals());
}
BENCHMARK(BM_SwarmChurnRound)->Arg(1)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

// The open-system scale gate: two 5000-live-peer swarms absorb 10^5
// and 10^6 cumulative arrivals through replacement churn with
// model-sampled arrival capacities. The dense peer-table compaction
// keeps the data plane and round time O(live), so both must be flat
// (±10%) across the two swarms, where the pre-compaction plane grew
// linearly with arrivals-ever. Both swarms churn at one replacement rate
// (500 of the 5000 live peers per round) and differ only in how long
// they ramp: each runs until it reaches its arrival target, ~200 rounds
// for 10^5 and ~2000 for 10^6, so the probe compares one churn regime at
// two archive sizes. Then 15 pairs of probe rounds, churn excluded, are
// timed, alternating which swarm goes first, so the host's speed drift
// lands on both sides of every pair: `flatness`, the median per-pair
// ratio of the 10^6 round over the 10^5 round, decides the bar in one
// run, and end_round_ms_1e5/_1e6 are each swarm's median probe round.
// What does grow with the churn is counted apart: id_index_mb (the id
// map, 4 bytes per arrival) and retired_mb (the departed-peer archive and
// retired pair history). The benchmark's own time is the whole run.
void BM_SwarmLongChurn(benchmark::State& state) {
  constexpr std::size_t kPeers = 5000;
  constexpr double kReplacementRate = 500.0;  // peers replaced per round, both swarms
  constexpr std::size_t kProbePairs = 15;
  constexpr std::array<std::size_t, 2> kArrivals{100000, 1000000};
  const std::array<std::string, 2> tags{"_1e5", "_1e6"};
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  const bt::SwarmConfig cfg = round_config(kPeers);
  for (auto _ : state) {
    // Swarm holds a reference to its Rng, so neither may move.
    std::array<graph::Rng, 2> rngs{graph::Rng(7), graph::Rng(7)};
    std::array<std::optional<bt::Swarm>, 2> swarms;
    for (std::size_t side = 0; side < 2; ++side) {
      bt::ChurnSpec spec;
      spec.replacement_rate = kReplacementRate;
      spec.arrival_completion = 0.5;
      spec.reannounce_interval = 10;
      spec.arrival_model = model;
      bt::Swarm& swarm =
          swarms[side].emplace(cfg, model.representative_sample(kPeers), rngs[side]);
      bt::ChurnDriver<bt::Swarm> churn(spec, cfg, {}, rngs[side]);
      churn.attach(swarm);
      while (swarm.arrivals() < kArrivals[side]) {
        churn.before_round(swarm);
        swarm.run_round();
      }
    }
    std::array<std::vector<double>, 2> probe_ms;
    std::vector<double> ratio;
    for (std::size_t pair = 0; pair < kProbePairs; ++pair) {
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t side = (pair + k) % 2;
        const auto start = std::chrono::steady_clock::now();
        swarms[side]->run_round();
        probe_ms[side].push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                .count());
      }
      ratio.push_back(probe_ms[1].back() / probe_ms[0].back());
    }
    for (std::size_t side = 0; side < 2; ++side) {
      const auto fp = swarms[side]->memory_footprint();
      state.counters["end_round_ms" + tags[side]] = sim::summarize(probe_ms[side]).median;
      state.counters["data_plane_mb" + tags[side]] =
          static_cast<double>(fp.peer_state_bytes + fp.edge_slot_bytes) / (1024.0 * 1024.0);
      state.counters["id_index_mb" + tags[side]] =
          static_cast<double>(fp.id_index_bytes) / (1024.0 * 1024.0);
      state.counters["retired_mb" + tags[side]] =
          static_cast<double>(fp.retired_bytes) / (1024.0 * 1024.0);
    }
    state.counters["flatness"] = sim::summarize(ratio).median;
    benchmark::DoNotOptimize(swarms[1]->live_peer_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArrivals[0] + kArrivals[1]));
}
BENCHMARK(BM_SwarmLongChurn)->Iterations(1)->Unit(benchmark::kMillisecond);

// Replication sweep throughput through the scenario engine; threads is
// the second argument (1 = serial baseline).
void BM_ScenarioReplications(benchmark::State& state) {
  const auto replications = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  bt::SwarmScenario scenario;
  scenario.config = round_config(200);
  scenario.config.num_pieces = 256;
  scenario.config.piece_kb = 256.0;
  scenario.upload_kbps = bt::BandwidthModel::saroiu2002().representative_sample(200);
  scenario.warmup_rounds = 5;
  scenario.measure_rounds = 10;
  std::vector<std::uint64_t> seeds(replications);
  for (std::size_t i = 0; i < replications; ++i) seeds[i] = 1000 + i;
  for (auto _ : state) {
    const auto results = bt::run_replications(scenario, seeds, threads);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(replications));
}
BENCHMARK(BM_ScenarioReplications)
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

// Churned replication throughput: the same sweep with replacement
// churn + re-announce active, so BENCH_swarm.json tracks open-system
// scenario throughput across PRs too.
void BM_ChurnScenarioReplications(benchmark::State& state) {
  const auto replications = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  bt::SwarmScenario scenario;
  scenario.config = round_config(200);
  scenario.config.num_pieces = 256;
  scenario.config.piece_kb = 256.0;
  scenario.upload_kbps = bt::BandwidthModel::saroiu2002().representative_sample(200);
  scenario.warmup_rounds = 5;
  scenario.measure_rounds = 10;
  scenario.churn.replacement_rate = bt::paper_replacement_rate(10.0, 200);
  scenario.churn.arrival_completion = 0.5;
  scenario.churn.reannounce_interval = 5;
  std::vector<std::uint64_t> seeds(replications);
  for (std::size_t i = 0; i < replications; ++i) seeds[i] = 2000 + i;
  for (auto _ : state) {
    const auto results = bt::run_replications(scenario, seeds, threads);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(replications));
}
BENCHMARK(BM_ChurnScenarioReplications)
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

// Checkpoint serialization cost at 10^4 and 10^5 peers: one iteration
// is save_to_string + resume_from_string of a warmed-up swarm. The
// acceptance bar is save_load_vs_round < 1.0 — checkpointing a 10^5-
// peer swarm (~3M edge slots) must cost less than simulating one round
// of it, so periodic checkpoints are affordable inside long runs.
// snapshot_mb tracks the stream size across PRs (format regressions
// show up here before they show up in disk quotas). round_ms, the
// denominator, is the median of 5 timed rounds: a single round read 31
// and 60 ms at 10^4 peers in two runs of one build on a 4-vCPU Xeon.
// save_minor_faults and load_minor_faults are the process's minor page
// faults per trip (getrusage ru_minflt) around the save and the resume:
// buffers advised onto huge pages fault in 2 MB at a time, not 4 KB.
// One warm-up trip runs before the timed ones and is reported apart as
// first_save_ms and first_load_ms: the process's first checkpoint of a
// size pays for heap growth the later trips reuse, so save_ms and
// load_ms average steady-state trips only and can follow
// load_minor_faults. At 10^5 peers on a 4-vCPU Xeon, three runs read
// first_load_ms 290-681 against load_ms 182-222.
void BM_SwarmSnapshot(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::Swarm swarm(round_config(peers), model.representative_sample(peers), rng);
  swarm.run(3);  // populate rates, partials, in-flight state
  std::vector<double> rounds_s(5);
  for (double& round : rounds_s) {
    const auto r0 = std::chrono::steady_clock::now();
    swarm.run_round();
    round = std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
  }
  std::nth_element(rounds_s.begin(), rounds_s.begin() + 2, rounds_s.end());
  const double round_s = rounds_s[2];
  double save_s = 0.0;
  double load_s = 0.0;
  std::uint64_t save_faults = 0;
  std::uint64_t load_faults = 0;
  std::size_t snapshot_bytes = 0;
  double trips = 0.0;
  {
    const auto s0 = std::chrono::steady_clock::now();
    const std::string snap = bt::save_to_string(swarm);
    const auto s1 = std::chrono::steady_clock::now();
    bt::ResumedSwarm resumed = bt::resume_from_string(snap);
    const auto s2 = std::chrono::steady_clock::now();
    state.counters["first_save_ms"] = std::chrono::duration<double, std::milli>(s1 - s0).count();
    state.counters["first_load_ms"] = std::chrono::duration<double, std::milli>(s2 - s1).count();
    benchmark::DoNotOptimize(resumed.swarm().live_peer_count());
  }
  for (auto _ : state) {
    const std::uint64_t f0 = minor_faults();
    const auto s0 = std::chrono::steady_clock::now();
    const std::string snap = bt::save_to_string(swarm);
    const auto s1 = std::chrono::steady_clock::now();
    const std::uint64_t f1 = minor_faults();
    bt::ResumedSwarm resumed = bt::resume_from_string(snap);
    const auto s2 = std::chrono::steady_clock::now();
    const std::uint64_t f2 = minor_faults();
    save_s += std::chrono::duration<double>(s1 - s0).count();
    load_s += std::chrono::duration<double>(s2 - s1).count();
    save_faults += f1 - f0;
    load_faults += f2 - f1;
    snapshot_bytes = snap.size();
    trips += 1.0;
    benchmark::DoNotOptimize(resumed.swarm().live_peer_count());
  }
  state.counters["snapshot_mb"] = static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0);
  state.counters["save_ms"] = save_s * 1000.0 / trips;
  state.counters["load_ms"] = load_s * 1000.0 / trips;
  state.counters["save_minor_faults"] = static_cast<double>(save_faults) / trips;
  state.counters["load_minor_faults"] = static_cast<double>(load_faults) / trips;
  state.counters["round_ms"] = round_s * 1000.0;
  state.counters["save_load_vs_round"] = (save_s + load_s) / trips / round_s;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_SwarmSnapshot)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// --- Tracker-scale ecosystem -----------------------------------------
//
// BM_TrackerSimShards sweeps shards {1, 2, 4, 8} over ecosystems of
// 10 / 100 / 1000 churned multi-torrent swarms. One item = one
// whole-swarm round, so items_per_second is the tracker's swarm-round
// throughput. The counters split each round in two: barrier_ms is the
// serial tracker phase (registry prune, capacity re-split, Zipf
// arrivals), shard_ms the wall time of the member-swarm fan-out, and
// imbalance_ms the time an average worker sat idle inside that fan-out
// (its wall minus the summed per-swarm walls over the worker count) —
// what on-demand claiming still leaves unused while the last swarms
// finish. Runs are bitwise identical across the shard sweep (the
// test-suite contract); only the wall clock may move.

bt::SwarmConfig tracker_member_config() {
  bt::SwarmConfig cfg;
  cfg.num_peers = 16;  // overwritten by each seed's member list
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 64.0;
  cfg.neighbor_degree = 6.0;
  cfg.initial_completion = 0.5;
  cfg.stay_as_seed = false;  // completions depart: real registry churn
  return cfg;
}

std::vector<bt::TrackerSwarmSeed> tracker_disjoint_seeds(std::size_t num_swarms,
                                                         std::size_t peers) {
  std::vector<bt::TrackerSwarmSeed> seeds(num_swarms);
  for (std::size_t k = 0; k < num_swarms; ++k) {
    seeds[k].config = tracker_member_config();
    seeds[k].members.resize(peers);
    for (std::size_t local = 0; local < peers; ++local) {
      seeds[k].members[local] = static_cast<bt::GlobalPeerId>(k * peers + local);
    }
  }
  return seeds;
}

void BM_TrackerSimShards(benchmark::State& state) {
  const auto num_swarms = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kPeers = 16;
  bt::TrackerConfig cfg;
  cfg.shards = shards;
  // Ecosystem-level Poisson arrivals scaled with the swarm count so
  // the per-swarm churn regime is comparable across the sweep.
  cfg.arrival_rate = 0.2 * static_cast<double>(num_swarms);
  cfg.zipf_exponent = 1.0;
  cfg.multi_torrent_fraction = 0.3;
  cfg.arrival_model = bt::BandwidthModel::saroiu2002();
  cfg.swarm_churn.lifetime = bt::ChurnSpec::Lifetime::kExponential;
  cfg.swarm_churn.lifetime_rounds = 25.0;
  cfg.swarm_churn.arrival_completion = 0.25;
  const auto capacities =
      bt::BandwidthModel::saroiu2002().representative_sample(num_swarms * kPeers);
  bt::TrackerSim tracker(cfg, tracker_disjoint_seeds(num_swarms, kPeers), capacities, 42);
  tracker.run(5);  // warm up: live churn state before the timed rounds
  for (auto _ : state) {
    tracker.run_round();
    benchmark::DoNotOptimize(tracker.rounds_elapsed());
  }
  const bt::EcosystemProfile prof = tracker.ecosystem_profile();
  const auto rounds = static_cast<double>(prof.rounds);  // warmup included
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["barrier_ms"] = prof.barrier_seconds * 1000.0 / rounds;
  state.counters["shard_ms"] = prof.shard_seconds * 1000.0 / rounds;
  state.counters["imbalance_ms"] = prof.shard_imbalance_seconds * 1000.0 / rounds;
  state.counters["live_peers"] = static_cast<double>(tracker.registry().size());
  state.counters["live_memberships"] = static_cast<double>(tracker.live_membership_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(num_swarms));
}
BENCHMARK(BM_TrackerSimShards)
    ->ArgsProduct({{10, 100, 1000}, {1, 2, 4, 8}})
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

// The shards=1 overhead gate: the same closed (no arrivals) 100-swarm
// workload through the tracker layer and through a plain serial loop
// over standalone Swarm instances built from the same seeds — exactly
// what run_multi_swarm did before it became a TrackerSim shim. The
// swarms are disjoint, so every capacity share is the whole capacity
// and the barrier's re-split changes nothing. Both sides run the same
// swarms through the same rounds, so each iteration times one tracker
// round and one loop round, alternating which goes first; host drift
// then lands on both sides of every pair. tracker_ms and loop_ms are the per-round
// medians, and `overhead` is the median of the per-iteration
// tracker/loop ratios. The closed swarms drain as leechers complete,
// so the window is fixed: each repetition builds both sides afresh and
// times rounds 1-20. The acceptance bar keeps the _median row's
// overhead <= 1.10: the registry barrier and the inline shards=1
// fan-out must cost noise, not a tax, when the tracker adds nothing.
void BM_TrackerOverhead(benchmark::State& state) {
  constexpr std::size_t kSwarms = 100;
  constexpr std::size_t kPeers = 16;
  const auto capacities =
      bt::BandwidthModel::saroiu2002().representative_sample(kSwarms * kPeers);
  bt::TrackerConfig cfg;
  cfg.shards = 1;
  bt::TrackerSim tracker(cfg, tracker_disjoint_seeds(kSwarms, kPeers), capacities, 42);
  // Stable-address slots: Swarm holds a reference to its Rng, so both
  // live behind one unique_ptr (the TrackerSim slot layout).
  struct Slot {
    graph::Rng rng;
    std::optional<bt::Swarm> swarm;
    explicit Slot(std::uint64_t seed) : rng(seed) {}
  };
  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(kSwarms);
  for (std::size_t k = 0; k < kSwarms; ++k) {
    auto slot = std::make_unique<Slot>(
        42 + bt::kTrackerSwarmSeedStride * (static_cast<std::uint64_t>(k) + 1));
    std::vector<double> caps(capacities.begin() + static_cast<std::ptrdiff_t>(k * kPeers),
                             capacities.begin() +
                                 static_cast<std::ptrdiff_t>((k + 1) * kPeers));
    bt::SwarmConfig scfg = tracker_member_config();
    scfg.num_peers = kPeers;
    slot->swarm.emplace(scfg, caps, slot->rng);
    slots.push_back(std::move(slot));
  }
  const auto time_ms = [](auto&& round) {
    const auto start = std::chrono::steady_clock::now();
    round();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto tracker_round = [&] { tracker.run_round(); };
  const auto loop_round = [&] {
    for (auto& slot : slots) slot->swarm->run_round();
  };
  std::vector<double> tracker_ms;
  std::vector<double> loop_ms;
  std::vector<double> ratio;
  for (auto _ : state) {
    double t = 0.0;
    double l = 0.0;
    if (tracker_ms.size() % 2 == 0) {
      t = time_ms(tracker_round);
      l = time_ms(loop_round);
    } else {
      l = time_ms(loop_round);
      t = time_ms(tracker_round);
    }
    tracker_ms.push_back(t);
    loop_ms.push_back(l);
    ratio.push_back(t / l);
  }
  benchmark::DoNotOptimize(slots.back()->swarm->rounds_elapsed());
  state.counters["tracker_ms"] = sim::summarize(tracker_ms).median;
  state.counters["loop_ms"] = sim::summarize(loop_ms).median;
  state.counters["overhead"] = sim::summarize(ratio).median;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kSwarms));
}
BENCHMARK(BM_TrackerOverhead)->Iterations(20)->Repetitions(5)->Unit(benchmark::kMillisecond);

// Fault-injection cost: the BM_SwarmRound workload with the fault
// model off (arg 0 — must stay within noise of BM_SwarmRound/5000,
// the zero-cost-when-off gate) and with a combined outage + flaky
// connect + NAT + lane-loss regime on (arg 1). fault_ms is the
// explicit fault phase (backoff sweep) per round; the rest of the
// faulted overhead lives inside announce and commit and shows up in
// the whole-round time.
void BM_SwarmFaults(benchmark::State& state) {
  constexpr std::size_t kPeers = 5000;
  const bool faulted = state.range(0) != 0;
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::SwarmConfig cfg = round_config(kPeers);
  if (faulted) {
    cfg.faults.outage_period = 10;
    cfg.faults.outage_duration = 3;
    cfg.faults.connect_failure_prob = 0.2;
    cfg.faults.connect_attempts = 2;
    cfg.faults.nat_fraction = 0.25;
    cfg.faults.lane_loss_prob = 0.05;
  }
  bt::Swarm swarm(cfg, model.representative_sample(kPeers), rng);
  bt::ChurnSpec spec;
  spec.replacement_rate = bt::paper_replacement_rate(5.0, kPeers);
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 10;
  bt::ChurnDriver<bt::Swarm> churn(spec, cfg, model.representative_sample(kPeers), rng);
  churn.attach(swarm);
  for (auto _ : state) {
    churn.before_round(swarm);
    swarm.run_round();
    benchmark::DoNotOptimize(swarm.rounds_elapsed());
  }
  const auto rounds = static_cast<double>(swarm.rounds_elapsed());
  const bt::FaultState& faults = swarm.fault_state();
  state.counters["fault_ms"] = swarm.phase_profile().fault_seconds * 1000.0 / rounds;
  state.counters["lost_lanes"] = static_cast<double>(faults.lost_lanes_);
  state.counters["connect_failures"] = static_cast<double>(faults.connect_failures_);
  state.counters["degraded_peers"] = static_cast<double>(faults.degraded_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPeers));
}
BENCHMARK(BM_SwarmFaults)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Rarest-first picks in the shapes the swarm runs, as (pieces, shape):
//   dense     local 0.5 and remote 0.7 held, no exclusion (~35% of the
//             pieces are candidates);
//   plan      the swarm_1e5 plan pick: 1024 pieces, local and remote
//             half held, a 1% exclusion mask (~25% candidates);
//   sparse    a tracker member near completion: local 0.9, remote 0.5
//             held (~5% candidates).
// pick_checksum folds the first 4096 picks of a fixed stream, so two
// kernels can be checked for identical picks from the bench output.
enum PickShape : std::int64_t { kDensePick, kPlanPick, kSparsePick };

void BM_RarestFirstPick(benchmark::State& state) {
  const auto pieces = static_cast<std::size_t>(state.range(0));
  const auto shape = state.range(1);
  const double local_p = shape == kSparsePick ? 0.9 : 0.5;
  const double remote_p = shape == kDensePick ? 0.7 : 0.5;
  graph::Rng rng(2);
  bt::PiecePicker picker(pieces);
  bt::Bitfield local(pieces);
  bt::Bitfield remote(pieces);
  bt::Bitfield excluded(pieces);
  for (bt::PieceId i = 0; i < pieces; ++i) {
    const auto copies = static_cast<std::uint32_t>(rng.below(20));
    for (std::uint32_t c = 0; c < copies; ++c) picker.add_availability(i);
    if (rng.bernoulli(local_p)) local.set(i);
    if (rng.bernoulli(remote_p)) remote.set(i);
    if (shape == kPlanPick && rng.bernoulli(0.01)) excluded.set(i);
  }
  const auto pick = [&](graph::Rng& stream) {
    return shape == kPlanPick ? picker.pick_rarest(local, remote, excluded, stream)
                              : picker.pick_rarest(local, remote, stream);
  };
  graph::Rng check(3);
  double checksum = 0.0;
  for (int i = 1; i <= 4096; ++i) {
    checksum += static_cast<double>(i) * static_cast<double>(pick(check).value_or(0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pick(rng));
  }
  state.counters["pick_checksum"] = checksum;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pieces));
}
BENCHMARK(BM_RarestFirstPick)
    ->Args({256, kDensePick})
    ->Args({4096, kDensePick})
    ->Args({1024, kPlanPick})
    ->Args({256, kSparsePick});

void BM_BandwidthQuantile(benchmark::State& state) {
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  double q = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.quantile(q));
    q += 0.001;
    if (q >= 0.999) q = 0.001;
  }
}
BENCHMARK(BM_BandwidthQuantile);

}  // namespace
