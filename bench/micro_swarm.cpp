// Microbenchmarks: swarm round throughput and its building blocks.
//
// BM_SwarmRound times the flat edge-slot data plane at 10^2..10^4
// peers and BM_SwarmRoundHuge at 10^5 (fixed iteration count: one
// round there is itself a macro-workload). BM_ReferenceSwarmRound
// times the retained map-based plane on the same configuration so the
// flat layout's speedup stays a measured number. BM_SwarmChurnRound
// runs the same 5000-peer workload under replacement churn (the
// paper's x/1000 regime through the dynamic overlay) — the
// BM_SwarmRound/5000 ratio is the cost of churn, which the acceptance
// bar keeps within 1.25x. scripts/bench_all.sh snapshots the whole
// file into BENCH_swarm.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <memory>
#include <optional>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/piece_picker.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "bittorrent/tracker_sim.hpp"

namespace {

using namespace strat;

// Resident set size in MB (Linux; 0 elsewhere) — the whole-process
// check behind BM_SwarmLongChurn's flat-memory claim.
double rss_mb() {
#ifdef __linux__
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
      long kb = 0;
      if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
#endif
  return 0.0;
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

// Thread-scaling sweep: the BM_SwarmRoundHuge workload with
// SwarmConfig::threads = the second argument. Runs are bitwise
// identical across the sweep (per-peer choke and transfer streams);
// only the wall clock moves. The counters split the round via
// Swarm::phase_profile(): choke_fold_ms plus transfer_compute_ms is
// the parallel portion, serial_ms (mutual + transfer commit) is the
// Amdahl remainder the whole-round time dilutes the speedup with.
// transfer_rerun_ms and rerun_frac expose the conflict cost of the
// speculative plan-against-snapshot stage — rerun_frac is thread-count
// invariant by construction, so a change across the sweep is a bug.
void BM_SwarmRoundThreads(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::SwarmConfig cfg = round_config(peers);
  cfg.threads = threads;
  bt::Swarm swarm(cfg, model.representative_sample(peers), rng);
  for (auto _ : state) {
    swarm.run_round();
    benchmark::DoNotOptimize(swarm.rounds_elapsed());
  }
  const auto& prof = swarm.phase_profile();
  const auto rounds = static_cast<double>(swarm.rounds_elapsed());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["choke_fold_ms"] =
      (prof.choke_seconds + prof.fold_seconds) * 1000.0 / rounds;
  state.counters["transfer_compute_ms"] = prof.transfer_compute_seconds * 1000.0 / rounds;
  state.counters["transfer_commit_ms"] = prof.transfer_commit_seconds * 1000.0 / rounds;
  state.counters["transfer_rerun_ms"] = prof.transfer_rerun_seconds * 1000.0 / rounds;
  state.counters["rerun_frac"] = prof.rerun_fraction();
  state.counters["serial_ms"] =
      (prof.mutual_seconds + prof.transfer_commit_seconds) * 1000.0 / rounds;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_SwarmRoundThreads)
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

// 10^5 peers: ~3M edge slots. Fixed iterations keep the harness from
// rescaling this into minutes of wall clock.
void BM_SwarmRoundHuge(benchmark::State& state) {
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
BENCHMARK(BM_SwarmRoundHuge)->Arg(100000)->Iterations(3)->Unit(benchmark::kMillisecond);

// Set-up path: the capacity sample every swarm driver and benchmark
// workload builds first, then the constructor it feeds (overlay, slot
// pool, Bernoulli piece fill, ranks) on the BM_SwarmRoundHuge config.
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

// The open-system scale gate: a 5000-live-peer swarm absorbing the
// argument's cumulative arrivals (10^5, 10^6) through replacement
// churn with model-sampled arrival capacities and no departed-peer
// archive. The dense peer-table compaction keeps per-peer storage and
// round time O(live): compare end_round_ms / data_plane_mb / rss_mb
// across the two args — flat (±10%) is the acceptance bar, where the
// pre-compaction plane grew linearly with arrivals-ever. Both args run
// the same number of simulated rounds (so the end-state probe compares
// same-age swarms) and differ only in replacement rate, i.e. in how
// many peers ever churned through; the benchmark's own time is the
// whole run.
void BM_SwarmLongChurn(benchmark::State& state) {
  constexpr std::size_t kPeers = 5000;
  constexpr std::size_t kRounds = 200;
  const auto target_arrivals = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  bt::SwarmConfig cfg = round_config(kPeers);
  cfg.retain_departed = false;  // aggregates only: flat memory forever
  bt::ChurnSpec spec;
  spec.replacement_rate =
      static_cast<double>(target_arrivals) / static_cast<double>(kRounds);
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 10;
  spec.arrival_bandwidth = bt::ChurnSpec::ArrivalBandwidth::kModel;
  spec.arrival_model = model;
  for (auto _ : state) {
    graph::Rng rng(7);
    bt::Swarm swarm(cfg, model.representative_sample(kPeers), rng);
    bt::ChurnDriver<bt::Swarm> churn(spec, cfg, {}, rng);
    churn.attach(swarm);
    for (std::size_t r = 0; r < kRounds || swarm.arrivals() < target_arrivals; ++r) {
      churn.before_round(swarm);
      swarm.run_round();
    }
    // End-state round time, churn excluded: O(live) iff flat across args.
    constexpr std::size_t kProbeRounds = 5;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kProbeRounds; ++r) swarm.run_round();
    const auto stop = std::chrono::steady_clock::now();
    const auto fp = swarm.memory_footprint();
    state.counters["arrivals"] = static_cast<double>(swarm.arrivals());
    state.counters["end_round_ms"] =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(kProbeRounds);
    state.counters["data_plane_mb"] =
        static_cast<double>(fp.peer_state_bytes + fp.edge_slot_bytes) / (1024.0 * 1024.0);
    state.counters["id_index_mb"] =
        static_cast<double>(fp.id_index_bytes) / (1024.0 * 1024.0);
    state.counters["rss_mb"] = rss_mb();
    benchmark::DoNotOptimize(swarm.live_peer_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(target_arrivals));
}
BENCHMARK(BM_SwarmLongChurn)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

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
// show up here before they show up in disk quotas).
void BM_SwarmSnapshot(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();
  graph::Rng rng(1);
  bt::Swarm swarm(round_config(peers), model.representative_sample(peers), rng);
  swarm.run(3);  // populate rates, partials, in-flight state
  const auto r0 = std::chrono::steady_clock::now();
  swarm.run_round();
  const double round_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
  double save_s = 0.0;
  double load_s = 0.0;
  std::size_t snapshot_bytes = 0;
  double trips = 0.0;
  for (auto _ : state) {
    const auto s0 = std::chrono::steady_clock::now();
    const std::string snap = bt::save_to_string(swarm);
    const auto s1 = std::chrono::steady_clock::now();
    bt::ResumedSwarm resumed = bt::resume_from_string(snap);
    const auto s2 = std::chrono::steady_clock::now();
    save_s += std::chrono::duration<double>(s1 - s0).count();
    load_s += std::chrono::duration<double>(s2 - s1).count();
    snapshot_bytes = snap.size();
    trips += 1.0;
    benchmark::DoNotOptimize(resumed.swarm().live_peer_count());
  }
  state.counters["snapshot_mb"] = static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0);
  state.counters["save_ms"] = save_s * 1000.0 / trips;
  state.counters["load_ms"] = load_s * 1000.0 / trips;
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
// throughput. The counters split each round the way the sharding
// model does: barrier_ms is the serial tracker phase (registry prune,
// capacity re-split, Zipf arrivals), shard_ms the parallel fan-out,
// and imbalance_ms the max-min shard wall-clock spread — the number
// that says whether round-robin swarm assignment is leaving cores
// idle. Runs are bitwise identical across the shard sweep (the
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

// The shards=1 overhead gate: the same closed (no arrivals, frozen
// capacity split) 100-swarm workload through the tracker layer versus
// a plain serial loop over standalone Swarm instances — exactly what
// run_multi_swarm did before it became a TrackerSim shim. The
// acceptance bar keeps BM_TrackerClosedRounds within 10% of
// BM_SerialSwarmLoopRounds: the registry barrier and the inline
// shards=1 fan-out must cost noise, not a tax, when the tracker adds
// nothing.

void BM_TrackerClosedRounds(benchmark::State& state) {
  constexpr std::size_t kSwarms = 100;
  constexpr std::size_t kPeers = 16;
  bt::TrackerConfig cfg;
  cfg.shards = 1;
  cfg.dynamic_capacity_split = false;
  const auto capacities =
      bt::BandwidthModel::saroiu2002().representative_sample(kSwarms * kPeers);
  bt::TrackerSim tracker(cfg, tracker_disjoint_seeds(kSwarms, kPeers), capacities, 42);
  for (auto _ : state) {
    tracker.run_round();
    benchmark::DoNotOptimize(tracker.rounds_elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSwarms));
}
BENCHMARK(BM_TrackerClosedRounds)->Iterations(20)->Unit(benchmark::kMillisecond);

void BM_SerialSwarmLoopRounds(benchmark::State& state) {
  constexpr std::size_t kSwarms = 100;
  constexpr std::size_t kPeers = 16;
  const auto capacities =
      bt::BandwidthModel::saroiu2002().representative_sample(kSwarms * kPeers);
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
    bt::SwarmConfig cfg = tracker_member_config();
    cfg.num_peers = kPeers;
    slot->swarm.emplace(cfg, caps, slot->rng);
    slots.push_back(std::move(slot));
  }
  for (auto _ : state) {
    for (auto& slot : slots) slot->swarm->run_round();
    benchmark::DoNotOptimize(slots.back()->swarm->rounds_elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSwarms));
}
BENCHMARK(BM_SerialSwarmLoopRounds)->Iterations(20)->Unit(benchmark::kMillisecond);

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
  const auto& prof = swarm.phase_profile();
  const auto rounds = static_cast<double>(swarm.rounds_elapsed());
  state.counters["fault_ms"] = prof.fault_seconds * 1000.0 / rounds;
  state.counters["lost_lanes"] = static_cast<double>(prof.fault_lost_lanes);
  state.counters["connect_failures"] = static_cast<double>(prof.fault_connect_failures);
  state.counters["degraded_peers"] = static_cast<double>(prof.fault_degraded_peers);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPeers));
}
BENCHMARK(BM_SwarmFaults)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RarestFirstPick(benchmark::State& state) {
  const auto pieces = static_cast<std::size_t>(state.range(0));
  graph::Rng rng(2);
  bt::PiecePicker picker(pieces);
  bt::Bitfield local(pieces);
  bt::Bitfield remote(pieces);
  for (bt::PieceId i = 0; i < pieces; ++i) {
    const auto copies = static_cast<std::uint32_t>(rng.below(20));
    for (std::uint32_t c = 0; c < copies; ++c) picker.add_availability(i);
    if (rng.bernoulli(0.5)) local.set(i);
    if (rng.bernoulli(0.7)) remote.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(picker.pick_rarest(local, remote, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pieces));
}
BENCHMARK(BM_RarestFirstPick)->Arg(256)->Arg(4096);

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
