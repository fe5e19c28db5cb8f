// Deterministic intra-round parallelism: for one seed, runs must be
// bitwise identical at every SwarmConfig::threads value — the per-peer
// counter-based choke and transfer streams make the score/select and
// transfer-plan phases independent of row order and worker count — and
// still bitwise equal to the always-serial map-based ReferenceSwarm
// (which runs the same two-stage plan/commit transfer algorithm
// serially). Exercised on a static endgame run, fully churned runs
// (Poisson arrivals, exponential lifetimes, replacement events,
// re-announce sweeps, completion departures), a heavy-churn run that
// forces the transfer commit's conflict-rerun path, and a
// completion-wave run where departures cascade mid-commit — at 400+
// peers, large enough that the chunked phases really fan out
// (kRowGrain rows per chunk); the TSan CI job runs this binary to
// certify the fan-out data-race-free.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"
#include "run_state.hpp"

namespace strat::bt {
namespace {

constexpr std::uint64_t kSeed = 90;
constexpr std::size_t kRounds = 40;

SwarmConfig base_config(std::size_t peers) {
  SwarmConfig cfg;
  cfg.num_peers = peers;
  cfg.seeds = 2;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.5;
  cfg.endgame = true;           // endgame picks read the serial incoming-unchoke count
  cfg.stay_as_seed = false;     // completion departures compact mid-round
  return cfg;
}

ChurnSpec churny_spec() {
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 2.0;
  spec.arrival_completion = 0.4;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 25.0;
  spec.replacement_rate = 2.0;
  spec.reannounce_interval = 5;
  return spec;
}

ChurnSpec heavy_churn_spec() {
  // Aggressive enough that a large fraction of the population turns
  // over within the run: many transfer plans go stale (receivers depart
  // or get fed by faster senders), driving the commit stage's conflict
  // rerun path hard instead of just the happy path.
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 6.0;
  spec.arrival_completion = 0.7;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 8.0;
  spec.replacement_rate = 4.0;
  spec.reannounce_interval = 3;
  return spec;
}

template <typename SwarmT>
RunState run_plane_spec(const SwarmConfig& cfg, std::size_t peers, const ChurnSpec* spec,
                        Swarm::PhaseProfile* profile = nullptr) {
  graph::Rng rng(kSeed);
  SwarmT swarm(cfg, capacities(peers), rng);
  if (spec == nullptr) {
    swarm.run(kRounds);
  } else {
    ChurnDriver<SwarmT> churn(*spec, cfg, capacities(peers), rng);
    churn.attach(swarm);
    for (std::size_t r = 0; r < kRounds; ++r) {
      churn.before_round(swarm);
      swarm.run_round();
    }
  }
  if constexpr (std::is_same_v<SwarmT, Swarm>) {
    if (profile != nullptr) *profile = swarm.phase_profile();
  }
  return run_state_of(swarm, rng);
}

template <typename SwarmT>
RunState run_plane(const SwarmConfig& cfg, std::size_t peers, bool churned) {
  const ChurnSpec spec = churny_spec();
  return run_plane_spec<SwarmT>(cfg, peers, churned ? &spec : nullptr);
}

void expect_thread_invariant(bool churned) {
  constexpr std::size_t kPeers = 600;
  SwarmConfig cfg = base_config(kPeers);
  cfg.threads = 1;
  const RunState serial = run_plane<Swarm>(cfg, kPeers, churned);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.threads = threads;
    const RunState threaded = run_plane<Swarm>(cfg, kPeers, churned);
    EXPECT_TRUE(same_run(serial, threaded)) << "threads=" << threads << " vs 1";
  }
  // The always-serial oracle accepts (and ignores) the threads knob
  // and must still match bitwise.
  cfg.threads = 8;
  const RunState oracle = run_plane<ReferenceSwarm>(cfg, kPeers, churned);
  EXPECT_TRUE(same_run(serial, oracle)) << "reference vs flat";
}

TEST(SwarmThreads, StaticEndgameRunIsThreadCountInvariant) {
  expect_thread_invariant(/*churned=*/false);
}

TEST(SwarmThreads, ChurnedEndgameRunIsThreadCountInvariant) {
  expect_thread_invariant(/*churned=*/true);
}

TEST(SwarmThreads, AutoThreadsMatchesSerial) {
  // threads = 0 resolves to the hardware concurrency; still bitwise.
  constexpr std::size_t kPeers = 300;
  SwarmConfig cfg = base_config(kPeers);
  cfg.threads = 1;
  const RunState serial = run_plane<Swarm>(cfg, kPeers, /*churned=*/true);
  cfg.threads = 0;
  const RunState autod = run_plane<Swarm>(cfg, kPeers, /*churned=*/true);
  EXPECT_TRUE(same_run(serial, autod)) << "threads=auto vs 1";
}

TEST(SwarmThreads, HeavyChurnRunIsThreadCountInvariant) {
  // Heavy turnover makes many speculative transfer plans go stale at
  // commit (receiver departed, piece completed by another sender,
  // partial progress moved) — the conflict-rerun path must be exercised
  // and still bitwise thread-count-invariant.
  constexpr std::size_t kPeers = 600;
  SwarmConfig cfg = base_config(kPeers);
  const ChurnSpec spec = heavy_churn_spec();
  cfg.threads = 1;
  const RunState serial = run_plane_spec<Swarm>(cfg, kPeers, &spec);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    cfg.threads = threads;
    const RunState threaded = run_plane_spec<Swarm>(cfg, kPeers, &spec);
    EXPECT_TRUE(same_run(serial, threaded)) << "heavy churn threads vs 1";
  }
  cfg.threads = 8;
  const RunState oracle = run_plane_spec<ReferenceSwarm>(cfg, kPeers, &spec);
  EXPECT_TRUE(same_run(serial, oracle)) << "heavy churn reference vs flat";
}

TEST(SwarmThreads, CompletionWaveDeparturesAreThreadCountInvariant) {
  // Nearly-done leechers with few pieces left: completion departures
  // cascade mid-round (a receiver departs while later senders still
  // hold plans that target it, and row compaction moves live senders'
  // rows mid-commit). Every thread count must agree bitwise, and the
  // serial oracle too.
  constexpr std::size_t kPeers = 400;
  SwarmConfig cfg = base_config(kPeers);
  cfg.num_pieces = 32;
  cfg.initial_completion = 0.9;
  cfg.threads = 1;
  const RunState serial = run_plane_spec<Swarm>(cfg, kPeers, nullptr);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    cfg.threads = threads;
    const RunState threaded = run_plane_spec<Swarm>(cfg, kPeers, nullptr);
    EXPECT_TRUE(same_run(serial, threaded)) << "completion wave threads vs 1";
  }
  cfg.threads = 8;
  const RunState oracle = run_plane_spec<ReferenceSwarm>(cfg, kPeers, nullptr);
  EXPECT_TRUE(same_run(serial, oracle)) << "completion wave reference vs flat";
}

TEST(SwarmThreads, ConflictRerunCountersAreThreadCountInvariant) {
  // The plans and their staleness verdicts are a function of the
  // snapshot and the serial commit order alone, so the conflict
  // counters — not just the simulation state — must agree at every
  // thread count. No tight bound on the fraction here: this toy config
  // (64 pieces of 32 KB against ~600 KB/round budgets) completes
  // several pieces per lane per round, so rarest-first concentrates
  // fresh picks onto the same shrinking tie set and most lanes
  // legitimately go stale. RealisticPieceEconomyKeepsRerunsMinor below
  // bounds the fraction at a production-shaped piece economy.
  constexpr std::size_t kPeers = 600;
  SwarmConfig cfg = base_config(kPeers);
  const ChurnSpec spec = heavy_churn_spec();
  cfg.threads = 1;
  Swarm::PhaseProfile serial_prof;
  run_plane_spec<Swarm>(cfg, kPeers, &spec, &serial_prof);
  EXPECT_GT(serial_prof.transfer_lanes, 0u);
  EXPECT_GT(serial_prof.transfer_reruns, 0u) << "heavy churn should force stale plans";
  EXPECT_LT(serial_prof.rerun_fraction(), 1.0);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    cfg.threads = threads;
    Swarm::PhaseProfile prof;
    run_plane_spec<Swarm>(cfg, kPeers, &spec, &prof);
    EXPECT_EQ(serial_prof.transfer_lanes, prof.transfer_lanes) << "threads=" << threads;
    EXPECT_EQ(serial_prof.transfer_reruns, prof.transfer_reruns) << "threads=" << threads;
  }
}

TEST(SwarmThreads, RealisticPieceEconomyKeepsRerunsMinor) {
  // The speculative compute stage only pays off if the commit stage
  // rarely has to re-drive lanes. At a production-shaped piece economy
  // (1 MB pieces, ~1 piece completed per lane every several rounds —
  // unlike the deliberately piece-starved toy config above) a churned
  // 10^4-peer run must keep the stale-lane fraction a small minority.
  // Measured 0.096 at this exact config; the bound is the acceptance
  // bar, not a snug fit, so algorithm changes that genuinely move the
  // conflict rate will trip it.
  SwarmConfig cfg;
  cfg.num_peers = 10000;
  cfg.seeds = 5;
  cfg.num_pieces = 1024;
  cfg.piece_kb = 1024.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.3;
  cfg.endgame = true;
  cfg.stay_as_seed = false;
  cfg.threads = 1;
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 20.0;
  spec.arrival_completion = 0.3;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 50.0;
  spec.replacement_rate = 10.0;
  spec.reannounce_interval = 5;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(cfg.num_peers), rng);
  ChurnDriver<Swarm> churn(spec, cfg, capacities(cfg.num_peers), rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 20; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  const auto& prof = swarm.phase_profile();
  EXPECT_GT(prof.transfer_reruns, 0u);
  EXPECT_LT(prof.rerun_fraction(), 0.10);
}

TEST(SwarmThreads, PhaseProfileAccumulates) {
  constexpr std::size_t kPeers = 120;
  SwarmConfig cfg = base_config(kPeers);
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  swarm.run(5);
  const auto& prof = swarm.phase_profile();
  EXPECT_GT(prof.choke_seconds, 0.0);
  EXPECT_GT(prof.transfer_seconds, 0.0);
  EXPECT_GT(prof.fold_seconds, 0.0);
  // The transfer breakdown nests inside transfer_seconds: compute and
  // commit partition the phase, and reruns happen inside the commit.
  EXPECT_GT(prof.transfer_compute_seconds, 0.0);
  EXPECT_GT(prof.transfer_commit_seconds, 0.0);
  EXPECT_LE(prof.transfer_compute_seconds + prof.transfer_commit_seconds,
            prof.transfer_seconds + 1e-6);
  EXPECT_LE(prof.transfer_rerun_seconds, prof.transfer_commit_seconds + 1e-9);
  EXPECT_GT(prof.transfer_lanes, 0u);
  EXPECT_GE(prof.rerun_fraction(), 0.0);
  EXPECT_LE(prof.rerun_fraction(), 1.0);
}

}  // namespace
}  // namespace strat::bt
