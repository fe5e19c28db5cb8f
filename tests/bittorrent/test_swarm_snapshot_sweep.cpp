// Exhaustive checkpoint sweep (slow suite): at n=5000 churned peers,
// save at EVERY round boundary of the run and resume each snapshot
// under threads 1, 2 and 8 — all 3 * (rounds + 1) continuations must
// land bitwise on the uninterrupted end state. The tier-1 snapshot
// tests spot-check a handful of save rounds; this sweep closes the
// gap nightly by proving no round leaves hidden state out of the
// stream (mid-endgame reservations, freshly compacted rows, stale
// free-list tails — whatever a particular round boundary happens to
// hold).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "run_state.hpp"

namespace strat::bt {
namespace {

constexpr std::uint64_t kSeed = 90;
constexpr std::size_t kPeers = 5000;
constexpr std::size_t kRounds = 30;

SwarmConfig sweep_config() {
  SwarmConfig cfg;
  cfg.num_peers = kPeers;
  cfg.seeds = 4;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.neighbor_degree = 14.0;
  cfg.initial_completion = 0.5;
  cfg.endgame = true;
  cfg.stay_as_seed = false;
  return cfg;
}

ChurnSpec sweep_spec() {
  ChurnSpec spec;
  spec.arrivals = ChurnSpec::Arrivals::kPoisson;
  spec.arrival_rate = 20.0;
  spec.arrival_completion = 0.4;
  spec.lifetime = ChurnSpec::Lifetime::kExponential;
  spec.lifetime_rounds = 25.0;
  spec.replacement_rate = 20.0;
  spec.reannounce_interval = 5;
  return spec;
}

TEST(SwarmSnapshotSweep, EveryRoundEveryThreadCountResumesIdentically) {
  const SwarmConfig cfg = sweep_config();

  // One uninterrupted run, checkpointing (swarm + churn driver) at
  // every round boundary, 0 through kRounds inclusive.
  std::vector<std::string> swarm_snaps;
  std::vector<std::string> churn_snaps;
  graph::Rng rng(kSeed);
  Swarm swarm(cfg, capacities(kPeers), rng);
  ChurnDriver<Swarm> churn(sweep_spec(), cfg, capacities(kPeers), rng);
  churn.attach(swarm);
  auto checkpoint = [&] {
    swarm_snaps.push_back(save_to_string(swarm));
    save_churn_driver(churn_snaps.emplace_back(), churn);
  };
  checkpoint();
  for (std::size_t r = 0; r < kRounds; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
    checkpoint();
  }
  const RunState expected = run_state_of(swarm, rng, /*draws=*/1);

  for (std::size_t save_round = 0; save_round <= kRounds; ++save_round) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SwarmConfig resumed_cfg = cfg;
      resumed_cfg.threads = threads;
      graph::Rng resumed_rng;
      snapshot_detail::Reader in(swarm_snaps[save_round]);
      Swarm resumed = Swarm::resume(in, resumed_rng, &resumed_cfg);
      ASSERT_EQ(resumed.rounds_elapsed(), save_round);
      ChurnDriver<Swarm> resumed_churn(sweep_spec(), cfg, capacities(kPeers), resumed_rng);
      snapshot_detail::Reader churn_in(churn_snaps[save_round]);
      restore_churn_driver(churn_in, resumed_churn);
      for (std::size_t r = save_round; r < kRounds; ++r) {
        resumed_churn.before_round(resumed);
        resumed.run_round();
      }
      ASSERT_TRUE(same_run(expected, run_state_of(resumed, resumed_rng, /*draws=*/1)))
          << "save round " << save_round << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace strat::bt
