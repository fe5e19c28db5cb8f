// Monte-Carlo churn workload at protocol scale (slow label; enable
// with -DSTRAT_RUN_SLOW_TESTS=ON): the protocol-level analogue of the
// paper's Figure 3 claim — replacement churn at the x/1000 rates does
// not destroy stratification — checked on a 5000-peer swarm, plus the
// structural invariants (Swarm::audit()) at that scale.
#include <gtest/gtest.h>

#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"
#include "run_state.hpp"

namespace strat::bt {
namespace {

TEST(SwarmChurnHeavy, StratificationSurvivesReplacementChurnAt5000Peers) {
  constexpr std::size_t kPeers = 5000;
  SwarmConfig cfg;
  cfg.num_peers = kPeers;
  cfg.seeds = 5;
  cfg.num_pieces = 1024;
  cfg.piece_kb = 1024.0;  // long-lived content: the window stays leecher-dominated
  cfg.neighbor_degree = 25.0;
  cfg.initial_completion = 0.5;
  const std::vector<double> bw = capacities(kPeers);

  ChurnSpec spec;
  spec.replacement_rate = paper_replacement_rate(5.0, kPeers);  // 25 events/round
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 10;

  graph::Rng rng(424242);
  Swarm swarm(cfg, bw, rng);
  ChurnDriver<Swarm> churn(spec, cfg, bw, rng);
  churn.attach(swarm);
  for (std::size_t r = 0; r < 20; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }
  swarm.reset_stratification();
  for (std::size_t r = 0; r < 30; ++r) {
    churn.before_round(swarm);
    swarm.run_round();
  }

  EXPECT_GT(swarm.arrivals(), 400u);  // ~25/round * 50 rounds, Poisson
  EXPECT_GT(swarm.departures(), 400u);

  // Slot pool stays tight and availability == live holdings at scale.
  EXPECT_NO_THROW(swarm.audit());

  // The Figure 3 claim at the protocol level: moderate replacement
  // churn leaves the TFT stratification clearly visible.
  const StratificationReport report = swarm.stratification();
  EXPECT_GT(report.reciprocated_pairs, 10000u);
  EXPECT_GT(report.partner_rank_correlation, 0.5);
}

}  // namespace
}  // namespace strat::bt
