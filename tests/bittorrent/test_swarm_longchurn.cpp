// Long-churn scaling invariants: a stationary open population must
// keep the swarm's per-peer backing storage and per-round cost O(live
// population), not O(arrivals-ever). ~20k replacement events churn
// through a 200-leecher swarm; the dense peer-table compaction is what
// keeps the data plane flat while peer_count() (ids ever) grows into
// the tens of thousands.
#include <gtest/gtest.h>

#include <chrono>

#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"

namespace strat::bt {
namespace {

std::vector<double> bandwidths(std::size_t n, double base = 400.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base * (1.0 + 0.001 * static_cast<double>(i));
  return out;
}

SwarmConfig churn_config() {
  SwarmConfig cfg;
  cfg.num_peers = 200;
  cfg.seeds = 2;
  cfg.num_pieces = 128;
  cfg.piece_kb = 64.0;  // long-lived content: the population stays leecher-heavy
  cfg.neighbor_degree = 16.0;
  cfg.initial_completion = 0.5;
  return cfg;
}

ChurnSpec replacement_spec() {
  ChurnSpec spec;
  spec.replacement_rate = 50.0;  // ~50 replacement events per round
  spec.arrival_completion = 0.5;
  spec.reannounce_interval = 8;
  return spec;
}

/// Runs `rounds` churned rounds and returns (data-plane bytes, seconds)
/// measured at the end of the window.
struct WindowSample {
  std::size_t data_plane_bytes = 0;
  std::size_t edge_slot_capacity = 0;
  double seconds = 0.0;
};

template <typename DriverT>
WindowSample run_window(Swarm& swarm, DriverT& driver, std::size_t rounds) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    driver.before_round(swarm);
    swarm.run_round();
  }
  const auto stop = std::chrono::steady_clock::now();
  WindowSample out;
  const auto fp = swarm.memory_footprint();
  out.data_plane_bytes = fp.peer_state_bytes + fp.edge_slot_bytes;
  out.edge_slot_capacity = swarm.edge_slot_capacity();
  out.seconds = std::chrono::duration<double>(stop - start).count();
  return out;
}

TEST(SwarmLongChurn, DataPlaneStaysBoundedAcross20kReplacements) {
  const SwarmConfig cfg = churn_config();
  const std::vector<double> bw = bandwidths(cfg.num_peers);
  graph::Rng rng(515151);
  Swarm swarm(cfg, bw, rng);
  ChurnDriver<Swarm> driver(replacement_spec(), cfg, bw, rng);
  driver.attach(swarm);

  // Warm-up window: vector capacities reach their live-population
  // high-water marks while the first ~2k replacements flow through.
  const WindowSample early = run_window(swarm, driver, 40);
  ASSERT_GT(swarm.arrivals(), 1000u);

  // Main window: ~18k further replacement events.
  const WindowSample late = run_window(swarm, driver, 360);
  EXPECT_GT(swarm.arrivals(), 15000u);
  EXPECT_GT(swarm.departures(), 15000u);

  // The population is stationary (replacement churn; completed
  // leechers stay as seeds), so live storage must not have grown with
  // the ~10x extra arrivals: O(live), not O(arrivals-ever).
  EXPECT_EQ(swarm.live_peer_count(), cfg.num_peers + cfg.seeds);
  EXPECT_LE(late.data_plane_bytes,
            early.data_plane_bytes + early.data_plane_bytes / 4);
  EXPECT_LE(late.edge_slot_capacity, 2 * early.edge_slot_capacity);
  // The external id space keeps the full arrival history...
  EXPECT_EQ(swarm.peer_count(), cfg.num_peers + cfg.seeds + swarm.arrivals());
  // ...while the dense rows cover only the live population.
  EXPECT_EQ(swarm.peer_table().size(), swarm.live_peer_count());

  // Per-round cost is O(live) too: 9x more cumulative arrivals must
  // not show up in the per-round time. The 5x margin absorbs CI noise;
  // the pre-compaction plane regressed linearly (~10x here).
  EXPECT_LT(late.seconds / 360.0, 5.0 * (early.seconds / 40.0) + 1e-3);

  // Departed peers stay queryable through the retired archive.
  std::size_t departed_seen = 0;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    if (!swarm.departed(p)) continue;
    ++departed_seen;
    EXPECT_GE(swarm.stats(p).leave_round, 0.0);
    EXPECT_EQ(swarm.degree(p), 0u);
  }
  EXPECT_EQ(departed_seen, swarm.departures());
}

}  // namespace
}  // namespace strat::bt
