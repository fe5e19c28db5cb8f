// Regression tests for the swarm state bugs fixed alongside the CSR
// data-plane rewrite: departed leechers leaking piece availability,
// construction-complete leechers never departing, and upload budget
// stranded mid-round being discarded instead of redistributed.
#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "run_state.hpp"

namespace strat::bt {
namespace {

TEST(SwarmBugfixes, DepartureDecrementsAvailability) {
  // Pre-fix, a departed leecher's copies stayed in the PiecePicker
  // forever, skewing rarest-first and inflating availability_stats().
  graph::Rng rng(21);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.7;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(30, 800.0), rng);
  for (int step = 0; step < 20; ++step) {
    swarm.run(10);
    // audit() recounts availability from the live bitfields.
    EXPECT_NO_THROW(swarm.audit()) << "after " << swarm.rounds_elapsed() << " rounds";
  }
  // The scenario must actually exercise departures.
  std::size_t departures = 0;
  for (core::PeerId p = 0; p < 30; ++p) departures += swarm.departed(p) ? 1u : 0u;
  EXPECT_GT(departures, 10u);
}

TEST(SwarmBugfixes, ConstructionCompleteLeecherIsConsistent) {
  // With few pieces and a high starting fraction, some leechers draw a
  // complete bitfield at construction. Pre-fix they kept
  // completion_round = -1, never departed, and leech_download_kbps()
  // divided their zero download by the whole run length.
  graph::Rng rng(22);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 1;
  cfg.num_pieces = 4;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.9;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(30), rng);
  std::size_t born_complete = 0;
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.stats(p).pieces == 4u) {
      ++born_complete;
      EXPECT_DOUBLE_EQ(swarm.stats(p).completion_round, 0.0) << "peer " << p;
      EXPECT_TRUE(swarm.departed(p)) << "peer " << p;
    }
  }
  ASSERT_GT(born_complete, 0u) << "scenario must produce construction-complete leechers";
  // Their copies are not counted as available.
  EXPECT_NO_THROW(swarm.audit());
  swarm.run(50);
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.stats(p).completion_round == 0.0 && !swarm.stats(p).seed) {
      // Rate over a zero-round leeching phase is zero, not
      // download / full-run-length.
      EXPECT_DOUBLE_EQ(swarm.leech_download_kbps(p), 0.0) << "peer " << p;
      EXPECT_DOUBLE_EQ(swarm.stats(p).downloaded_kb, 0.0) << "peer " << p;
    }
  }
}

TEST(SwarmBugfixes, StrandedBudgetRedistributedWithinRound) {
  // One seed (24 kbps -> 30 KB per round), a relaying leecher A (fast)
  // and a capacity-less leecher B on a complete 3-vertex overlay. B
  // receives from both the seed and A, so it finishes first; in B's
  // completion round its leftover share must flow to A. Pre-fix the
  // seed silently discarded it, shipping less than its budget while A
  // was still starving.
  graph::Rng rng(23);
  SwarmConfig cfg;
  cfg.num_peers = 2;
  cfg.seeds = 1;
  cfg.num_pieces = 16;
  cfg.piece_kb = 10.0;
  cfg.neighbor_degree = 2.0;  // p = d/(n-1) = 1: deterministic complete overlay
  cfg.post_flashcrowd = false;
  cfg.seed_upload_kbps = 24.0;
  Swarm swarm(cfg, {80.0, 0.0}, rng);
  const double budget_kb = cfg.seed_upload_kbps / 8.0 * cfg.round_seconds;
  const core::PeerId seed_id = 2;
  double prev_uploaded = 0.0;
  bool saw_partial_completion_round = false;
  for (std::size_t r = 0; r < 60; ++r) {
    const std::size_t done_before = swarm.completed_leechers();
    swarm.run_round();
    const double delta = swarm.stats(seed_id).uploaded_kb - prev_uploaded;
    prev_uploaded = swarm.stats(seed_id).uploaded_kb;
    if (swarm.completed_leechers() < 2) {
      // Someone is still hungry and unchoked (complete overlay): the
      // seed must ship its entire budget, stranded shares included.
      EXPECT_NEAR(delta, budget_kb, 1e-6) << "round " << r;
      if (swarm.completed_leechers() > done_before) saw_partial_completion_round = true;
    }
  }
  EXPECT_EQ(swarm.completed_leechers(), 2u);
  // The scenario must hit the interesting case: a leecher completing
  // while the other still downloads.
  EXPECT_TRUE(saw_partial_completion_round);
  // B (fed by seed + relay) finishes before A (fed by seed only).
  EXPECT_LT(swarm.stats(1).completion_round, swarm.stats(0).completion_round);
}

}  // namespace
}  // namespace strat::bt
