// Tests for the swarm features added beyond the basic round loop:
// departures, rate smoothing, seed capacity, availability statistics,
// leech-phase rates and stratification windows.
#include <gtest/gtest.h>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/swarm.hpp"
#include "run_state.hpp"

namespace strat::bt {
namespace {

TEST(SwarmExtensions, DepartureRemovesUploaders) {
  graph::Rng rng(1);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.7;
  cfg.stay_as_seed = false;
  Swarm swarm(cfg, bandwidths(30, 800.0), rng);
  swarm.run(200);
  ASSERT_GT(swarm.completed_leechers(), 20u);
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.stats(p).pieces == 16u) {
      EXPECT_TRUE(swarm.departed(p)) << "completed leecher " << p << " should depart";
    }
  }
  // Seeds never depart.
  EXPECT_FALSE(swarm.departed(30));
  EXPECT_FALSE(swarm.departed(31));
  // Departed peers stop uploading: run more rounds and check their
  // upload counters freeze.
  std::vector<double> uploaded(30);
  for (core::PeerId p = 0; p < 30; ++p) uploaded[p] = swarm.stats(p).uploaded_kb;
  swarm.run(10);
  for (core::PeerId p = 0; p < 30; ++p) {
    if (swarm.departed(p)) {
      EXPECT_DOUBLE_EQ(swarm.stats(p).uploaded_kb, uploaded[p]) << "peer " << p;
    }
  }
}

TEST(SwarmExtensions, StayAsSeedKeepsUploading) {
  graph::Rng rng(2);
  SwarmConfig cfg;
  cfg.num_peers = 20;
  cfg.seeds = 1;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 8.0;
  cfg.initial_completion = 0.7;
  cfg.stay_as_seed = true;
  Swarm swarm(cfg, bandwidths(20, 800.0), rng);
  swarm.run(100);
  for (core::PeerId p = 0; p < 20; ++p) EXPECT_FALSE(swarm.departed(p));
}

TEST(SwarmExtensions, SeedCapacityDefaultsToMedian) {
  graph::Rng rng(3);
  SwarmConfig cfg;
  cfg.num_peers = 5;
  cfg.seeds = 1;
  cfg.num_pieces = 8;
  cfg.neighbor_degree = 3.0;
  std::vector<double> bw{100.0, 200.0, 300.0, 400.0, 500.0};
  const Swarm swarm(cfg, bw, rng);
  EXPECT_DOUBLE_EQ(swarm.stats(5).upload_kbps, 300.0);  // median
}

TEST(SwarmExtensions, SeedCapacityOverride) {
  graph::Rng rng(4);
  SwarmConfig cfg;
  cfg.num_peers = 5;
  cfg.seeds = 1;
  cfg.num_pieces = 8;
  cfg.neighbor_degree = 3.0;
  cfg.seed_upload_kbps = 1234.0;
  const Swarm swarm(cfg, bandwidths(5), rng);
  EXPECT_DOUBLE_EQ(swarm.stats(5).upload_kbps, 1234.0);
}

TEST(SwarmExtensions, AvailabilityStatsTrackPieceSpread) {
  graph::Rng rng(5);
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 16.0;
  cfg.post_flashcrowd = false;  // only the seed holds pieces
  Swarm swarm(cfg, bandwidths(40), rng);
  const auto before = swarm.availability_stats();
  EXPECT_DOUBLE_EQ(before.mean, 1.0);  // exactly the seed's copy
  EXPECT_EQ(before.min, 1u);
  EXPECT_EQ(before.max, 1u);
  EXPECT_DOUBLE_EQ(before.coefficient_of_variation, 0.0);
  swarm.run(40);
  const auto after = swarm.availability_stats();
  EXPECT_GT(after.mean, before.mean);  // pieces spread
  EXPECT_GE(after.max, after.min);
}

TEST(SwarmExtensions, RarestFirstReducesDispersionFromFlashCrowd) {
  // Availability dispersion rises while the seed is the only source,
  // peaks, then falls as rarest-first replicates the scarce pieces —
  // establishing the post-flash-crowd regime of §6. Compare the early
  // peak against the late phase (mirrors bench/swarm_flashcrowd).
  graph::Rng rng(6);
  SwarmConfig cfg;
  cfg.num_peers = 100;
  cfg.seeds = 1;
  cfg.num_pieces = 256;
  cfg.piece_kb = 128.0;
  cfg.neighbor_degree = 25.0;
  cfg.post_flashcrowd = false;
  const BandwidthModel model = BandwidthModel::saroiu2002();
  Swarm swarm(cfg, model.representative_sample(100), rng);
  swarm.run(10);
  const double peak_cv = swarm.availability_stats().coefficient_of_variation;
  swarm.run(50);
  const double late_cv = swarm.availability_stats().coefficient_of_variation;
  EXPECT_GT(peak_cv, 1.0);  // flash crowd: wildly uneven
  EXPECT_LT(late_cv, peak_cv * 0.6);
}

TEST(SwarmExtensions, LeechRateStopsAtCompletion) {
  graph::Rng rng(7);
  SwarmConfig cfg;
  cfg.num_peers = 20;
  cfg.seeds = 2;
  cfg.num_pieces = 16;
  cfg.piece_kb = 8.0;
  cfg.neighbor_degree = 10.0;
  cfg.initial_completion = 0.6;
  Swarm swarm(cfg, bandwidths(20, 800.0), rng);
  swarm.run(100);
  for (core::PeerId p = 0; p < 20; ++p) {
    const auto& stats = swarm.stats(p);
    if (stats.completion_round < 0.0) continue;
    const double expected = stats.downloaded_kb * 8.0 /
                            (stats.completion_round * cfg.round_seconds);
    EXPECT_NEAR(swarm.leech_download_kbps(p), expected, 1e-9);
  }
}

TEST(SwarmExtensions, ResetStratificationClearsHistory) {
  graph::Rng rng(8);
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 1;
  cfg.num_pieces = 512;
  cfg.piece_kb = 512.0;
  cfg.neighbor_degree = 15.0;
  cfg.initial_completion = 0.5;
  Swarm swarm(cfg, bandwidths(40), rng);
  swarm.run(10);
  EXPECT_GT(swarm.stratification().reciprocated_pairs, 0u);
  swarm.reset_stratification();
  EXPECT_EQ(swarm.stratification().reciprocated_pairs, 0u);
  swarm.run(5);
  EXPECT_GT(swarm.stratification().reciprocated_pairs, 0u);
}

TEST(SwarmExtensions, RateSmoothingBoundsRespected) {
  // Degenerate alpha = 1.0 (raw last round) must still run fine.
  graph::Rng rng(9);
  SwarmConfig cfg;
  cfg.num_peers = 30;
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 32.0;
  cfg.rate_smoothing = 1.0;
  Swarm swarm(cfg, bandwidths(30), rng);
  swarm.run(20);
  double down = 0.0;
  for (core::PeerId p = 0; p < 30; ++p) down += swarm.stats(p).downloaded_kb;
  EXPECT_GT(down, 0.0);
}

}  // namespace
}  // namespace strat::bt
