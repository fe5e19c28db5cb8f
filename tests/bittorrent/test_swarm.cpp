#include "bittorrent/swarm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/reference_swarm.hpp"

namespace strat::bt {
namespace {

SwarmConfig small_config() {
  SwarmConfig cfg;
  cfg.num_peers = 40;
  cfg.seeds = 1;
  cfg.num_pieces = 64;
  cfg.piece_kb = 64.0;
  cfg.neighbor_degree = 12.0;
  return cfg;
}

std::vector<double> uniform_bandwidths(std::size_t n, double kbps = 400.0) {
  // Strictly distinct to keep ranks unambiguous.
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = kbps * (1.0 + 0.001 * static_cast<double>(i));
  }
  return out;
}

TEST(Swarm, Validation) {
  graph::Rng rng(1);
  SwarmConfig cfg = small_config();
  EXPECT_THROW(Swarm(cfg, uniform_bandwidths(5), rng), std::invalid_argument);
  cfg.num_peers = 1;
  EXPECT_THROW(Swarm(cfg, uniform_bandwidths(1), rng), std::invalid_argument);
  cfg = small_config();
  cfg.num_pieces = 0;
  EXPECT_THROW(Swarm(cfg, uniform_bandwidths(40), rng), std::invalid_argument);
  cfg = small_config();
  cfg.initial_completion = 1.0;
  EXPECT_THROW(Swarm(cfg, uniform_bandwidths(40), rng), std::invalid_argument);
}

// Every capacity entry point of both data planes applies one rule:
// finite and positive, where the constructor also admits 0 kbps (a
// leecher that never uploads). A NaN reaching the rank sort would be
// undefined behaviour, and +inf an unbounded upload budget.
template <typename Plane>
void expect_capacity_entry_points_validated() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const SwarmConfig cfg = small_config();
  for (const double bad : {nan, inf, -inf, -50.0}) {
    std::vector<double> caps = uniform_bandwidths(40);
    caps[17] = bad;
    graph::Rng rng(3);
    EXPECT_THROW(Plane(cfg, caps, rng), std::invalid_argument) << bad;
  }
  for (const double bad : {nan, inf, -inf}) {
    SwarmConfig seeded = cfg;
    seeded.seed_upload_kbps = bad;
    graph::Rng rng(3);
    EXPECT_THROW(Plane(seeded, uniform_bandwidths(40), rng), std::invalid_argument) << bad;
  }
  {
    std::vector<double> caps = uniform_bandwidths(40);
    caps[5] = 0.0;
    graph::Rng rng(3);
    EXPECT_NO_THROW(Plane(cfg, caps, rng));
  }
  graph::Rng rng(4);
  Plane swarm(cfg, uniform_bandwidths(40), rng);
  for (const double bad : {nan, inf, -inf, 0.0, -50.0}) {
    EXPECT_THROW((void)swarm.join(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)swarm.join(bad, Bitfield(cfg.num_pieces)), std::invalid_argument) << bad;
    EXPECT_THROW(swarm.set_upload_capacity(3, bad), std::invalid_argument) << bad;
  }
  // Rejected calls leave the swarm as it was, and valid ones still land.
  EXPECT_EQ(swarm.peer_count(), 41u);
  EXPECT_EQ(swarm.stats(3).upload_kbps, uniform_bandwidths(40)[3]);
  swarm.set_upload_capacity(3, 123.0);
  EXPECT_EQ(swarm.stats(3).upload_kbps, 123.0);
  EXPECT_EQ(swarm.join(250.0), 41u);
}

TEST(Swarm, CapacityEntryPointsRejectNonFiniteInBothPlanes) {
  expect_capacity_entry_points_validated<Swarm>();
  expect_capacity_entry_points_validated<ReferenceSwarm>();
}

TEST(Swarm, InitialStatePostFlashCrowd) {
  graph::Rng rng(2);
  SwarmConfig cfg = small_config();
  cfg.initial_completion = 0.5;
  const Swarm swarm(cfg, uniform_bandwidths(40), rng);
  EXPECT_EQ(swarm.peer_count(), 41u);  // 40 leechers + 1 seed
  // The seed holds everything.
  EXPECT_EQ(swarm.stats(40).pieces, 64u);
  EXPECT_TRUE(swarm.stats(40).seed);
  // Leechers start around half completion.
  double total = 0.0;
  for (core::PeerId p = 0; p < 40; ++p) {
    total += static_cast<double>(swarm.stats(p).pieces);
    EXPECT_FALSE(swarm.stats(p).seed);
  }
  EXPECT_NEAR(total / (40.0 * 64.0), 0.5, 0.08);
}

TEST(Swarm, FlashCrowdStartsEmpty) {
  graph::Rng rng(3);
  SwarmConfig cfg = small_config();
  cfg.post_flashcrowd = false;
  const Swarm swarm(cfg, uniform_bandwidths(40), rng);
  for (core::PeerId p = 0; p < 40; ++p) EXPECT_EQ(swarm.stats(p).pieces, 0u);
}

TEST(Swarm, DataFlowsAndConservationHolds) {
  graph::Rng rng(4);
  SwarmConfig cfg = small_config();
  Swarm swarm(cfg, uniform_bandwidths(40), rng);
  swarm.run(10);
  double uploaded = 0.0;
  double downloaded = 0.0;
  for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
    uploaded += swarm.stats(p).uploaded_kb;
    downloaded += swarm.stats(p).downloaded_kb;
  }
  EXPECT_GT(uploaded, 0.0);
  EXPECT_NEAR(uploaded, downloaded, 1e-6);
}

TEST(Swarm, UploadRespectsCapacity) {
  graph::Rng rng(5);
  SwarmConfig cfg = small_config();
  const auto bw = uniform_bandwidths(40, 200.0);
  Swarm swarm(cfg, bw, rng);
  const std::size_t rounds = 20;
  swarm.run(rounds);
  const double seconds = static_cast<double>(rounds) * cfg.round_seconds;
  for (core::PeerId p = 0; p < 40; ++p) {
    const double max_kb = swarm.stats(p).upload_kbps / 8.0 * seconds;
    EXPECT_LE(swarm.stats(p).uploaded_kb, max_kb + 1e-6) << "peer " << p;
  }
}

TEST(Swarm, PiecesOnlyIncrease) {
  graph::Rng rng(6);
  Swarm swarm(small_config(), uniform_bandwidths(40), rng);
  std::vector<std::size_t> before(40);
  for (core::PeerId p = 0; p < 40; ++p) before[p] = swarm.stats(p).pieces;
  swarm.run(5);
  for (core::PeerId p = 0; p < 40; ++p) {
    EXPECT_GE(swarm.stats(p).pieces, before[p]);
    EXPECT_LE(swarm.stats(p).pieces, 64u);
  }
}

TEST(Swarm, LeechersEventuallyComplete) {
  graph::Rng rng(7);
  SwarmConfig cfg = small_config();
  cfg.num_pieces = 32;
  cfg.piece_kb = 16.0;
  cfg.initial_completion = 0.6;
  Swarm swarm(cfg, uniform_bandwidths(40, 800.0), rng);
  swarm.run(300);
  EXPECT_GT(swarm.completed_leechers(), 30u);
  // Completion rounds recorded and within the horizon.
  for (core::PeerId p = 0; p < 40; ++p) {
    if (swarm.stats(p).pieces == 32u) {
      EXPECT_GE(swarm.stats(p).completion_round, 0.0);
      EXPECT_LE(swarm.stats(p).completion_round, 300.0);
    }
  }
}

TEST(Swarm, MeanDownloadRateIsPositiveForLeechers) {
  graph::Rng rng(8);
  Swarm swarm(small_config(), uniform_bandwidths(40), rng);
  swarm.run(20);
  std::size_t receiving = 0;
  for (core::PeerId p = 0; p < 40; ++p) {
    if (swarm.mean_download_kbps(p) > 0.0) ++receiving;
  }
  EXPECT_GT(receiving, 30u);
}

TEST(Swarm, StratificationEmergesWithWideBandwidths) {
  // The paper's central claim at the protocol level: with a wide
  // bandwidth distribution, reciprocated TFT partners end up rank-close.
  // A large payload keeps every peer leeching through the measurement
  // window; the bootstrap phase is excluded via reset_stratification().
  graph::Rng rng(9);
  SwarmConfig cfg;
  cfg.num_peers = 120;
  cfg.seeds = 1;
  cfg.num_pieces = 2048;
  cfg.piece_kb = 1024.0;
  cfg.neighbor_degree = 30.0;
  cfg.initial_completion = 0.5;
  const BandwidthModel model = BandwidthModel::saroiu2002();
  std::vector<double> bw = model.representative_sample(120);
  Swarm swarm(cfg, bw, rng);
  swarm.run(20);  // burn-in: TFT lock-in takes a few choke intervals
  swarm.reset_stratification();
  swarm.run(30);
  const StratificationReport report = swarm.stratification();
  EXPECT_GT(report.reciprocated_pairs, 100u);
  EXPECT_GT(report.partner_rank_correlation, 0.5);
  // Random pairing would sit around 1/3; stratified exchange is far
  // tighter.
  EXPECT_LT(report.mean_normalized_offset, 0.27);
}

TEST(Swarm, ReciprocatedPairsAreMutualAndOrdered) {
  graph::Rng rng(10);
  Swarm swarm(small_config(), uniform_bandwidths(40), rng);
  swarm.run(5);
  for (const auto& [better, worse] : swarm.reciprocated_pairs()) {
    EXPECT_LT(better, 40u);
    EXPECT_LT(worse, 40u);
    EXPECT_NE(better, worse);
    // `better` has at least the bandwidth of `worse` (ranks ordered).
    EXPECT_GE(swarm.stats(better).upload_kbps, swarm.stats(worse).upload_kbps);
  }
}

TEST(Swarm, SeedsUploadButNeverDownload) {
  graph::Rng rng(11);
  SwarmConfig cfg = small_config();
  cfg.seeds = 2;
  Swarm swarm(cfg, uniform_bandwidths(40), rng);
  swarm.run(15);
  for (core::PeerId s = 40; s < 42; ++s) {
    EXPECT_DOUBLE_EQ(swarm.stats(s).downloaded_kb, 0.0);
    EXPECT_GT(swarm.stats(s).uploaded_kb, 0.0);
  }
}

TEST(Swarm, DeterministicForFixedSeed) {
  SwarmConfig cfg = small_config();
  auto run_once = [&](std::uint64_t seed) {
    graph::Rng rng(seed);
    Swarm swarm(cfg, uniform_bandwidths(40), rng);
    swarm.run(10);
    double fingerprint = 0.0;
    for (core::PeerId p = 0; p < swarm.peer_count(); ++p) {
      fingerprint += swarm.stats(p).downloaded_kb * static_cast<double>(p + 1);
    }
    return fingerprint;
  };
  EXPECT_DOUBLE_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace strat::bt
