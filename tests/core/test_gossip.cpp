#include "core/gossip.hpp"

#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace strat::core {
namespace {

TEST(PeerSampling, Validation) {
  graph::Rng rng(1);
  EXPECT_THROW(PeerSampling(1, 1, rng), std::invalid_argument);
  EXPECT_THROW(PeerSampling(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(PeerSampling(10, 10, rng), std::invalid_argument);
}

TEST(PeerSampling, InitialViewsAreValid) {
  graph::Rng rng(2);
  const PeerSampling sampling(50, 8, rng);
  for (PeerId p = 0; p < 50; ++p) {
    const auto& view = sampling.view(p);
    EXPECT_EQ(view.size(), 8u);
    std::set<PeerId> unique(view.begin(), view.end());
    EXPECT_EQ(unique.size(), view.size());
    EXPECT_EQ(unique.count(p), 0u);  // never self
    for (PeerId q : view) EXPECT_LT(q, 50u);
  }
}

TEST(PeerSampling, ShufflePreservesInvariants) {
  graph::Rng rng(3);
  PeerSampling sampling(40, 6, rng);
  for (int round = 0; round < 500; ++round) {
    sampling.shuffle(static_cast<PeerId>(rng.below(40)), rng);
  }
  for (PeerId p = 0; p < 40; ++p) {
    const auto& view = sampling.view(p);
    EXPECT_LE(view.size(), 6u);
    EXPECT_GE(view.size(), 1u);
    std::set<PeerId> unique(view.begin(), view.end());
    EXPECT_EQ(unique.size(), view.size());
    EXPECT_EQ(unique.count(p), 0u);
  }
}

TEST(PeerSampling, ShuffleMixesKnowledge) {
  // After enough shuffles, a peer should have seen far more distinct
  // peers than its bounded view holds at any instant.
  graph::Rng rng(4);
  PeerSampling sampling(60, 6, rng);
  std::set<PeerId> ever_known(sampling.view(0).begin(), sampling.view(0).end());
  for (int round = 0; round < 3000; ++round) {
    sampling.shuffle(static_cast<PeerId>(rng.below(60)), rng);
    for (PeerId q : sampling.view(0)) ever_known.insert(q);
  }
  EXPECT_GT(ever_known.size(), 30u);
}

TEST(GossipSimulator, RejectsBadParams) {
  graph::Rng rng(5);
  GossipParams params;
  params.strategy = Strategy::kDecremental;
  EXPECT_THROW(GossipSimulator(params, rng), std::invalid_argument);
  for (const double shuffles : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    params = GossipParams{};
    params.shuffles_per_unit = shuffles;
    EXPECT_THROW(GossipSimulator(params, rng), std::invalid_argument) << shuffles;
  }
}

TEST(GossipSimulator, SmallSystemReachesTheCompleteKnowledgeStableState) {
  // Gossip dynamics sort peers by random encounters; for a small
  // population the process runs all the way to the complete-knowledge
  // stable configuration (adjacent ranks paired, disorder zero).
  graph::Rng rng(6);
  GossipParams params;
  params.peers = 40;
  params.view_size = 10;
  params.shuffles_per_unit = 4.0;
  GossipSimulator sim_(params, rng);
  sim_.run(200.0, 1);
  EXPECT_LT(sim_.disorder(), 0.02);
  // Perfect stratification: every peer pairs with an adjacent rank.
  const GlobalRanking ranking = GlobalRanking::identity(params.peers);
  EXPECT_NEAR(core::mean_abs_offset(sim_.current(), ranking), 1.0, 0.2);
}

TEST(GossipSimulator, MatchingStaysValid) {
  graph::Rng rng(7);
  GossipParams params;
  params.peers = 100;
  params.view_size = 8;
  params.capacity = 2;
  GossipSimulator sim_(params, rng);
  sim_.run(10.0, 1);
  const GlobalRanking ranking = GlobalRanking::identity(params.peers);
  EXPECT_NO_THROW(sim_.current().validate(ranking));
}

TEST(GossipSimulator, RandomStrategyAlsoProgresses) {
  graph::Rng rng(8);
  GossipParams params;
  params.peers = 120;
  params.view_size = 10;
  params.strategy = Strategy::kRandom;
  GossipSimulator sim_(params, rng);
  const double initial = sim_.disorder();
  sim_.run(60.0, 1);
  EXPECT_LT(sim_.disorder(), initial * 0.5);
}

TEST(GossipSimulator, FrozenViewsPlateauGossipKeepsStratifying) {
  // Without shuffling the views are a static sparse graph: the dynamics
  // stop at *that* instance's stable state, at positive disorder from
  // the complete-knowledge one. With gossip, discovery continues and
  // the matching is strongly stratified (mean mate-rank offset far
  // below the ~n/3 of random pairing), even though full sorting of a
  // large population takes much longer than any test horizon.
  const std::size_t n = 150;
  // Frozen: the plateau is flat (no further improvement possible).
  graph::Rng rng_frozen(100);
  GossipParams frozen;
  frozen.peers = n;
  frozen.view_size = 8;
  frozen.shuffles_per_unit = 0.0;
  GossipSimulator frozen_sim(frozen, rng_frozen);
  frozen_sim.run(40.0, 1);
  const double plateau = frozen_sim.disorder();
  frozen_sim.run(40.0, 1);
  EXPECT_GT(plateau, 0.03);
  EXPECT_NEAR(frozen_sim.disorder(), plateau, 0.02);

  // Gossip: strong stratification of the discovered matching.
  graph::Rng rng_gossip(200);
  GossipParams gossip = frozen;
  gossip.shuffles_per_unit = 4.0;
  GossipSimulator gossip_sim(gossip, rng_gossip);
  gossip_sim.run(100.0, 1);
  const GlobalRanking ranking = GlobalRanking::identity(n);
  const double offset = core::mean_abs_offset(gossip_sim.current(), ranking);
  EXPECT_GT(offset, 0.0);
  EXPECT_LT(offset, static_cast<double>(n) / 6.0);
}

TEST(GossipSimulator, TrajectoryShapes) {
  graph::Rng rng(9);
  GossipParams params;
  params.peers = 80;
  params.view_size = 8;
  GossipSimulator sim_(params, rng);
  const auto traj = sim_.run(5.0, 2);
  ASSERT_GE(traj.size(), 10u);
  EXPECT_DOUBLE_EQ(traj.front().initiatives_per_peer, 0.0);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i].initiatives_per_peer, traj[i - 1].initiatives_per_peer);
  }
  EXPECT_THROW((void)sim_.run(1.0, 0), std::invalid_argument);
  EXPECT_THROW((void)sim_.run(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace strat::core
