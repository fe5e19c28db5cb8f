#include "core/disorder.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/dynamics.hpp"
#include "core/solver.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/rng.hpp"

namespace strat::core {
namespace {

TEST(Disorder, PaperNormalization) {
  // §3: the distance between a complete (perfect) matching and the
  // empty configuration equals 1.
  const std::size_t n = 10;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  Matching perfect(n, 1);
  for (PeerId p = 0; p < n; p += 2) perfect.connect(p, p + 1, ranking);
  const Matching empty(n, 1);
  EXPECT_NEAR(disorder_1matching(perfect, empty, ranking), 1.0, 1e-12);
}

TEST(Disorder, NormalizationHoldsForAnyPerfectMatching) {
  graph::Rng rng(3);
  const std::size_t n = 12;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PeerId> ids(n);
    for (PeerId p = 0; p < n; ++p) ids[p] = p;
    rng.shuffle(ids);
    Matching perfect(n, 1);
    for (std::size_t k = 0; k < n; k += 2) perfect.connect(ids[k], ids[k + 1], ranking);
    EXPECT_NEAR(disorder_1matching(perfect, Matching(n, 1), ranking), 1.0, 1e-12);
  }
}

TEST(Disorder, IdenticalConfigurationsAreAtZero) {
  const std::size_t n = 8;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  Matching m(n, 1);
  m.connect(0, 3, ranking);
  m.connect(1, 2, ranking);
  EXPECT_DOUBLE_EQ(disorder_1matching(m, m, ranking), 0.0);
}

TEST(Disorder, SymmetricInArguments) {
  const std::size_t n = 6;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  Matching a(n, 1);
  a.connect(0, 1, ranking);
  Matching b(n, 1);
  b.connect(0, 5, ranking);
  b.connect(2, 3, ranking);
  EXPECT_DOUBLE_EQ(disorder_1matching(a, b, ranking), disorder_1matching(b, a, ranking));
}

TEST(Disorder, SingleSwapValue) {
  // n=4: C1 = {01, 23} (stable), C2 = {03, 21}.
  // sigma differences: peer0 |2-4|=2, peer1 |1-3|=2, peer2 |4-2|=2,
  // peer3 |3-1|=2; sum 8 -> D = 8*2/(4*5) = 0.8.
  const GlobalRanking ranking = GlobalRanking::identity(4);
  Matching c1(4, 1);
  c1.connect(0, 1, ranking);
  c1.connect(2, 3, ranking);
  Matching c2(4, 1);
  c2.connect(0, 3, ranking);
  c2.connect(2, 1, ranking);
  EXPECT_NEAR(disorder_1matching(c1, c2, ranking), 0.8, 1e-12);
}

TEST(Disorder, RejectsNon1Matchings) {
  const GlobalRanking ranking = GlobalRanking::identity(4);
  Matching b2(4, 2);
  b2.connect(0, 1, ranking);
  b2.connect(0, 2, ranking);
  EXPECT_THROW((void)disorder_1matching(b2, Matching(4, 2), ranking), std::invalid_argument);
}

TEST(Disorder, RejectsSizeMismatch) {
  const GlobalRanking ranking = GlobalRanking::identity(4);
  EXPECT_THROW((void)disorder_1matching(Matching(4, 1), Matching(3, 1), ranking),
               std::invalid_argument);
}

TEST(DisorderB, CoincidesWithPaperMetricAtB1) {
  graph::Rng rng(9);
  const std::size_t n = 10;
  const GlobalRanking ranking = GlobalRanking::identity(n);
  for (int trial = 0; trial < 5; ++trial) {
    Matching a(n, 1);
    Matching b(n, 1);
    for (PeerId p = 0; p < n; ++p) {
      const auto q = static_cast<PeerId>(rng.below(n));
      if (p != q && !a.is_full(p) && !a.is_full(q) && !a.are_matched(p, q)) {
        a.connect(p, q, ranking);
      }
      const auto q2 = static_cast<PeerId>(rng.below(n));
      if (p != q2 && !b.is_full(p) && !b.is_full(q2) && !b.are_matched(p, q2)) {
        b.connect(p, q2, ranking);
      }
    }
    EXPECT_EQ(disorder_bmatching(a, b, ranking), disorder_1matching(a, b, ranking));
  }
}

TEST(DisorderB, DetectsSlotwiseDifferences) {
  const GlobalRanking ranking = GlobalRanking::identity(6);
  Matching a(6, 2);
  a.connect(0, 1, ranking);
  a.connect(0, 2, ranking);
  Matching b(6, 2);
  b.connect(0, 1, ranking);
  EXPECT_GT(disorder_bmatching(a, b, ranking), 0.0);
  EXPECT_DOUBLE_EQ(disorder_bmatching(a, a, ranking), 0.0);
}

TEST(DisorderB, RejectsCapacityMismatch) {
  const GlobalRanking ranking = GlobalRanking::identity(4);
  EXPECT_THROW((void)disorder_bmatching(Matching(4, 1), Matching(4, 2), ranking),
               std::invalid_argument);
}

TEST(DisorderActive, IgnoresInactivePeers) {
  const GlobalRanking ranking = GlobalRanking::identity(6);
  Matching a(6, 1);
  a.connect(0, 1, ranking);
  a.connect(2, 5, ranking);  // 5 will be inactive
  Matching b(6, 1);
  b.connect(0, 1, ranking);
  const std::vector<PeerId> active{0, 1, 2, 3, 4};
  // Peer 2's mate (5) is inactive -> counts as unmatched in both; a and
  // b agree on the active restriction.
  EXPECT_DOUBLE_EQ(disorder_active(a, b, ranking, active), 0.0);
}

TEST(DisorderActive, ActiveRanksAreRelative) {
  // Active peers {2, 4} with identity scores: 2 has active rank 1, 4
  // active rank 2.
  const GlobalRanking ranking = GlobalRanking::identity(6);
  Matching a(6, 1);
  a.connect(2, 4, ranking);
  const Matching b(6, 1);
  const std::vector<PeerId> active{2, 4};
  // sigma_a = (2, 1), sigma_b = (3, 3): sum = 1 + 2 = 3; D = 3*2/(2*3)=1.
  EXPECT_NEAR(disorder_active(a, b, ranking, active), 1.0, 1e-12);
}

TEST(DisorderActive, EmptyActiveSetIsZero) {
  const GlobalRanking ranking = GlobalRanking::identity(4);
  EXPECT_DOUBLE_EQ(disorder_active(Matching(4, 1), Matching(4, 1), ranking, {}), 0.0);
}

TEST(DisorderActive, SlotwiseByHandAtB2) {
  // Peer 5 has departed: it keeps its capacity and a mate (4) in the
  // current configuration c1, and has capacity 0 in the instant stable
  // configuration c2, as ChurnSimulator builds it. Over the five active
  // peers the active rank of p is p + 1 and an empty slot reads n + 1 = 6.
  const GlobalRanking ranking = GlobalRanking::identity(6);
  Matching c1(6, 2);
  c1.connect(0, 1, ranking);
  c1.connect(0, 3, ranking);
  c1.connect(2, 4, ranking);
  c1.connect(4, 5, ranking);
  Matching c2(std::vector<std::uint32_t>{2, 2, 2, 2, 2, 0});
  c2.connect(0, 1, ranking);
  c2.connect(0, 2, ranking);
  c2.connect(1, 2, ranking);
  c2.connect(3, 4, ranking);
  // Slot ranks c1 | c2 and |difference| per peer:
  //   0: (2,4) | (2,3) -> 1     1: (1,6) | (1,3) -> 3
  //   2: (5,6) | (1,2) -> 8     3: (1,6) | (5,6) -> 4
  //   4: (3,6) | (4,6) -> 1     (4's mate 5 is inactive: an empty slot)
  // Sum 17 over 5 * 2 slots: D = 17 * 2 / (10 * 6).
  const std::vector<PeerId> active{3, 0, 4, 2, 1};
  EXPECT_DOUBLE_EQ(disorder_active(c1, c2, ranking, active), 34.0 / 60.0);
  EXPECT_DOUBLE_EQ(disorder_active(c2, c1, ranking, active), 34.0 / 60.0);
}

TEST(DisorderActive, EqualsBMatchingOverEveryPeer) {
  // With every peer active the active ranks are the global ranks, so the
  // restricted metric is disorder_bmatching bit for bit.
  const std::size_t n = 80;
  std::vector<PeerId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), PeerId{0});
  for (const std::uint32_t b : {1u, 3u}) {
    graph::Rng rng(20 + b);
    std::vector<double> scores(n);
    for (double& s : scores) s = rng.uniform();
    const GlobalRanking ranking = GlobalRanking::from_scores(scores);
    const graph::Graph g = graph::erdos_renyi_gnd(n, 8.0, rng);
    const ExplicitAcceptance acc(g, ranking);
    DynamicsEngine engine(acc, ranking, std::vector<std::uint32_t>(n, b), Strategy::kBestMate,
                          rng);
    for (int step = 0; step < 12; ++step) {
      EXPECT_EQ(disorder_active(engine.current(), engine.stable(), ranking, everyone),
                disorder_bmatching(engine.current(), engine.stable(), ranking))
          << "b=" << b << " step=" << step;
      engine.run(0.25, 1);
    }
    EXPECT_GT(engine.current().connection_count(), 0u);
  }
}

TEST(DisorderActive, RejectsBadActiveSets) {
  const GlobalRanking ranking = GlobalRanking::identity(4);
  const Matching m(4, 1);
  EXPECT_THROW((void)disorder_active(m, m, ranking, {0, 4}), std::invalid_argument);
  EXPECT_THROW((void)disorder_active(m, m, ranking, {1, 2, 1}), std::invalid_argument);
  EXPECT_THROW((void)disorder_active(Matching(5, 1), m, ranking, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace strat::core
