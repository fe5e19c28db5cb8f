#include "analysis/independent_matching.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace strat::analysis {
namespace {

TEST(Independent1Matching, RejectsBadProbability) {
  EXPECT_THROW(Independent1Matching(5, -0.1), std::invalid_argument);
  EXPECT_THROW(Independent1Matching(5, 1.1), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Independent1Matching(5, nan), std::invalid_argument);
}

TEST(Independent1Matching, TinyCasesByHand) {
  // n = 2: D(0,1) = p.
  const double p = 0.3;
  const Independent1Matching m2(2, p);
  EXPECT_NEAR(m2.d(0, 1), p, 1e-12);
  // n = 3 (paper's Figure 7, 0-based): D(0,1) = p, D(0,2) = p(1-p),
  // D(1,2) = p(1-D(1,0))(1-D(2,0)) = p(1-p)(1-p(1-p)).
  const Independent1Matching m3(3, p);
  EXPECT_NEAR(m3.d(0, 1), p, 1e-12);
  EXPECT_NEAR(m3.d(0, 2), p * (1.0 - p), 1e-12);
  EXPECT_NEAR(m3.d(1, 2), p * (1.0 - p) * (1.0 - p * (1.0 - p)), 1e-12);
}

TEST(Independent1Matching, SymmetricZeroDiagonal) {
  const Independent1Matching m(20, 0.2);
  for (core::PeerId i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(m.d(i, i), 0.0);
    for (core::PeerId j = 0; j < 20; ++j) EXPECT_DOUBLE_EQ(m.d(i, j), m.d(j, i));
  }
}

TEST(Independent1Matching, RowsAreSubProbabilities) {
  const Independent1Matching m(50, 0.1);
  for (core::PeerId i = 0; i < 50; ++i) {
    double sum = 0.0;
    for (double v : m.row(i)) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      sum += v;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
    EXPECT_NEAR(sum, m.mass(i), 1e-12);
  }
}

TEST(Independent1Matching, Lemma1MassApproachesOne) {
  // Lemma 1: with enough worse peers below, any fixed peer is matched
  // with probability 1 in the limit. Mass must increase with n and get
  // close to 1.
  const double p = 0.05;
  const Independent1Matching small(50, p);
  const Independent1Matching medium(200, p);
  const Independent1Matching large(800, p);
  const double m_small = small.mass(0);
  const double m_medium = medium.mass(0);
  const double m_large = large.mass(0);
  EXPECT_LT(m_small, m_medium);
  EXPECT_LT(m_medium, m_large);
  EXPECT_GT(m_large, 0.99);
}

TEST(Independent1Matching, CutProperty) {
  // Theorem 2's supporting fact: D(i,j) does not depend on peers ranked
  // below max(i,j) — the n-peer matrix is a cut of the larger one.
  const double p = 0.15;
  const Independent1Matching small(30, p);
  const Independent1Matching large(60, p);
  for (core::PeerId i = 0; i < 30; ++i) {
    for (core::PeerId j = 0; j < 30; ++j) {
      EXPECT_NEAR(small.d(i, j), large.d(i, j), 1e-12) << i << "," << j;
    }
  }
}

TEST(Independent1Matching, BestPeerRowIsGeometricLike) {
  // §5.3: for i = 0 the mate distribution is (almost) geometric:
  // D(0,j) = p(1-p)^{j-1}.
  const double p = 0.2;
  const Independent1Matching m(40, p);
  for (core::PeerId j = 1; j < 20; ++j) {
    const double expected = p * std::pow(1.0 - p, static_cast<double>(j - 1));
    EXPECT_NEAR(m.d(0, j), expected, 1e-12) << "j=" << j;
  }
}

TEST(Independent1Matching, MiddlePeerDistributionIsSymmetricAroundRank) {
  // §5.3 / Figure 8(b): central peers see a shift-symmetric mate
  // distribution: D(i, i+k) ~= D(i, i-k) up to boundary effects.
  const std::size_t n = 600;
  const Independent1Matching m(n, 20.0 / static_cast<double>(n - 1));
  const core::PeerId center = n / 2;
  for (std::size_t k = 1; k < 60; ++k) {
    const double right = m.d(center, center + static_cast<core::PeerId>(k));
    const double left = m.d(center, center - static_cast<core::PeerId>(k));
    EXPECT_NEAR(left, right, 0.15 * std::max(left, right) + 1e-9) << "k=" << k;
  }
}

TEST(Independent1Matching, ShiftInvarianceInTheBulk) {
  // §5.3: "the distribution simply shifts with the rank of the peer"
  // for bulk peers (top 25%..80%).
  const std::size_t n = 800;
  const Independent1Matching m(n, 15.0 / static_cast<double>(n - 1));
  const core::PeerId a = 300;
  const core::PeerId b = 400;
  for (int off = -50; off <= 50; ++off) {
    const auto ja = static_cast<core::PeerId>(static_cast<int>(a) + off);
    const auto jb = static_cast<core::PeerId>(static_cast<int>(b) + off);
    const double va = m.d(a, ja);
    const double vb = m.d(b, jb);
    EXPECT_NEAR(va, vb, 0.12 * std::max(va, vb) + 1e-9) << "off=" << off;
  }
}

TEST(Independent1Matching, WorstPeerMatchedAboutHalfTheTime) {
  // §5.3 / Figure 8(c): the worst peer is matched in roughly half the
  // realizations (exactly half in the limit).
  const std::size_t n = 2000;
  const Independent1Matching m(n, 25.0 / static_cast<double>(n - 1));
  EXPECT_NEAR(m.mass(static_cast<core::PeerId>(n - 1)), 0.5, 0.05);
}

TEST(Independent1Matching, EveryoneElseBeatsTheWorstPeer) {
  // §5.3: "All the others are assured to do better in terms of matching
  // frequency."
  const std::size_t n = 500;
  const Independent1Matching m(n, 20.0 / static_cast<double>(n - 1));
  const double worst = m.mass(static_cast<core::PeerId>(n - 1));
  for (core::PeerId i = 0; i + 1 < n; ++i) {
    EXPECT_GE(m.mass(i) + 1e-12, worst) << "peer " << i;
  }
}

TEST(Independent1Matching, ExpectedMateRankTracksOwnRankInBulk) {
  const std::size_t n = 500;
  const Independent1Matching m(n, 20.0 / static_cast<double>(n - 1));
  // Bulk peers: expected mate rank within a small band of own rank.
  for (const core::PeerId i : {150u, 250u, 350u}) {
    EXPECT_NEAR(m.expected_mate_rank(i), static_cast<double>(i), 30.0);
  }
}

TEST(Streaming, MatchesFullMatrix) {
  const std::size_t n = 120;
  const double p = 0.08;
  const Independent1Matching full(n, p);
  StreamingOptions opt;
  opt.n = n;
  opt.p = p;
  opt.capture_rows = {0, 5, 60, 119};
  const StreamingResult streamed = independent_1matching_streaming(opt);
  for (const auto& [peer, row] : streamed.rows) {
    for (core::PeerId j = 0; j < n; ++j) {
      EXPECT_NEAR(row[j], full.d(peer, j), 1e-12) << "peer " << peer << " j " << j;
    }
  }
  for (core::PeerId i = 0; i < n; ++i) {
    EXPECT_NEAR(streamed.mass[i], full.mass(i), 1e-10);
  }
}

TEST(Streaming, Validation) {
  StreamingOptions opt;
  opt.n = 10;
  opt.p = 2.0;
  EXPECT_THROW((void)independent_1matching_streaming(opt), std::invalid_argument);
  opt.p = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)independent_1matching_streaming(opt), std::invalid_argument);
  opt.p = 0.1;
  opt.capture_rows = {10};
  EXPECT_THROW((void)independent_1matching_streaming(opt), std::invalid_argument);
}

}  // namespace
}  // namespace strat::analysis
