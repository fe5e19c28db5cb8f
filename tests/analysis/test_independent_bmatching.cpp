#include "analysis/independent_bmatching.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "analysis/independent_matching.hpp"

namespace strat::analysis {
namespace {

BMatchingOptions base(std::size_t n, double p, std::size_t b0) {
  BMatchingOptions opt;
  opt.n = n;
  opt.p = p;
  opt.b0 = b0;
  return opt;
}

TEST(BMatching, Validation) {
  EXPECT_THROW((void)analyze_bmatching(base(10, -0.1, 2)), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)analyze_bmatching(base(10, nan, 2)), std::invalid_argument);
  EXPECT_THROW((void)analyze_bmatching(base(10, 0.5, 0)), std::invalid_argument);
  auto opt = base(10, 0.5, 2);
  opt.capture_rows = {10};
  EXPECT_THROW((void)analyze_bmatching(opt), std::invalid_argument);
  opt = base(10, 0.5, 2);
  opt.weights = {1.0, 2.0};
  EXPECT_THROW((void)analyze_bmatching(opt), std::invalid_argument);
}

TEST(BMatching, ReducesToAlgorithm2AtB1) {
  const std::size_t n = 100;
  const double p = 0.07;
  const Independent1Matching alg2(n, p);
  auto opt = base(n, p, 1);
  opt.capture_rows = {0, 10, 50, 99};
  const BMatchingResult result = analyze_bmatching(opt);
  for (const auto& [peer, rows] : result.rows) {
    for (core::PeerId j = 0; j < n; ++j) {
      EXPECT_NEAR(rows[0][j], alg2.d(peer, j), 1e-12) << "peer " << peer << " j " << j;
    }
  }
  for (core::PeerId i = 0; i < n; ++i) {
    EXPECT_NEAR(result.expected_mates[i], alg2.mass(i), 1e-10);
  }
}

TEST(BMatching, ChoiceMassesAreMonotone) {
  // P(choice 1 matched) >= P(choice 2 matched) >= ... for every peer.
  const auto result = analyze_bmatching(base(200, 0.05, 3));
  for (core::PeerId i = 0; i < 200; ++i) {
    for (std::size_t c = 1; c < 3; ++c) {
      EXPECT_LE(result.mass(i, c), result.mass(i, c - 1) + 1e-12) << "peer " << i;
    }
  }
}

TEST(BMatching, MassesAreProbabilities) {
  const auto result = analyze_bmatching(base(150, 0.1, 2));
  for (core::PeerId i = 0; i < 150; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_GE(result.mass(i, c), 0.0);
      EXPECT_LE(result.mass(i, c), 1.0 + 1e-12);
    }
    EXPECT_NEAR(result.expected_mates[i], result.mass(i, 0) + result.mass(i, 1), 1e-12);
  }
}

TEST(BMatching, CapturedRowsSumToChoiceMass) {
  auto opt = base(80, 0.1, 2);
  opt.capture_rows = {40};
  const auto result = analyze_bmatching(opt);
  const auto& rows = result.rows.at(40);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    for (double v : rows[c]) sum += v;
    EXPECT_NEAR(sum, result.mass(40, c), 1e-12);
  }
}

TEST(BMatching, FirstChoiceOfBestPeerIsGeometricLike) {
  // The best peer's first choice behaves like the 1-matching best-peer
  // row near the top (its first pick is unconstrained by better peers).
  const double p = 0.2;
  auto opt = base(40, p, 2);
  opt.capture_rows = {0};
  const auto result = analyze_bmatching(opt);
  const auto& first = result.rows.at(0)[0];
  EXPECT_NEAR(first[1], p, 1e-12);
  EXPECT_NEAR(first[2], p * (1.0 - p), 1e-9);
}

TEST(BMatching, SecondChoiceIsWorseOnAverage) {
  auto opt = base(300, 0.05, 2);
  opt.capture_rows = {150};
  const auto result = analyze_bmatching(opt);
  const auto& rows = result.rows.at(150);
  auto mean_rank = [&](const std::vector<double>& row) {
    double mass = 0.0;
    double weighted = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      mass += row[j];
      weighted += row[j] * static_cast<double>(j);
    }
    return weighted / mass;
  };
  // Choice ordering is by rank: the second-best mate is worse (higher
  // mean rank) than the best mate.
  EXPECT_GT(mean_rank(rows[1]), mean_rank(rows[0]));
}

TEST(BMatching, CutPropertyHoldsPerChoice) {
  // D_c(i, j) does not depend on peers ranked below max(i, j).
  const double p = 0.15;
  auto opt_small = base(30, p, 2);
  opt_small.capture_rows = {3, 12};
  auto opt_large = base(60, p, 2);
  opt_large.capture_rows = {3, 12};
  const auto small = analyze_bmatching(opt_small);
  const auto large = analyze_bmatching(opt_large);
  for (const core::PeerId peer : {3u, 12u}) {
    for (std::size_t c = 0; c < 2; ++c) {
      for (core::PeerId j = 0; j < 30; ++j) {
        EXPECT_NEAR(small.rows.at(peer)[c][j], large.rows.at(peer)[c][j], 1e-12);
      }
    }
  }
}

TEST(BMatching, WeightsProduceExpectedDownload) {
  const std::size_t n = 60;
  auto opt = base(n, 0.2, 2);
  opt.weights.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) opt.weights[j] = static_cast<double>(n - j);
  opt.capture_rows = {20};
  const auto result = analyze_bmatching(opt);
  ASSERT_EQ(result.expected_weight.size(), n);
  // Cross-check against the captured row.
  double manual = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& row = result.rows.at(20)[c];
    for (std::size_t j = 0; j < n; ++j) manual += row[j] * opt.weights[j];
  }
  EXPECT_NEAR(result.expected_weight[20], manual, 1e-10);
}

TEST(BMatching, UnweightedLeavesExpectedWeightEmpty) {
  const auto result = analyze_bmatching(base(20, 0.3, 2));
  EXPECT_TRUE(result.expected_weight.empty());
}

TEST(BMatching, HigherB0IncreasesExpectedMates) {
  const std::size_t n = 200;
  const double p = 0.05;
  const auto b1 = analyze_bmatching(base(n, p, 1));
  const auto b3 = analyze_bmatching(base(n, p, 3));
  // Middle peer should hold more mates with more slots.
  EXPECT_GT(b3.expected_mates[n / 2], b1.expected_mates[n / 2]);
}

TEST(BMatching, MassBoundsExhaustiveSweep) {
  for (const std::size_t b0 : {1u, 2u, 4u}) {
    for (const double p : {0.02, 0.1, 0.5}) {
      const std::size_t n = 80;
      const auto result = analyze_bmatching(base(n, p, b0));
      for (core::PeerId i = 0; i < n; ++i) {
        EXPECT_LE(result.expected_mates[i], static_cast<double>(b0) + 1e-9);
        EXPECT_GE(result.expected_mates[i], 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace strat::analysis
