#include "analysis/exact_small.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "analysis/independent_matching.hpp"

namespace strat::analysis {
namespace {

TEST(ExactSmall, Validation) {
  EXPECT_THROW(ExactSmallModel(8, 0.5), std::invalid_argument);
  EXPECT_THROW(ExactSmallModel(3, -0.1), std::invalid_argument);
  EXPECT_THROW(ExactSmallModel(3, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(ExactSmallModel(3, 0.5, 0), std::invalid_argument);
}

TEST(ExactSmall, Figure7ExactProbabilities) {
  // §5.1.2 Figure 7 (0-based): D_exact(0,1) = p, D_exact(0,2) = p(1-p),
  // D_exact(1,2) = p(1-p)^2.
  const double p = 0.37;
  const ExactSmallModel exact(3, p);
  EXPECT_NEAR(exact.d(0, 1), p, 1e-12);
  EXPECT_NEAR(exact.d(0, 2), p * (1.0 - p), 1e-12);
  EXPECT_NEAR(exact.d(1, 2), p * (1.0 - p) * (1.0 - p), 1e-12);
}

TEST(ExactSmall, Figure7ApproximationErrorTerm) {
  // Algorithm 2 overestimates D(1,2) by exactly p^3(1-p) at n = 3.
  const double p = 0.25;
  const ExactSmallModel exact(3, p);
  const Independent1Matching approx(3, p);
  EXPECT_NEAR(approx.d(1, 2) - exact.d(1, 2), p * p * p * (1.0 - p), 1e-12);
  // The first two entries agree exactly.
  EXPECT_NEAR(approx.d(0, 1), exact.d(0, 1), 1e-12);
  EXPECT_NEAR(approx.d(0, 2), exact.d(0, 2), 1e-12);
}

TEST(ExactSmall, SymmetryAndDiagonal) {
  const ExactSmallModel exact(4, 0.4);
  for (core::PeerId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(exact.d(i, i), 0.0);
    for (core::PeerId j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(exact.d(i, j), exact.d(j, i));
  }
}

TEST(ExactSmall, RowsSumToMatchProbability) {
  const ExactSmallModel exact(5, 0.3);
  for (core::PeerId i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (core::PeerId j = 0; j < 5; ++j) sum += exact.d(i, j);
    EXPECT_NEAR(sum, exact.match_mass(i), 1e-12);
    EXPECT_LE(sum, 1.0 + 1e-12);
  }
}

TEST(ExactSmall, DegenerateProbabilities) {
  const ExactSmallModel never(4, 0.0);
  for (core::PeerId i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(never.match_mass(i), 0.0);
  const ExactSmallModel always(4, 1.0);
  // Complete graph, 1-matching: adjacent ranks pair up.
  EXPECT_DOUBLE_EQ(always.d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(always.d(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(always.d(0, 2), 0.0);
}

TEST(ExactSmall, ApproximationIsGoodAtSmallP) {
  // §5.4.3: the independence assumption works well for small p.
  const double p = 0.02;
  const ExactSmallModel exact(6, p);
  const Independent1Matching approx(6, p);
  for (core::PeerId i = 0; i < 6; ++i) {
    for (core::PeerId j = 0; j < 6; ++j) {
      EXPECT_NEAR(exact.d(i, j), approx.d(i, j), 5e-4) << i << "," << j;
    }
  }
}

TEST(ExactSmall, B2ChoiceDistributions) {
  const double p = 0.5;
  const ExactSmallModel exact(4, p, 2);
  // Choice masses are monotone in c and bounded.
  for (core::PeerId i = 0; i < 4; ++i) {
    EXPECT_GE(exact.match_mass(i, 0), exact.match_mass(i, 1));
    EXPECT_LE(exact.match_mass(i, 0), 1.0 + 1e-12);
  }
  // Per-choice rows sum to the choice mass.
  for (core::PeerId i = 0; i < 4; ++i) {
    for (std::size_t c = 0; c < 2; ++c) {
      double sum = 0.0;
      for (core::PeerId j = 0; j < 4; ++j) sum += exact.d_choice(i, c, j);
      EXPECT_NEAR(sum, exact.match_mass(i, c), 1e-12);
    }
  }
}

TEST(ExactSmall, B2CompleteGraphFormsQuads) {
  // p = 1, b0 = 2 on 6 peers: clusters {0,1,2} and {3,4,5}.
  const ExactSmallModel exact(6, 1.0, 2);
  EXPECT_DOUBLE_EQ(exact.d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(exact.d(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(exact.d(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(exact.d(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(exact.d(3, 4), 1.0);
}

TEST(ExactSmall, BoundsChecking) {
  const ExactSmallModel exact(3, 0.5, 2);
  EXPECT_THROW((void)exact.d(3, 0), std::out_of_range);
  EXPECT_THROW((void)exact.d_choice(0, 2, 1), std::out_of_range);
  EXPECT_THROW((void)exact.match_mass(0, 2), std::out_of_range);
}

}  // namespace
}  // namespace strat::analysis
