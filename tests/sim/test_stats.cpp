#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace strat::sim {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance 4 -> sample variance 4 * 8/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats whole;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(static_cast<double>(i)) * 10.0;
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(3.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(Quantile, ThrowsOnEmptyAndBadQ) {
  EXPECT_THROW((void)quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted({1.0}, 1.1), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)quantile_sorted({1.0}, nan), std::invalid_argument);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 2.5);
}

TEST(Summary, OrderStatistics) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(static_cast<double>(i));
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-12);
  EXPECT_NEAR(s.p25, 25.75, 1e-12);
  EXPECT_NEAR(s.p75, 75.25, 1e-12);
}

TEST(Summary, EmptyIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys.rbegin(), ys.rend());
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceReturnsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Pearson, Preconditions) {
  EXPECT_THROW((void)pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)pearson({1.0}, {1.0}), std::invalid_argument);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(std::exp(static_cast<double>(i) * 0.3));  // monotone, nonlinear
  }
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Spearman, HandlesTiesWithAverageRanks) {
  const std::vector<double> xs{1, 2, 2, 3};
  const std::vector<double> ys{1, 2, 2, 3};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

}  // namespace
}  // namespace strat::sim
