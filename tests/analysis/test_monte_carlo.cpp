#include "analysis/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "analysis/exact_small.hpp"
#include "analysis/independent_matching.hpp"

namespace strat::analysis {
namespace {

MonteCarloOptions base(std::size_t n, double p, std::size_t b0, std::size_t runs) {
  MonteCarloOptions opt;
  opt.n = n;
  opt.p = p;
  opt.b0 = b0;
  opt.realizations = runs;
  return opt;
}

TEST(MonteCarlo, Validation) {
  graph::Rng rng(1);
  EXPECT_THROW((void)estimate_mate_distribution(base(1, 0.5, 1, 10), rng), std::invalid_argument);
  EXPECT_THROW((void)estimate_mate_distribution(base(10, 1.5, 1, 10), rng), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)estimate_mate_distribution(base(10, nan, 1, 10), rng), std::invalid_argument);
  EXPECT_THROW((void)estimate_mate_distribution(base(10, 0.5, 0, 10), rng), std::invalid_argument);
  auto opt = base(10, 0.5, 1, 10);
  opt.tracked = {10};
  EXPECT_THROW((void)estimate_mate_distribution(opt, rng), std::invalid_argument);
}

TEST(MonteCarlo, CountsAreConsistent) {
  graph::Rng rng(2);
  auto opt = base(20, 0.2, 2, 200);
  opt.tracked = {5, 19};
  const auto result = estimate_mate_distribution(opt, rng);
  EXPECT_EQ(result.realizations, 200u);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t c = 0; c < 2; ++c) {
      std::uint64_t matched = 0;
      for (core::PeerId j = 0; j < 20; ++j) matched += result.freq[t][c][j];
      EXPECT_EQ(matched + result.unmatched[t][c], 200u);
      EXPECT_NEAR(result.match_mass(t, c),
                  static_cast<double>(matched) / 200.0, 1e-12);
    }
  }
}

TEST(MonteCarlo, AgreesWithExactEnumerationAtTinyN) {
  graph::Rng rng(3);
  const double p = 0.5;
  const ExactSmallModel exact(4, p);
  auto opt = base(4, p, 1, 40000);
  opt.tracked = {1};
  const auto result = estimate_mate_distribution(opt, rng);
  for (core::PeerId j = 0; j < 4; ++j) {
    EXPECT_NEAR(result.probability(0, 0, j), exact.d(1, j), 0.02) << "j=" << j;
  }
}

TEST(MonteCarlo, AgreesWithIndependentModelAtSmallP) {
  // §5.4.3: the independent approximation is accurate at small p. The
  // MC estimator must land near Algorithm 2's row.
  graph::Rng rng(4);
  const std::size_t n = 120;
  const double p = 20.0 / static_cast<double>(n - 1);
  const Independent1Matching model(n, p);
  auto opt = base(n, p, 1, 3000);
  opt.tracked = {60};
  const auto result = estimate_mate_distribution(opt, rng);
  // Compare coarse-grained masses over rank bands, not single ranks.
  auto band_mass = [&](auto&& getter, core::PeerId lo, core::PeerId hi) {
    double sum = 0.0;
    for (core::PeerId j = lo; j < hi; ++j) sum += getter(j);
    return sum;
  };
  for (const auto& [lo, hi] :
       std::vector<std::pair<core::PeerId, core::PeerId>>{{30, 60}, {61, 90}, {0, 30}}) {
    const double mc =
        band_mass([&](core::PeerId j) { return result.probability(0, 0, j); }, lo, hi);
    const double th = band_mass([&](core::PeerId j) { return model.d(60, j); }, lo, hi);
    EXPECT_NEAR(mc, th, 0.05) << "band " << lo << ".." << hi;
  }
}

TEST(MonteCarlo, IdenticalAtAnyThreadCount) {
  // Realization r draws from its own counter stream, so the thread
  // count moves only the schedule: one seed, the same counts.
  auto opt = base(40, 0.2, 2, 2000);
  opt.tracked = {20};
  opt.threads = 1;
  graph::Rng rng_seq(5);
  const auto seq = estimate_mate_distribution(opt, rng_seq);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    opt.threads = threads;
    graph::Rng rng_par(5);
    const auto par = estimate_mate_distribution(opt, rng_par);
    EXPECT_EQ(par.realizations, 2000u);
    EXPECT_EQ(par.freq, seq.freq) << threads << " threads";
    EXPECT_EQ(par.unmatched, seq.unmatched) << threads << " threads";
  }
}

TEST(MonteCarlo, ProbabilityRowSumsToMatchMass) {
  graph::Rng rng(7);
  auto opt = base(30, 0.3, 2, 500);
  opt.tracked = {15};
  const auto result = estimate_mate_distribution(opt, rng);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto row = result.probability_row(0, c);
    double sum = 0.0;
    for (double v : row) sum += v;
    EXPECT_NEAR(sum, result.match_mass(0, c), 1e-12);
  }
}

TEST(MonteCarlo, SecondChoiceNeverExceedsFirst) {
  graph::Rng rng(8);
  auto opt = base(60, 0.15, 2, 500);
  opt.tracked = {10, 30, 59};
  const auto result = estimate_mate_distribution(opt, rng);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_LE(result.match_mass(t, 1), result.match_mass(t, 0) + 1e-12);
  }
}

}  // namespace
}  // namespace strat::analysis
