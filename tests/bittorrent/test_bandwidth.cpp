#include "bittorrent/bandwidth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace strat::bt {
namespace {

// The quantile path as it stood before the fixed-point exit and the
// prefix replay: cdf() recomputes every component's log10(median), and
// every quantile runs all 200 bisection steps. Kept here, and only
// here, as the reference the fast path must match bit for bit.
double reference_cdf(const BandwidthModel& model, double kbps) {
  if (kbps <= 0.0) return 0.0;
  const double lx = std::log10(kbps);
  double acc = 0.0;
  for (const auto& c : model.components()) {
    const double z = (lx - std::log10(c.median_kbps)) / c.log10_sigma;
    acc += c.weight * (0.5 * std::erfc(-z / std::sqrt(2.0)));
  }
  return acc;
}

double reference_quantile(const BandwidthModel& model, double q) {
  double lo = 1e-3;
  double hi = 1e9;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (reference_cdf(model, mid) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

std::vector<double> reference_sample(const BandwidthModel& model, std::size_t n) {
  std::vector<double> sample(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    sample[i] = reference_quantile(model, 1.0 - q);
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (sample[i] >= sample[i - 1]) {
      sample[i] = sample[i - 1] * (1.0 - 1e-12 * static_cast<double>(i + 1));
    }
  }
  return sample;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t fnv_digest(const std::vector<double>& values) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const double v : values) {
    const std::uint64_t b = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (b >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// Two decades-wide components: cdf(1e-3) ~ 6e-4 and cdf(1e9) ~ 0.965,
// so low and high q drive the bisection onto both ends of its bracket.
BandwidthModel wide_model() {
  return BandwidthModel({{0.3, 20.0, 1.5, "wide low"}, {0.7, 5e5, 2.0, "wide high"}});
}

TEST(BandwidthModel, Validation) {
  EXPECT_THROW(BandwidthModel({}), std::invalid_argument);
  EXPECT_THROW(BandwidthModel({{0.5, 100.0, 0.1, "a"}}), std::invalid_argument);  // sum != 1
  EXPECT_THROW(BandwidthModel({{1.0, -5.0, 0.1, "a"}}), std::invalid_argument);
  EXPECT_THROW(BandwidthModel({{1.0, 100.0, 0.0, "a"}}), std::invalid_argument);
  // Non-finite fields, each alone and next to a valid component (a NaN
  // weight would otherwise slip through both the sign and the sum check).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(BandwidthModel({{bad, 100.0, 0.1, "w"}}), std::invalid_argument) << bad;
    EXPECT_THROW(BandwidthModel({{1.0, 100.0, 0.1, "a"}, {bad, 100.0, 0.1, "w"}}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(BandwidthModel({{1.0, bad, 0.1, "m"}}), std::invalid_argument) << bad;
    EXPECT_THROW(BandwidthModel({{1.0, 100.0, bad, "s"}}), std::invalid_argument) << bad;
    EXPECT_THROW(BandwidthModel({{0.5, 100.0, 0.1, "a"}, {0.5, bad, 0.1, "m"}}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(BandwidthModel({{0.5, 100.0, 0.1, "a"}, {0.5, 100.0, bad, "s"}}),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(BandwidthModel({{-1.0, 100.0, 0.1, "a"}, {2.0, 100.0, 0.1, "b"}}),
               std::invalid_argument);
  EXPECT_NO_THROW(BandwidthModel({{0.5, 100.0, 0.1, "a"}, {0.5, 1000.0, 0.2, "b"}}));
}

TEST(BandwidthModel, CdfMatchesTheReferenceBitForBit) {
  for (const BandwidthModel& model : {BandwidthModel::saroiu2002(), wide_model()}) {
    for (double x = 1e-4; x < 1e10; x *= 1.37) {
      EXPECT_EQ(bits_of(model.cdf(x)), bits_of(reference_cdf(model, x))) << "x=" << x;
    }
  }
}

TEST(BandwidthModel, QuantileIsTheFullBisectionBitForBit) {
  const BandwidthModel wide = wide_model();
  // The wide model's bracket ends are reachable, which exercises the
  // fixed-point exit on a bracket pinned to one of its ends.
  EXPECT_DOUBLE_EQ(wide.quantile(1e-5), 1e-3);
  EXPECT_DOUBLE_EQ(wide.quantile(0.999), 1e9);
  for (const BandwidthModel& model : {BandwidthModel::saroiu2002(), wide}) {
    for (const double q : {1e-12, 1e-5, 0.001, 0.05, 0.2, 0.25, 0.5, 0.6, 0.75, 0.95, 0.97,
                           0.999, 1.0 - 1e-12}) {
      EXPECT_EQ(bits_of(model.quantile(q)), bits_of(reference_quantile(model, q))) << "q=" << q;
    }
  }
}

TEST(BandwidthModel, RepresentativeSampleIsTheFullBisectionBitForBit) {
  for (const BandwidthModel& model : {BandwidthModel::saroiu2002(), wide_model()}) {
    for (const std::size_t n : {1u, 2u, 40u, 1001u, 17000u}) {
      const std::vector<double> got = model.representative_sample(n);
      const std::vector<double> want = reference_sample(model, n);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BandwidthModel, RepresentativeSampleAtScaleIsPinned) {
  // Digest of representative_sample(100000) on saroiu2002(), captured
  // from the 200-step bisection before the fast path replaced it. The
  // swarm_1e5 benchmark and every 10^5-peer swarm rank by this sample.
  const std::vector<double> sample = BandwidthModel::saroiu2002().representative_sample(100000);
  ASSERT_EQ(sample.size(), 100000u);
  EXPECT_EQ(fnv_digest(sample), 0x71CF651D0738B785ULL);
}

TEST(BandwidthModel, CdfIsMonotoneFromZeroToOne) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  EXPECT_DOUBLE_EQ(model.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.cdf(-5.0), 0.0);
  double prev = 0.0;
  for (double x = 1.0; x < 1e6; x *= 1.5) {
    const double c = model.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_GT(model.cdf(1e6), 0.999);
}

TEST(BandwidthModel, SaroiuAnatomy) {
  // Figure 10's qualitative waypoints (see README, "Model notes"): roughly 20%
  // below 100 kbps, a wide middle, >90% below 10 Mbps.
  const BandwidthModel model = BandwidthModel::saroiu2002();
  EXPECT_NEAR(model.cdf(100.0), 0.20, 0.07);
  EXPECT_NEAR(model.cdf(1000.0), 0.75, 0.08);
  EXPECT_GT(model.cdf(10000.0), 0.85);
  EXPECT_LT(model.cdf(10.0), 0.02);
}

TEST(BandwidthModel, QuantileInvertsCdf) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double x = model.quantile(q);
    EXPECT_NEAR(model.cdf(x), q, 1e-6) << "q=" << q;
  }
  EXPECT_THROW((void)model.quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)model.quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)model.quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(BandwidthModel, PdfIntegratesToOne) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  // Integrate in log space: f(x) dx = f(e^u) e^u du.
  double integral = 0.0;
  const double du = 0.001;
  for (double u = std::log(1.0); u < std::log(1e7); u += du) {
    const double x = std::exp(u);
    integral += model.pdf(x) * x * du;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(BandwidthModel, PdfHasDensityPeaks) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  // Density at a technology median dominates the density between peaks.
  EXPECT_GT(model.pdf(128.0), model.pdf(220.0));
  EXPECT_GT(model.pdf(384.0), model.pdf(220.0));
}

TEST(BandwidthModel, SamplesFollowTheCdf) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  graph::Rng rng(9);
  const int draws = 20000;
  int below_100 = 0;
  int below_1000 = 0;
  for (int i = 0; i < draws; ++i) {
    const double x = model.sample(rng);
    EXPECT_GT(x, 0.0);
    if (x <= 100.0) ++below_100;
    if (x <= 1000.0) ++below_1000;
  }
  EXPECT_NEAR(static_cast<double>(below_100) / draws, model.cdf(100.0), 0.02);
  EXPECT_NEAR(static_cast<double>(below_1000) / draws, model.cdf(1000.0), 0.02);
}

TEST(BandwidthModel, RepresentativeSampleIsStrictlyDescending) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto sample = model.representative_sample(500);
  ASSERT_EQ(sample.size(), 500u);
  for (std::size_t i = 1; i < sample.size(); ++i) {
    EXPECT_LT(sample[i], sample[i - 1]) << "at " << i;
  }
  // Extremes span the distribution's support.
  EXPECT_GT(sample.front(), 5000.0);
  EXPECT_LT(sample.back(), 100.0);
}

TEST(BandwidthModel, RepresentativeSampleMedianMatchesQuantile) {
  const BandwidthModel model = BandwidthModel::saroiu2002();
  const auto sample = model.representative_sample(1001);
  EXPECT_NEAR(sample[500], model.quantile(0.5), model.quantile(0.5) * 0.02);
}

}  // namespace
}  // namespace strat::bt
