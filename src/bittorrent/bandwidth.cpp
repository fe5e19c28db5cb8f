#include "bittorrent/bandwidth.hpp"

#include <cmath>
#include <stdexcept>

namespace strat::bt {

namespace {

double standard_normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double standard_normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

// Quantile bracket in kbps, far outside any modelled capacity.
constexpr double kQuantileLo = 1e-3;
constexpr double kQuantileHi = 1e9;
// The bracket reaches its fixed point within ~58 steps (log2 of its
// span in ulps), so this bound never binds; it only caps the loop.
constexpr std::size_t kMaxBisectionSteps = 200;

}  // namespace

BandwidthModel::BandwidthModel(std::vector<BandwidthComponent> components)
    : components_(std::move(components)) {
  if (components_.empty()) throw std::invalid_argument("BandwidthModel: no components");
  double total = 0.0;
  for (const auto& c : components_) {
    for (const double field : {c.weight, c.median_kbps, c.log10_sigma}) {
      if (!std::isfinite(field) || field <= 0.0) {
        throw std::invalid_argument("BandwidthModel: component fields must be finite and positive");
      }
    }
    total += c.weight;
    log10_median_.push_back(std::log10(c.median_kbps));
  }
  if (std::abs(total - 1.0) > 1e-9) {
    throw std::invalid_argument("BandwidthModel: weights must sum to 1");
  }
}

BandwidthModel BandwidthModel::saroiu2002() {
  // Upstream medians per 2002 access technology; weights calibrated so
  // the CDF matches the published curve's waypoints (~20% below
  // 100 kbps, ~3/4 below 1 Mbps, >90% below 10 Mbps).
  return BandwidthModel({
      {0.20, 45.0, 0.10, "dial-up 56k"},
      {0.25, 128.0, 0.08, "ISDN / DSL-lite"},
      {0.15, 384.0, 0.10, "ADSL 384"},
      {0.15, 768.0, 0.13, "cable 768"},
      {0.15, 3000.0, 0.25, "T1 / business"},
      {0.10, 15000.0, 0.18, "campus LAN"},
  });
}

double BandwidthModel::cdf(double kbps) const {
  if (kbps <= 0.0) return 0.0;
  const double lx = std::log10(kbps);
  double acc = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const BandwidthComponent& c = components_[i];
    acc += c.weight * standard_normal_cdf((lx - log10_median_[i]) / c.log10_sigma);
  }
  return acc;
}

double BandwidthModel::pdf(double kbps) const {
  if (kbps <= 0.0) return 0.0;
  const double lx = std::log10(kbps);
  // d(lx)/d(kbps) = 1 / (kbps ln 10).
  const double jacobian = 1.0 / (kbps * std::log(10.0));
  double acc = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const BandwidthComponent& c = components_[i];
    acc += c.weight * standard_normal_pdf((lx - log10_median_[i]) / c.log10_sigma) /
           c.log10_sigma;
  }
  return acc * jacobian;
}

double BandwidthModel::bisect(double q, std::vector<BisectionStep>& path) const {
  double lo = kQuantileLo;
  double hi = kQuantileHi;
  // cdf is strictly increasing and continuous: plain bisection.
  for (std::size_t depth = 0; depth < kMaxBisectionSteps; ++depth) {
    const double mid = std::sqrt(lo * hi);  // geometric: the scale is log
    // Fixed point: every further step would keep (lo, hi) or collapse
    // both onto mid, and sqrt(mid * mid) == mid, so the answer is final.
    if (mid == lo || mid == hi) return mid;
    // cdf is a pure function of mid, itself a function of (lo, hi): a
    // cached step with the same bracket holds the exact value.
    if (depth == path.size()) {
      path.push_back({lo, hi, cdf(mid)});
    } else if (path[depth].lo != lo || path[depth].hi != hi) {
      path[depth] = {lo, hi, cdf(mid)};
    }
    if (path[depth].cdf_mid < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

double BandwidthModel::quantile(double q) const {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("BandwidthModel::quantile: q in (0,1)");
  }
  std::vector<BisectionStep> path;
  return bisect(q, path);
}

double BandwidthModel::sample(graph::Rng& rng) const {
  double pick = rng.uniform();
  std::size_t idx = components_.size() - 1;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (pick < components_[i].weight) {
      idx = i;
      break;
    }
    pick -= components_[i].weight;
  }
  const double lx = log10_median_[idx] + components_[idx].log10_sigma * rng.normal();
  return std::pow(10.0, lx);
}

std::vector<double> BandwidthModel::representative_sample(std::size_t n) const {
  std::vector<double> sample(n);
  // Consecutive q values descend, so each path shares its top with the
  // previous one and bisect() replays that prefix from the cache.
  std::vector<BisectionStep> path;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    // Best peer first: take the upper quantiles first.
    sample[i] = bisect(1.0 - q, path);
  }
  // Enforce strict descending order (quantile plateaus can collide after
  // rounding): nudge each entry just below its predecessor.
  for (std::size_t i = 1; i < n; ++i) {
    if (sample[i] >= sample[i - 1]) {
      sample[i] = sample[i - 1] * (1.0 - 1e-12 * static_cast<double>(i + 1));
    }
  }
  return sample;
}

}  // namespace strat::bt
