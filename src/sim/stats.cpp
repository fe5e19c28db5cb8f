#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace strat::sim {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile_sorted: empty sample");
  if (!(0.0 <= q && q <= 1.0)) throw std::invalid_argument("quantile_sorted: q out of [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  OnlineStats acc;
  for (double v : sorted) acc.add(v);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = sorted.front();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p95 = quantile_sorted(sorted, 0.95);
  s.max = sorted.back();
  return s;
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("pearson: size mismatch");
  if (xs.size() < 2) throw std::invalid_argument("pearson: need at least 2 points");
  const double n = static_cast<double>(xs.size());
  const double mx = std::accumulate(xs.begin(), xs.end(), 0.0) / n;
  const double my = std::accumulate(ys.begin(), ys.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

std::vector<double> average_ranks(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double spearman(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("spearman: size mismatch");
  if (xs.size() < 2) throw std::invalid_argument("spearman: need at least 2 points");
  return pearson(average_ranks(xs), average_ranks(ys));
}

}  // namespace strat::sim
