#include "analysis/independent_matching.hpp"

#include <algorithm>
#include <stdexcept>

namespace strat::analysis {

Independent1Matching::Independent1Matching(std::size_t n, double p) : n_(n), p_(p) {
  if (!(0.0 <= p && p <= 1.0)) throw std::invalid_argument("Independent1Matching: p out of [0,1]");
  d_.assign(n * n, 0.0);
  // g[j] = sum_{k<i} D(j, k) for the current outer index i; within a
  // row, h = sum_{k<j} D(i, k). g is advanced only after the inner loop
  // completes, because the recurrence needs prefixes strictly below i.
  std::vector<double> g(n, 0.0);
  std::vector<double> col(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double h = g[i];  // at j = i+1, sum_{k<j} D(i,k) == sum_{k<i} D(i,k)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double value = p_ * (1.0 - h) * (1.0 - g[j]);
      d_[i * n + j] = value;
      d_[j * n + i] = value;
      h += value;
      col[j] = value;
    }
    for (std::size_t j = i + 1; j < n; ++j) g[j] += col[j];
  }
}

double Independent1Matching::d(core::PeerId i, core::PeerId j) const {
  if (i >= n_ || j >= n_) throw std::out_of_range("Independent1Matching::d: bad index");
  return d_[static_cast<std::size_t>(i) * n_ + j];
}

std::vector<double> Independent1Matching::row(core::PeerId i) const {
  if (i >= n_) throw std::out_of_range("Independent1Matching::row: bad index");
  return {d_.begin() + static_cast<long>(i) * static_cast<long>(n_),
          d_.begin() + (static_cast<long>(i) + 1) * static_cast<long>(n_)};
}

double Independent1Matching::mass(core::PeerId i) const {
  const auto r = row(i);
  double sum = 0.0;
  for (double v : r) sum += v;
  return sum;
}

double Independent1Matching::expected_mate_rank(core::PeerId i) const {
  const auto r = row(i);
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t j = 0; j < r.size(); ++j) {
    sum += r[j];
    weighted += r[j] * static_cast<double>(j);
  }
  return sum > 0.0 ? weighted / sum : 0.0;
}

StreamingResult independent_1matching_streaming(const StreamingOptions& options) {
  const std::size_t n = options.n;
  const double p = options.p;
  if (!(0.0 <= p && p <= 1.0)) {
    throw std::invalid_argument("independent_1matching_streaming: p out of [0,1]");
  }
  for (core::PeerId r : options.capture_rows) {
    if (r >= n) throw std::invalid_argument("independent_1matching_streaming: bad capture row");
  }
  StreamingResult out;
  out.mass.assign(n, 0.0);
  for (core::PeerId r : options.capture_rows) out.rows[r].assign(n, 0.0);

  // g[j] = sum_{k<i} D(j, k) for the current outer i.
  std::vector<double> g(n, 0.0);
  std::vector<double> col(n, 0.0);  // D(j, i) of the current outer i
  for (std::size_t i = 0; i < n; ++i) {
    double h = g[i];  // sum_{k<j} D(i,k), starting at j = i+1
    auto captured_i = out.rows.find(static_cast<core::PeerId>(i));
    for (std::size_t j = i + 1; j < n; ++j) {
      const double value = p * (1.0 - h) * (1.0 - g[j]);
      h += value;
      col[j] = value;
      out.mass[i] += value;
      out.mass[j] += value;
      if (captured_i != out.rows.end()) captured_i->second[j] = value;
      if (auto it = out.rows.find(static_cast<core::PeerId>(j)); it != out.rows.end()) {
        it->second[i] = value;
      }
    }
    // Advance g: for the next outer i+1, g[j] = sum_{k<i+1} D(j,k).
    for (std::size_t j = i + 1; j < n; ++j) g[j] += col[j];
  }
  return out;
}

}  // namespace strat::analysis
