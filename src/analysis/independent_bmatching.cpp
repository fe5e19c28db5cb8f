#include "analysis/independent_bmatching.hpp"

#include <stdexcept>

namespace strat::analysis {

double BMatchingResult::mass(core::PeerId i, std::size_t c) const {
  if (i >= n || c >= b0) throw std::out_of_range("BMatchingResult::mass: bad index");
  return choice_mass.at(static_cast<std::size_t>(i) * b0 + c);
}

BMatchingResult analyze_bmatching(const BMatchingOptions& options) {
  const std::size_t n = options.n;
  const std::size_t b0 = options.b0;
  const double p = options.p;
  if (!(0.0 <= p && p <= 1.0)) throw std::invalid_argument("analyze_bmatching: p out of [0,1]");
  if (b0 == 0) throw std::invalid_argument("analyze_bmatching: b0 must be >= 1");
  if (!options.weights.empty() && options.weights.size() != n) {
    throw std::invalid_argument("analyze_bmatching: weights must have length n");
  }
  for (core::PeerId r : options.capture_rows) {
    if (r >= n) throw std::invalid_argument("analyze_bmatching: capture row out of range");
  }
  const bool weighted = !options.weights.empty();

  BMatchingResult out;
  out.n = n;
  out.b0 = b0;
  out.choice_mass.assign(n * b0, 0.0);
  out.expected_mates.assign(n, 0.0);
  if (weighted) out.expected_weight.assign(n, 0.0);
  for (core::PeerId r : options.capture_rows) {
    out.rows[r].assign(b0, std::vector<double>(n, 0.0));
  }

  // g[j*b0 + c] = F_{c+1}(j, i) = sum_{k<i} D_{c+1}(j, k) for the
  // current outer i (choice indices shifted: slot c stores choice c+1;
  // F_0 == 1 is implicit). col stores this outer round's D_c(j, i)
  // contributions, folded into g only after the inner loop.
  std::vector<double> g(n * b0, 0.0);
  std::vector<double> col(n * b0, 0.0);
  // h[c] = F_{c+1}(i, j) for the current (i, j), advanced over j.
  std::vector<double> h(b0, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    // At j = i+1, F_c(i, j) = sum_{k<i} D_c(i, k) = g[i*b0 + c].
    for (std::size_t c = 0; c < b0; ++c) h[c] = g[i * b0 + c];
    auto captured_i = out.rows.find(static_cast<core::PeerId>(i));
    for (std::size_t j = i + 1; j < n; ++j) {
      // One minus the full-capacity prefixes: probability the partner
      // side has not already filled all b0 choices with better peers.
      const double open_i = 1.0 - h[b0 - 1];
      const double open_j = 1.0 - g[j * b0 + b0 - 1];
      auto captured_j = out.rows.find(static_cast<core::PeerId>(j));
      // Forward direction: D_c(i, j) = p (F_{c-1}(i,j) - F_c(i,j)) open_j.
      double prev_f = 1.0;  // F_0
      for (std::size_t c = 0; c < b0; ++c) {
        const double f_c = h[c];
        const double value = p * (prev_f - f_c) * open_j;
        prev_f = f_c;
        h[c] += value;
        out.choice_mass[i * b0 + c] += value;
        out.expected_mates[i] += value;
        if (weighted) out.expected_weight[i] += value * options.weights[j];
        if (captured_i != out.rows.end()) captured_i->second[c][j] = value;
      }
      // Reverse direction: D_c(j, i) = p (F_{c-1}(j,i) - F_c(j,i)) open_i.
      prev_f = 1.0;
      for (std::size_t c = 0; c < b0; ++c) {
        const double f_c = g[j * b0 + c];
        const double value = p * (prev_f - f_c) * open_i;
        prev_f = f_c;
        col[j * b0 + c] = value;
        out.choice_mass[j * b0 + c] += value;
        out.expected_mates[j] += value;
        if (weighted) out.expected_weight[j] += value * options.weights[i];
        if (captured_j != out.rows.end()) captured_j->second[c][i] = value;
      }
    }
    // Fold this round's reverse columns into g for the next outer i.
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t c = 0; c < b0; ++c) g[j * b0 + c] += col[j * b0 + c];
    }
  }
  return out;
}

}  // namespace strat::analysis
