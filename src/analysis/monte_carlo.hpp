// Monte-Carlo estimation of mate-rank distributions (§5.4.3, Figure 9).
//
// The paper validates the independent b0-matching model by simulating a
// million Erdős–Rényi realizations (n = 5000, p = 1%, b0 = 2, "several
// weeks") and comparing the first- and second-choice distributions of
// peer 3000 with Algorithm 3's output. This module is that estimator:
// draw G(n, p), solve the unique stable b0-matching exactly, record the
// c-th best mate of each tracked peer, repeat. Realization r draws
// from the counter stream Rng::stream(key, r, 0), where key is one draw
// from the caller's generator, and the realizations fan out over
// sim::parallel_for, so the result is identical at any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::analysis {

/// Parameters of the estimator.
struct MonteCarloOptions {
  std::size_t n = 0;
  double p = 0.0;
  std::size_t b0 = 1;
  std::size_t realizations = 1000;
  /// Peers whose per-choice mate distributions are tracked.
  std::vector<core::PeerId> tracked;
  /// Worker threads (<= 1 runs inline). Results are identical at any
  /// value.
  std::size_t threads = 1;
};

/// Estimated distributions. freq[t][c][j] counts, over realizations,
/// how often tracked peer t's choice-c mate was peer j; unmatched[t][c]
/// counts realizations where choice c stayed empty.
struct MonteCarloResult {
  std::size_t realizations = 0;
  std::vector<std::vector<std::vector<std::uint64_t>>> freq;
  std::vector<std::vector<std::uint64_t>> unmatched;

  /// Empirical probability that tracked peer `t_index`'s choice c is j.
  [[nodiscard]] double probability(std::size_t t_index, std::size_t c, core::PeerId j) const;

  /// Empirical P(choice c of tracked peer t_index is matched).
  [[nodiscard]] double match_mass(std::size_t t_index, std::size_t c) const;

  /// Full probability row for a tracked peer/choice (length n).
  [[nodiscard]] std::vector<double> probability_row(std::size_t t_index, std::size_t c) const;
};

/// Runs the estimator. Throws std::invalid_argument on bad parameters.
[[nodiscard]] MonteCarloResult estimate_mate_distribution(const MonteCarloOptions& options,
                                                          graph::Rng& rng);

}  // namespace strat::analysis
