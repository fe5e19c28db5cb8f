// Algorithm 3: the independent b0-matching model (§5.4).
//
// D_c(i, j) is the probability that the c-th choice (c = 1..b0, best
// mate first) of peer i is peer j. Under Assumption 2 the joint
// probability that i's choice ci is j *and* j's choice cj is i factors:
//
//   D_{ci,cj}(i,j) = p · (F_{ci-1}(i,j) - F_{ci}(i,j))
//                      · (F_{cj-1}(j,i) - F_{cj}(j,i)),
//
// where F_c(i,j) = sum_{k<j} D_c(i,k) is the probability that choice c
// of i is matched with somebody better than j, and F_0 ≡ 1. (The
// paper's Eq. 4 prints the summation limits garbled; this is the form
// consistent with Eq. 2, Algorithm 3's code, and the Figure 7/9 checks —
// see README, "Model notes".) Marginalizing over cj telescopes:
//
//   D_ci(i,j) = p · (F_{ci-1}(i,j) - F_{ci}(i,j)) · (1 - F_{b0}(j,i)),
//
// so the full (ci, cj) tensor is never materialized. The paper hints at
// keeping partial sums in memory "to gain a linear factor"; this
// implementation goes further and streams in O(n·b0) memory and
// O(n^2·b0) time.
//
// Indices are 0-based ranks; choices are 0-based too (choice 0 = best).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "core/types.hpp"

namespace strat::analysis {

/// Inputs of the streaming b0-matching analysis.
struct BMatchingOptions {
  std::size_t n = 0;
  double p = 0.0;
  std::size_t b0 = 1;
  /// Peers whose per-choice rows D_c(i, ·) should be captured.
  std::vector<core::PeerId> capture_rows;
  /// Optional per-peer weights w(j) (e.g. upload bandwidth per slot);
  /// when set (size n), expected_weight[i] = sum_{c,j} D_c(i,j) w(j) is
  /// produced — the expected total download rate in the BitTorrent
  /// application (§6).
  std::vector<double> weights;
};

/// Outputs of the streaming analysis.
struct BMatchingResult {
  /// rows[i][c][j] = D_c(i, j) for captured peers i.
  std::map<core::PeerId, std::vector<std::vector<double>>> rows;
  /// choice_mass[i*b0 + c] = P(choice c of i is matched) = sum_j D_c(i,j).
  std::vector<double> choice_mass;
  /// expected_mates[i] = expected number of mates = sum_c choice_mass.
  std::vector<double> expected_mates;
  /// expected_weight[i] (only when weights were provided).
  std::vector<double> expected_weight;

  std::size_t n = 0;
  std::size_t b0 = 1;

  /// P(choice c of i matched). Bounds-checked.
  [[nodiscard]] double mass(core::PeerId i, std::size_t c) const;
};

/// Runs the streaming evaluation. Throws std::invalid_argument on bad
/// parameters (p outside [0,1], b0 == 0, wrong weight length, capture
/// row out of range).
[[nodiscard]] BMatchingResult analyze_bmatching(const BMatchingOptions& options);

}  // namespace strat::analysis
