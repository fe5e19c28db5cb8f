// The disorder metric of §3.
//
// For 1-matchings the paper defines the distance between two
// configurations C1, C2 as
//
//   D(C1, C2) = sum_i |sigma(C1,i) - sigma(C2,i)| * 2 / (n(n+1))
//
// where sigma(C, i) is the (1-based) rank of i's mate, or n+1 when i is
// unmatched. D is normalized: a perfect matching is at distance 1 from
// the empty configuration. "Disorder" is the distance between the
// current configuration and the stable one.
//
// All three functions below compute one slotwise generalization of D
// (README, "Model notes"): peer i holds b(i) slots per configuration,
// filled by its mates best first; slot k reads the 1-based rank of i's
// k-th mate, or n+1 when empty. The slot ranks are compared position by
// position and the sum is normalized by 2/(B(n+1)), with B = sum b(i).
// With one slot per peer this is D term for term.
#pragma once

#include <vector>

#include "core/matching.hpp"
#include "core/ranking.hpp"

namespace strat::core {

/// Paper metric for 1-matchings (one slot per peer). Throws
/// std::invalid_argument if sizes differ or either configuration has a
/// peer with more than one mate.
[[nodiscard]] double disorder_1matching(const Matching& c1, const Matching& c2,
                                        const GlobalRanking& ranking);

/// Slotwise metric for b-matchings: capacity(i) slots per peer.
/// Requires equal sizes and equal capacity vectors.
[[nodiscard]] double disorder_bmatching(const Matching& c1, const Matching& c2,
                                        const GlobalRanking& ranking);

/// Slotwise metric restricted to the peers listed in `active`, for any
/// b (used under churn). n is active.size(), ranks are positions within
/// the active set (best first), and a mate outside it reads as an empty
/// slot. Peer i holds max(b1(i), b2(i)) slots, where a configuration
/// smaller than i counts 0. Throws std::invalid_argument if an active id
/// repeats or is outside the ranking, or a configuration is larger than
/// the ranking.
[[nodiscard]] double disorder_active(const Matching& c1, const Matching& c2,
                                     const GlobalRanking& ranking,
                                     const std::vector<PeerId>& active);

}  // namespace strat::core
