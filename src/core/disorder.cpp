#include "core/disorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ranges>
#include <span>
#include <stdexcept>

namespace strat::core {

namespace {

/// The slotwise distance over `peers`, in order: peer i holds slots(i)
/// slots, and slot k of a configuration reads rank1 of i's k-th mate, or
/// n + 1 when i has fewer mates there or rank1 reads 0 (an unranked mate).
template <class Peers, class Slots, class Rank1>
double slotwise(const Matching& c1, const Matching& c2, std::size_t n, const Peers& peers,
                Slots slots, Rank1 rank1) {
  const double unmatched = static_cast<double>(n + 1);
  const auto slot_rank = [&](std::span<const PeerId> mates, std::uint32_t k) {
    const std::uint32_t r = k < mates.size() ? rank1(mates[k]) : 0u;
    return r == 0 ? unmatched : static_cast<double>(r);
  };
  double sum = 0.0;
  double total_slots = 0.0;
  for (const PeerId i : peers) {
    const auto m1 = i < c1.size() ? c1.mates(i) : std::span<const PeerId>{};
    const auto m2 = i < c2.size() ? c2.mates(i) : std::span<const PeerId>{};
    const std::uint32_t b = slots(i);
    total_slots += static_cast<double>(b);
    for (std::uint32_t k = 0; k < b; ++k) sum += std::abs(slot_rank(m1, k) - slot_rank(m2, k));
  }
  if (total_slots == 0.0) return 0.0;
  return sum * 2.0 / (total_slots * unmatched);
}

/// Every peer of two equal-size configurations, ranked by `ranking`.
template <class Slots>
double slotwise_all(const Matching& c1, const Matching& c2, const GlobalRanking& ranking,
                    Slots slots) {
  const std::size_t n = c1.size();
  return slotwise(c1, c2, n, std::views::iota(PeerId{0}, static_cast<PeerId>(n)), slots,
                  [&](PeerId mate) { return ranking.rank_of(mate) + 1u; });
}

}  // namespace

double disorder_1matching(const Matching& c1, const Matching& c2, const GlobalRanking& ranking) {
  if (c1.size() != c2.size() || c1.size() != ranking.size()) {
    throw std::invalid_argument("disorder_1matching: size mismatch");
  }
  for (PeerId p = 0; p < c1.size(); ++p) {
    if (c1.degree(p) > 1 || c2.degree(p) > 1) {
      throw std::invalid_argument("disorder_1matching: not a 1-matching");
    }
  }
  return slotwise_all(c1, c2, ranking, [](PeerId) { return 1u; });
}

double disorder_bmatching(const Matching& c1, const Matching& c2, const GlobalRanking& ranking) {
  if (c1.size() != c2.size() || c1.size() != ranking.size()) {
    throw std::invalid_argument("disorder_bmatching: size mismatch");
  }
  return slotwise_all(c1, c2, ranking, [&](PeerId i) {
    if (c1.capacity(i) != c2.capacity(i)) {
      throw std::invalid_argument("disorder_bmatching: capacity mismatch");
    }
    return c1.capacity(i);
  });
}

double disorder_active(const Matching& c1, const Matching& c2, const GlobalRanking& ranking,
                       const std::vector<PeerId>& active) {
  if (c1.size() > ranking.size() || c2.size() > ranking.size()) {
    throw std::invalid_argument("disorder_active: configuration larger than the ranking");
  }
  for (const PeerId p : active) {
    if (p >= ranking.size()) throw std::invalid_argument("disorder_active: id out of range");
  }
  // Rank positions within the active population, best first; 0 = inactive.
  std::vector<PeerId> sorted = active;
  std::sort(sorted.begin(), sorted.end(),
            [&](PeerId a, PeerId b) { return ranking.prefers(a, b); });
  std::vector<std::uint32_t> active_rank(ranking.size(), 0);
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    if (active_rank[sorted[r]] != 0) throw std::invalid_argument("disorder_active: repeated id");
    active_rank[sorted[r]] = static_cast<std::uint32_t>(r + 1);
  }
  const auto slots = [&](PeerId i) {
    return std::max(i < c1.size() ? c1.capacity(i) : 0u, i < c2.size() ? c2.capacity(i) : 0u);
  };
  return slotwise(c1, c2, active.size(), active, slots,
                  [&](PeerId mate) { return active_rank[mate]; });
}

}  // namespace strat::core
