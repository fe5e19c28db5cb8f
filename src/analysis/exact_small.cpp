#include "analysis/exact_small.hpp"

#include <cmath>
#include <stdexcept>

#include "core/acceptance.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "core/solver.hpp"
#include "graph/graph.hpp"

namespace strat::analysis {

ExactSmallModel::ExactSmallModel(std::size_t n, double p, std::size_t b0) : n_(n), b0_(b0) {
  if (n > 7) throw std::invalid_argument("ExactSmallModel: n too large (max 7)");
  if (!(0.0 <= p && p <= 1.0)) throw std::invalid_argument("ExactSmallModel: p out of [0,1]");
  if (b0 == 0) throw std::invalid_argument("ExactSmallModel: b0 must be >= 1");
  pair_.assign(n * n, 0.0);
  choice_.assign(n * b0 * n, 0.0);
  mass_.assign(n * b0, 0.0);
  if (n < 2) return;

  const core::GlobalRanking ranking = core::GlobalRanking::identity(n);
  const std::size_t pairs = n * (n - 1) / 2;
  // Pair index -> (u, v) decode table.
  std::vector<std::pair<core::PeerId, core::PeerId>> decode;
  decode.reserve(pairs);
  for (core::PeerId u = 0; u + 1 < n; ++u) {
    for (core::PeerId v = u + 1; v < n; ++v) decode.emplace_back(u, v);
  }

  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pairs); ++mask) {
    const int edges = __builtin_popcountll(mask);
    const double weight = std::pow(p, edges) * std::pow(1.0 - p, static_cast<int>(pairs) - edges);
    if (weight == 0.0) continue;
    graph::Graph g(n);
    for (std::size_t e = 0; e < pairs; ++e) {
      if (mask & (std::uint64_t{1} << e)) g.add_edge(decode[e].first, decode[e].second);
    }
    g.finalize();
    const core::ExplicitAcceptance acc(g, ranking);
    const core::Matching m = core::stable_configuration(
        acc, ranking, std::vector<std::uint32_t>(n, static_cast<std::uint32_t>(b0)));
    for (core::PeerId i = 0; i < n; ++i) {
      const auto mates = m.mates(i);
      for (std::size_t c = 0; c < mates.size(); ++c) {
        pair_[i * n + mates[c]] += weight;
        choice_[(i * b0_ + c) * n + mates[c]] += weight;
        mass_[i * b0_ + c] += weight;
      }
    }
  }
}

double ExactSmallModel::d(core::PeerId i, core::PeerId j) const {
  if (i >= n_ || j >= n_) throw std::out_of_range("ExactSmallModel::d: bad index");
  return pair_[static_cast<std::size_t>(i) * n_ + j];
}

double ExactSmallModel::d_choice(core::PeerId i, std::size_t c, core::PeerId j) const {
  if (i >= n_ || j >= n_ || c >= b0_) {
    throw std::out_of_range("ExactSmallModel::d_choice: bad index");
  }
  return choice_[(static_cast<std::size_t>(i) * b0_ + c) * n_ + j];
}

double ExactSmallModel::match_mass(core::PeerId i, std::size_t c) const {
  if (i >= n_ || c >= b0_) throw std::out_of_range("ExactSmallModel::match_mass: bad index");
  return mass_[static_cast<std::size_t>(i) * b0_ + c];
}

}  // namespace strat::analysis
