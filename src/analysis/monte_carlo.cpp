#include "analysis/monte_carlo.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/acceptance.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "core/solver.hpp"
#include "graph/erdos_renyi.hpp"
#include "sim/parallel.hpp"

namespace strat::analysis {

double MonteCarloResult::probability(std::size_t t_index, std::size_t c, core::PeerId j) const {
  if (realizations == 0) return 0.0;
  return static_cast<double>(freq.at(t_index).at(c).at(j)) / static_cast<double>(realizations);
}

double MonteCarloResult::match_mass(std::size_t t_index, std::size_t c) const {
  if (realizations == 0) return 0.0;
  return 1.0 - static_cast<double>(unmatched.at(t_index).at(c)) /
                   static_cast<double>(realizations);
}

std::vector<double> MonteCarloResult::probability_row(std::size_t t_index, std::size_t c) const {
  const auto& counts = freq.at(t_index).at(c);
  std::vector<double> row(counts.size(), 0.0);
  if (realizations == 0) return row;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    row[j] = static_cast<double>(counts[j]) / static_cast<double>(realizations);
  }
  return row;
}

MonteCarloResult estimate_mate_distribution(const MonteCarloOptions& options, graph::Rng& rng) {
  if (!(0.0 <= options.p && options.p <= 1.0)) {
    throw std::invalid_argument("estimate_mate_distribution: p out of [0,1]");
  }
  if (options.b0 == 0) throw std::invalid_argument("estimate_mate_distribution: b0 >= 1");
  if (options.n < 2) throw std::invalid_argument("estimate_mate_distribution: n >= 2");
  for (core::PeerId t : options.tracked) {
    if (t >= options.n) throw std::invalid_argument("estimate_mate_distribution: bad peer");
  }
  const std::size_t tracked = options.tracked.size();
  const std::size_t b0 = options.b0;
  const core::GlobalRanking ranking = core::GlobalRanking::identity(options.n);
  const std::vector<std::uint32_t> capacity(options.n, static_cast<std::uint32_t>(b0));
  // Realization r draws from its own counter stream and writes only its
  // own slots (tracked x b0 mate ids, kNoPeer where a choice stays
  // empty), so the tally below is the same at any thread count.
  const std::uint64_t key = rng();
  std::vector<core::PeerId> slots(options.realizations * tracked * b0, core::kNoPeer);
  sim::parallel_for(options.realizations, options.threads, [&](std::size_t r) {
    graph::Rng stream = graph::Rng::stream(key, r, 0);
    const graph::Graph g = graph::erdos_renyi_gnp(options.n, options.p, stream);
    const core::Matching m =
        core::stable_configuration(core::ExplicitAcceptance(g, ranking), ranking, capacity);
    for (std::size_t t = 0; t < tracked; ++t) {
      const auto mates = m.mates(options.tracked[t]);
      std::copy_n(mates.begin(), std::min(mates.size(), b0), slots.data() + (r * tracked + t) * b0);
    }
  });

  MonteCarloResult out;
  out.realizations = options.realizations;
  out.freq.assign(tracked, std::vector<std::vector<std::uint64_t>>(
                               b0, std::vector<std::uint64_t>(options.n, 0)));
  out.unmatched.assign(tracked, std::vector<std::uint64_t>(b0, 0));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t t = i / b0 % tracked;
    const std::size_t c = i % b0;
    if (slots[i] == core::kNoPeer) {
      ++out.unmatched[t][c];
    } else {
      ++out.freq[t][c][slots[i]];
    }
  }
  return out;
}

}  // namespace strat::analysis
