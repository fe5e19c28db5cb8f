// Figure 6: influence of sigma for b-matching with b ~ N(6, sigma) on a
// complete acceptance graph. Mean cluster size explodes at the phase
// transition (sigma ~ 0.15) while the Mean Max Offset decreases. One
// task per (sigma, seed), each with its own generator; the output is the
// same at any --threads.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/metrics.hpp"
#include "core/solver.hpp"
#include "graph/rng.hpp"
#include "sim/parallel.hpp"

namespace {

/// One (sigma, seed) sample.
struct Cell {
  double cluster = 0.0;  // mean cluster size
  double mmo = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace strat;
  const sim::Cli cli(argc, argv, {"n", "bmean", "seeds", "threads", "csv"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 60000));
  const double bmean = cli.get_double("bmean", 6.0);
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds", 2));
  const auto threads = static_cast<std::size_t>(
      cli.get_int("threads", static_cast<std::int64_t>(sim::recommended_threads())));

  bench::banner(cli, "Figure 6: sigma sweep for N(" + sim::fmt(bmean, 0) + ", sigma)-matching");
  strat::bench::out(cli) << "(n = " << n << ", complete acceptance graph)\n";

  sim::Table table({"sigma", "mean cluster size", "MMO"});
  std::vector<double> sigmas;
  for (double s = 0.0; s <= 2.0001; s += 0.1) sigmas.push_back(s);

  // identity() leaves no lazy rank cache to refresh, so the tasks share
  // it read-only.
  const core::GlobalRanking ranking = core::GlobalRanking::identity(n);
  std::vector<std::vector<Cell>> cells(sigmas.size(), std::vector<Cell>(seeds));
  sim::parallel_for(sigmas.size() * seeds, threads, [&](std::size_t task) {
    const double sigma = sigmas[task / seeds];
    const std::size_t s = task % seeds;
    graph::Rng rng(1000 + static_cast<std::uint64_t>(sigma * 100.0) + s);
    std::vector<std::uint32_t> caps(n);
    for (auto& b : caps) {
      b = static_cast<std::uint32_t>(std::max(1.0, std::round(rng.normal(bmean, sigma))));
    }
    const core::Matching m = core::stable_configuration_complete(caps);
    cells[task / seeds][s] = {core::cluster_stats(m).mean_size, core::mean_max_offset(m, ranking)};
  });
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    // Seed-order means: a cell does not depend on the thread count.
    table.add_row({sim::fmt(sigmas[i], 1), sim::fmt(bench::mean(cells[i], &Cell::cluster), 1),
                   sim::fmt(bench::mean(cells[i], &Cell::mmo), 2)});
  }
  bench::emit(cli, table);
  strat::bench::out(cli) << "\n(paper: cluster size explodes once sigma ~ 0.15 produces heterogeneous\n"
               " samples, then stays almost constant; MMO decreases across the transition;\n"
               " sigma = 0 is the constant 6-matching: cluster 7, MMO "
            << sim::fmt(core::mmo_closed_form(6), 2) << ")\n";
  return 0;
}
