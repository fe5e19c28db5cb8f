// Ablation: the paper's 1-matching disorder metric vs this library's
// slotwise b-matching generalization (README, "Model notes"). At b = 1 they are
// identical; at b > 1 only the generalization applies, and it should
// decay monotonically along converging dynamics just like the original.
#include <iostream>

#include "bench_common.hpp"
#include "core/dynamics.hpp"
#include "graph/erdos_renyi.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace strat;
  const sim::Cli cli(argc, argv, {"n", "d", "seed", "csv"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 400));
  const double d = cli.get_double("d", 12.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 8));

  bench::banner(cli, "Ablation: disorder metric variants");

  // b = 1: paper metric and generalization agree exactly.
  {
    graph::Rng rng(seed);
    const core::GlobalRanking ranking = core::GlobalRanking::identity(n);
    const graph::Graph g = graph::erdos_renyi_gnd(n, d, rng);
    const core::ExplicitAcceptance acc(g, ranking);
    core::DynamicsEngine engine(acc, ranking, std::vector<std::uint32_t>(n, 1),
                                core::Strategy::kBestMate, rng);
    double max_gap = 0.0;
    for (int step = 0; step < 12; ++step) {
      engine.run(0.5, 1);
      const double paper = core::disorder_1matching(engine.current(), engine.stable(), ranking);
      const double general = core::disorder_bmatching(engine.current(), engine.stable(), ranking);
      max_gap = std::max(max_gap, std::abs(paper - general));
    }
    strat::bench::out(cli) << "b = 1: max |paper - generalized| along a trajectory: "
              << sim::fmt_sci(max_gap, 2) << " (identical by construction)\n\n";
  }

  // b = 3: the generalized metric traces convergence.
  graph::Rng rng(seed + 1);
  const core::GlobalRanking ranking = core::GlobalRanking::identity(n);
  const graph::Graph g = graph::erdos_renyi_gnd(n, d, rng);
  const core::ExplicitAcceptance acc(g, ranking);
  core::DynamicsEngine engine(acc, ranking, std::vector<std::uint32_t>(n, 3),
                              core::Strategy::kBestMate, rng);
  sim::Table table({"initiatives/peer", "generalized disorder (b=3)"});
  for (int step = 0; step <= 20; ++step) {
    table.add_row({sim::fmt(static_cast<double>(engine.initiatives()) / static_cast<double>(n), 1),
                   sim::fmt(engine.disorder(), 4)});
    engine.run(0.5, 1);
  }
  bench::emit(cli, table);
  return 0;
}
