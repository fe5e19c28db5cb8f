// Figure 9: validation of the independent b0-matching model against
// exact Monte-Carlo simulation — first/second choice distributions of
// peer 3000 for n = 5000, p = 1%, b0 = 2, centered at the peer's rank.
// The paper used 10^6 realizations ("several weeks"); the default here
// is 300 (increase with --realizations; the shape is already stable).
// The output is the same at any --threads.
#include <iostream>
#include <vector>

#include "analysis/independent_bmatching.hpp"
#include "analysis/monte_carlo.hpp"
#include "bench_common.hpp"
#include "sim/parallel.hpp"

int main(int argc, char** argv) {
  using namespace strat;
  const sim::Cli cli(argc, argv, {"n", "p", "realizations", "threads", "seed", "csv"});
  const auto n = static_cast<std::size_t>(cli.get_int("n", 5000));
  const double p = cli.get_double("p", 0.01);
  const auto realizations = static_cast<std::size_t>(cli.get_int("realizations", 300));
  const auto threads = static_cast<std::size_t>(
      cli.get_int("threads", static_cast<std::int64_t>(sim::recommended_threads())));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));
  const auto peer = static_cast<core::PeerId>(n * 3000 / 5000 - 1);

  bench::banner(cli, "Figure 9: Algorithm 3 vs Monte-Carlo, peer " + std::to_string(peer + 1) +
                " (n = " + std::to_string(n) + ", p = " + sim::fmt(p * 100.0, 1) +
                "%, b0 = 2, " + std::to_string(realizations) + " realizations)");

  analysis::BMatchingOptions model_opt;
  model_opt.n = n;
  model_opt.p = p;
  model_opt.b0 = 2;
  model_opt.capture_rows = {peer};
  const auto model = analysis::analyze_bmatching(model_opt);

  analysis::MonteCarloOptions mc_opt;
  mc_opt.n = n;
  mc_opt.p = p;
  mc_opt.b0 = 2;
  mc_opt.realizations = realizations;
  mc_opt.tracked = {peer};
  mc_opt.threads = threads;
  graph::Rng rng(seed);
  const auto mc = analysis::estimate_mate_distribution(mc_opt, rng);

  // Ranking-offset bins, matching the paper's x axis (-800 .. 800).
  const long span = static_cast<long>(n) * 800 / 5000;
  const long bin = span / 10;
  sim::Table table({"ranking offset", "1st choice MC", "1st choice model", "2nd choice MC",
                    "2nd choice model"});
  const auto mc1 = mc.probability_row(0, 0);
  const auto mc2 = mc.probability_row(0, 1);
  const auto& md1 = model.rows.at(peer)[0];
  const auto& md2 = model.rows.at(peer)[1];
  for (long lo = -span; lo < span; lo += bin) {
    double m1 = 0.0;
    double m2 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    for (long off = lo; off < lo + bin; ++off) {
      const long j = static_cast<long>(peer) + off;
      if (j < 0 || j >= static_cast<long>(n)) continue;
      m1 += mc1[static_cast<std::size_t>(j)];
      m2 += mc2[static_cast<std::size_t>(j)];
      a1 += md1[static_cast<std::size_t>(j)];
      a2 += md2[static_cast<std::size_t>(j)];
    }
    std::string label = "[";
    label += std::to_string(lo);
    label += ",";
    label += std::to_string(lo + bin);
    label += ")";
    table.add_row({std::move(label), sim::fmt(m1, 4), sim::fmt(a1, 4), sim::fmt(m2, 4),
                   sim::fmt(a2, 4)});
  }
  bench::emit(cli, table);

  strat::bench::out(cli) << "\nmatch masses: model 1st " << sim::fmt(model.mass(peer, 0), 4) << ", MC 1st "
            << sim::fmt(mc.match_mass(0, 0), 4) << "; model 2nd "
            << sim::fmt(model.mass(peer, 1), 4) << ", MC 2nd "
            << sim::fmt(mc.match_mass(0, 1), 4) << "\n";

  // Total-variation distance per choice (binned): the accuracy headline.
  for (std::size_t c = 0; c < 2; ++c) {
    const auto mc_row = mc.probability_row(0, c);
    const auto& md_row = model.rows.at(peer)[c];
    double tv = 0.0;
    for (long lo = -static_cast<long>(peer); lo < static_cast<long>(n - peer); lo += bin) {
      double a = 0.0;
      double b = 0.0;
      for (long off = lo; off < lo + bin; ++off) {
        const long j = static_cast<long>(peer) + off;
        if (j < 0 || j >= static_cast<long>(n)) continue;
        a += mc_row[static_cast<std::size_t>(j)];
        b += md_row[static_cast<std::size_t>(j)];
      }
      tv += std::abs(a - b);
    }
    strat::bench::out(cli) << "binned total-variation distance, choice " << c + 1 << ": "
              << sim::fmt(tv / 2.0, 4) << "\n";
  }
  return 0;
}
