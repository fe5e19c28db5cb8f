// Shared plumbing for the figure-reproduction harnesses.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/table.hpp"

namespace strat::bench {

/// Prints a table as CSV when --csv was passed, aligned ASCII otherwise.
inline void emit(const sim::Cli& cli, const sim::Table& table) {
  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.render());
}

/// Stream for banners and commentary: stdout normally, stderr under
/// --csv so stdout stays machine-parseable (bench_all.sh redirects it).
inline std::ostream& out(const sim::Cli& cli) {
  return cli.get_bool("csv") ? std::cerr : std::cout;
}

/// Standard banner: what this binary reproduces.
inline void banner(const sim::Cli& cli, const std::string& what) {
  out(cli) << "== " << what << " ==\n";
}

/// Sum of `field` (a member pointer or a callable) over one grid
/// point's replications, in seed order from 0.0 — so a table cell
/// does not depend on how many threads produced the runs.
template <typename Run, typename Field>
double sum(const std::vector<Run>& runs, Field field) {
  double total = 0.0;
  for (const Run& run : runs) total += static_cast<double>(std::invoke(field, run));
  return total;
}

/// Seed-order mean of `field`: sum() over the replication count.
template <typename Run, typename Field>
double mean(const std::vector<Run>& runs, Field field) {
  return sum(runs, field) / static_cast<double>(runs.size());
}

}  // namespace strat::bench
