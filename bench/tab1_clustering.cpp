// Table 1: clustering and stratification on a complete knowledge graph.
// Left half: constant b0-matching (cluster size b0+1, closed-form MMO);
// right half: rounded-normal N(b̄, 0.2) capacities (cluster size
// explodes factorially, MMO *drops*). One task per b0 for the left half
// and one per (b̄, seed) for the right, each with its own generator; the
// output is the same at any --threads.
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

using namespace strat;

constexpr std::size_t kMinB = 2;
constexpr std::size_t kMaxB = 7;

std::vector<std::uint32_t> rounded_normal_caps(std::size_t n, double mean, double sigma,
                                               graph::Rng& rng) {
  std::vector<std::uint32_t> caps(n);
  for (auto& b : caps) {
    b = static_cast<std::uint32_t>(std::max(1.0, std::round(rng.normal(mean, sigma))));
  }
  return caps;
}

/// One b0 of the constant half.
struct ConstantCell {
  double cluster = 0.0;  // peer-experienced cluster size
  double mmo = 0.0;
};

/// One (b̄, seed) sample of the rounded-normal half.
struct NormalCell {
  double cluster = 0.0;         // components-averaged cluster size
  double vertex_cluster = 0.0;  // peer-experienced cluster size
  double mmo = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const sim::Cli cli(argc, argv, {"sigma", "seeds", "scale", "threads", "csv"});
  const double sigma = cli.get_double("sigma", 0.2);
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds", 3));
  const double scale = cli.get_double("scale", 1.0);
  const auto threads = static_cast<std::size_t>(
      cli.get_int("threads", static_cast<std::int64_t>(sim::recommended_threads())));

  bench::banner(cli, "Table 1: clustering and stratification in a complete knowledge graph");
  sim::Table table({"b0 / b-mean", "const: cluster size", "const: MMO (closed form)",
                    "const: MMO (measured)", "normal s=" + sim::fmt(sigma, 1) + ": cluster size",
                    "normal: peer-avg cluster", "normal: MMO"});

  // Variable capacities: population sized to hold several of the
  // (factorially growing) clusters the paper reports.
  const auto n_var = [scale](std::size_t b) {
    return static_cast<std::size_t>(
        scale * static_cast<double>(std::min<std::size_t>(240000, 4000 << (2 * (b - 2)))));
  };
  const std::size_t widths = kMaxB - kMinB + 1;
  std::vector<std::vector<NormalCell>> normal(widths, std::vector<NormalCell>(seeds));
  std::vector<ConstantCell> constant(widths);
  // The normal tasks come first, largest b first, so the biggest
  // populations start before the small ones.
  const std::size_t normal_tasks = widths * seeds;
  sim::parallel_for(normal_tasks + widths, threads, [&](std::size_t task) {
    if (task < normal_tasks) {
      const std::size_t b = kMaxB - task / seeds;
      const std::size_t s = task % seeds;
      const std::size_t n = n_var(b);
      graph::Rng rng(100 + b * 10 + s);
      const auto caps = rounded_normal_caps(n, static_cast<double>(b), sigma, rng);
      const core::Matching mv = core::stable_configuration_complete(caps);
      const auto stats_v = core::cluster_stats(mv);
      const core::GlobalRanking rv = core::GlobalRanking::identity(n);
      normal[b - kMinB][s] = {stats_v.mean_size, stats_v.vertex_mean_size,
                              core::mean_max_offset(mv, rv)};
      return;
    }
    // Constant b0-matching: measure on a population of whole clusters.
    const std::size_t b = kMinB + (task - normal_tasks);
    const std::size_t n_const = (b + 1) * 2000;
    const core::Matching mc = core::stable_configuration_complete(
        std::vector<std::uint32_t>(n_const, static_cast<std::uint32_t>(b)));
    const core::GlobalRanking rc = core::GlobalRanking::identity(n_const);
    constant[b - kMinB] = {core::cluster_stats(mc).vertex_mean_size,
                           core::mean_max_offset(mc, rc)};
  });

  for (std::size_t b = kMinB; b <= kMaxB; ++b) {
    const std::vector<NormalCell>& runs = normal[b - kMinB];  // seed order
    const ConstantCell& c = constant[b - kMinB];
    table.add_row({std::to_string(b), sim::fmt(c.cluster, 1),
                   sim::fmt(core::mmo_closed_form(b), 2), sim::fmt(c.mmo, 2),
                   sim::fmt(bench::mean(runs, &NormalCell::cluster), 0),
                   sim::fmt(bench::mean(runs, &NormalCell::vertex_cluster), 0),
                   sim::fmt(bench::mean(runs, &NormalCell::mmo), 2)});
  }
  bench::emit(cli, table);
  strat::bench::out(cli) << "\npaper reference rows:\n"
               "  const cluster size: 3 4 5 6 7 8;  const MMO: 1.67 2.5 3.2 4 4.71 5.5\n"
               "  normal cluster size: 6 20 78 350 1800 11000;  normal MMO: 1.33 2.10 "
               "2.52 3.21 3.65 4.31\n";
  return 0;
}
