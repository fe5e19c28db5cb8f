// Figure 10: cumulative distribution of upstream capacities, after
// Saroiu et al. 2002 (synthetic mixture — see README, "Model notes").
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bittorrent/bandwidth.hpp"
#include "sim/table.hpp"

int main(int argc, char** argv) {
  using namespace strat;
  const sim::Cli cli(argc, argv, {"csv"});

  bench::banner(cli, "Figure 10: estimation of upstream bandwidth capacities (Saroiu et al.)");
  const bt::BandwidthModel model = bt::BandwidthModel::saroiu2002();

  sim::Table table({"upstream (kbps)", "percentage of hosts <= x"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 10.0; x <= 100000.0 * 1.0001; x *= std::pow(10.0, 0.25)) {
    const double c = model.cdf(x) * 100.0;
    table.add_row({sim::fmt(x, 0), sim::fmt(c, 1)});
    xs.push_back(std::log10(x));
    ys.push_back(c);
  }
  bench::emit(cli, table);
  strat::bench::out(cli) << "\nCDF (x = log10 kbps):\n" << sim::ascii_series(xs, ys, 50, 2, 1);

  strat::bench::out(cli) << "\nmixture components:\n";
  for (const auto& c : model.components()) {
    strat::bench::out(cli) << "  " << c.label << ": weight " << sim::fmt(c.weight, 2) << ", median "
              << sim::fmt(c.median_kbps, 0) << " kbps, sigma " << sim::fmt(c.log10_sigma, 2)
              << " decades\n";
  }
  strat::bench::out(cli) << "\nwaypoints: P(<=100 kbps) = " << sim::fmt(model.cdf(100.0), 3)
            << ", P(<=1 Mbps) = " << sim::fmt(model.cdf(1000.0), 3)
            << ", P(<=10 Mbps) = " << sim::fmt(model.cdf(10000.0), 3) << "\n";
  return 0;
}
