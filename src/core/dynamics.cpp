#include "core/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace strat::core {

namespace {

/// floor(units * n) as a step count. Refuses a NaN, infinite or negative
/// `units`, and a product beyond std::size_t, whose cast is undefined.
std::size_t unit_steps(double units, std::size_t n, const char* what) {
  const double steps = units * static_cast<double>(n);
  if (!(std::isfinite(units) && units >= 0.0 &&
        steps < static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(std::string(what) + " must be finite, >= 0 and < 2^64 / n");
  }
  return static_cast<std::size_t>(steps);
}

}  // namespace

std::vector<TrajectoryPoint> sample_trajectory(std::size_t n, double units,
                                               std::size_t samples_per_unit,
                                               const std::size_t& initiatives,
                                               const std::function<bool()>& step,
                                               const std::function<double()>& disorder) {
  if (samples_per_unit == 0) throw std::invalid_argument("run: samples_per_unit must be >= 1");
  const std::size_t total_steps = unit_steps(units, n, "run: units");
  const std::size_t stride = std::max<std::size_t>(1, n / samples_per_unit);
  std::vector<TrajectoryPoint> points;
  points.reserve(total_steps / stride + 2);
  std::size_t active_in_window = 0;
  std::size_t window = 0;
  auto sample = [&] {
    TrajectoryPoint pt;
    pt.initiatives_per_peer = static_cast<double>(initiatives) / static_cast<double>(n);
    pt.disorder = disorder();
    pt.active_fraction =
        window == 0 ? 0.0 : static_cast<double>(active_in_window) / static_cast<double>(window);
    points.push_back(pt);
  };
  sample();
  for (std::size_t s = 0; s < total_steps; ++s) {
    if (step()) ++active_in_window;
    if (++window == stride) {
      sample();
      window = 0;
      active_in_window = 0;
    }
  }
  if (window != 0) sample();
  return points;
}

DynamicsEngine::DynamicsEngine(const AcceptanceGraph& acc, const GlobalRanking& ranking,
                               std::vector<std::uint32_t> capacities, Strategy strategy,
                               graph::Rng& rng)
    : acc_(acc),
      ranking_(ranking),
      strategy_(strategy),
      rng_(rng),
      current_(capacities),
      stable_(stable_configuration(acc, ranking, std::move(capacities))),
      cursors_(acc.size(), 0) {
  if (acc.size() != ranking.size()) {
    throw std::invalid_argument("DynamicsEngine: acceptance/ranking size mismatch");
  }
}

void DynamicsEngine::set_current(Matching m) {
  if (m.size() != current_.size()) {
    throw std::invalid_argument("set_current: size mismatch");
  }
  for (PeerId p = 0; p < m.size(); ++p) {
    if (m.capacity(p) != current_.capacity(p)) {
      throw std::invalid_argument("set_current: capacity mismatch");
    }
  }
  current_ = std::move(m);
}

bool DynamicsEngine::step() {
  const auto p = static_cast<PeerId>(rng_.below(acc_.size()));
  const bool active = take_initiative(acc_, ranking_, current_, p, strategy_, cursors_, rng_);
  ++initiatives_;
  if (active) ++active_;
  return active;
}

double DynamicsEngine::disorder() const {
  return disorder_bmatching(current_, stable_, ranking_);
}

std::vector<TrajectoryPoint> DynamicsEngine::run(double units, std::size_t samples_per_unit) {
  return sample_trajectory(
      acc_.size(), units, samples_per_unit, initiatives_, [this] { return step(); },
      [this] { return disorder(); });
}

double DynamicsEngine::run_until_stable(double max_units) {
  const std::size_t n = acc_.size();
  const std::size_t max_steps = unit_steps(max_units, n, "run_until_stable: max_units");
  const std::size_t start = initiatives_;
  // Check disorder only once per half-unit: it costs O(n).
  const std::size_t stride = std::max<std::size_t>(1, n / 2);
  if (disorder() == 0.0) return 0.0;
  for (std::size_t s = 0; s < max_steps; ++s) {
    step();
    if ((s + 1) % stride == 0 && disorder() == 0.0) break;
  }
  return static_cast<double>(initiatives_ - start) / static_cast<double>(n);
}

}  // namespace strat::core
