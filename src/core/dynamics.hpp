// Convergence dynamics (§3, Figures 1 and 2).
//
// The DynamicsEngine repeats the paper's simulated process: at each step
// a peer chosen uniformly at random takes one initiative (active or
// not). A *base unit* is n successive initiatives ("one expected
// initiative per peer"); disorder is sampled at a configurable cadence
// against the (precomputed) stable configuration.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/acceptance.hpp"
#include "core/disorder.hpp"
#include "core/initiative.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "core/solver.hpp"
#include "graph/rng.hpp"

namespace strat::core {

/// One sampled point of a convergence trajectory.
struct TrajectoryPoint {
  /// Elapsed initiatives divided by n ("initiatives per peer").
  double initiatives_per_peer = 0.0;
  /// Slotwise distance to the stable configuration (disorder.hpp); it
  /// is the paper's 1-matching metric when every capacity is 1.
  double disorder = 0.0;
  /// Fraction of initiatives since the previous sample that were active.
  double active_fraction = 0.0;
};

/// The trajectory loop behind every simulator's run(). It calls `step`
/// (true = an active initiative) floor(units * n) times and samples
/// `disorder()` before the first call, after every
/// max(1, n / samples_per_unit) calls and after a partial last window.
/// A point's initiatives_per_peer is the caller's `initiatives` counter,
/// read at the sample, over n. Throws std::invalid_argument if
/// samples_per_unit is 0 or units is negative, not finite or too large
/// for a step count.
std::vector<TrajectoryPoint> sample_trajectory(std::size_t n, double units,
                                               std::size_t samples_per_unit,
                                               const std::size_t& initiatives,
                                               const std::function<bool()>& step,
                                               const std::function<double()>& disorder);

/// Drives random-peer initiatives over a fixed population.
class DynamicsEngine {
 public:
  /// The acceptance graph, ranking and capacities define the instance;
  /// the engine computes the stable configuration up front. The three
  /// references must outlive the engine.
  DynamicsEngine(const AcceptanceGraph& acc, const GlobalRanking& ranking,
                 std::vector<std::uint32_t> capacities, Strategy strategy, graph::Rng& rng);

  /// Current configuration (starts empty, C_0 = C_emptyset).
  [[nodiscard]] const Matching& current() const noexcept { return current_; }
  [[nodiscard]] Matching& current() noexcept { return current_; }

  /// Replaces the current configuration (e.g. to study recovery from a
  /// perturbed stable state, Figure 2). Throws std::invalid_argument on
  /// size or capacity mismatch.
  void set_current(Matching m);

  /// The unique stable configuration of the instance.
  [[nodiscard]] const Matching& stable() const noexcept { return stable_; }

  /// Performs one initiative by a uniformly random peer.
  /// Returns true iff it was active.
  bool step();

  /// Runs `units` base units (n initiatives each), sampling disorder
  /// `samples_per_unit` times per unit. The first returned point is the
  /// state *before* any initiative of this call.
  std::vector<TrajectoryPoint> run(double units, std::size_t samples_per_unit = 4);

  /// Runs until disorder reaches zero or `max_units` elapse; returns the
  /// number of initiatives per peer consumed (== max_units on timeout).
  /// Throws std::invalid_argument if max_units is negative, not finite or
  /// too large for a step count.
  double run_until_stable(double max_units);

  /// Disorder of the current configuration.
  [[nodiscard]] double disorder() const;

  /// Total initiatives taken so far.
  [[nodiscard]] std::size_t initiatives() const noexcept { return initiatives_; }

  /// Total *active* initiatives taken so far.
  [[nodiscard]] std::size_t active_initiatives() const noexcept { return active_; }

 private:
  const AcceptanceGraph& acc_;
  const GlobalRanking& ranking_;
  Strategy strategy_;
  graph::Rng& rng_;
  Matching current_;
  Matching stable_;
  std::vector<std::size_t> cursors_;
  std::size_t initiatives_ = 0;
  std::size_t active_ = 0;
};

}  // namespace strat::core
