// Continuous churn simulation (§3, Figure 3).
//
// Peers can be removed or introduced at any time, governed by a churn
// rate: at each initiative step, an independent Bernoulli(rate) trial
// decides whether a churn event occurs first. The default event is a
// *replacement* (one uniformly random active peer departs and one fresh
// peer arrives), which keeps the population size stationary and matches
// the paper's "x/1000" rate notation for n = 1000; removal-only and
// arrival-only events are available for the ablation bench.
//
// Arrivals draw a fresh uniform intrinsic score and connect to each
// active peer independently with the Erdős–Rényi edge probability, so
// the acceptance graph stays G(n, d)-distributed under churn. Disorder
// is measured against the *instant* stable configuration of the current
// population, recomputed at sampling points.
#pragma once

#include <cstddef>
#include <vector>

#include "core/acceptance.hpp"
#include "core/dynamics.hpp"
#include "core/initiative.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "graph/rng.hpp"

namespace strat::core {

/// What a churn event does to the population.
enum class ChurnKind {
  kReplacement,  // departure + arrival (stationary n)
  kRemovalOnly,
  kArrivalOnly,
};

/// Parameters of a churn run.
struct ChurnParams {
  std::size_t initial_peers = 1000;
  double expected_degree = 10.0;  // ER acceptance-graph mean degree
  std::uint32_t capacity = 1;     // b(p), uniform
  double churn_rate = 0.01;       // events per initiative step
  ChurnKind kind = ChurnKind::kReplacement;
  Strategy strategy = Strategy::kBestMate;
};

/// Churn simulator over a growing id space (departed peers become
/// inactive ghosts; arrivals get fresh ids).
class ChurnSimulator {
 public:
  ChurnSimulator(const ChurnParams& params, graph::Rng& rng);

  /// One step: maybe a churn event, then one random-active-peer
  /// initiative. Returns true iff the initiative was active.
  bool step();

  /// Runs `units` base units (initial_peers initiatives each), sampling
  /// disorder vs the instant stable configuration `samples_per_unit`
  /// times per unit.
  std::vector<TrajectoryPoint> run(double units, std::size_t samples_per_unit = 4);

  /// disorder_active over the active peers, against the instant stable
  /// configuration (recomputed now).
  [[nodiscard]] double instant_disorder() const;

  /// Currently active peers.
  [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }

  /// Total arrivals (excluding the initial population) so far.
  [[nodiscard]] std::size_t arrivals() const noexcept { return arrivals_; }

  /// Total departures so far.
  [[nodiscard]] std::size_t departures() const noexcept { return departures_; }

  [[nodiscard]] const Matching& current() const noexcept { return matching_; }
  [[nodiscard]] const GlobalRanking& ranking() const noexcept { return ranking_; }
  [[nodiscard]] const std::vector<PeerId>& active() const noexcept { return active_; }

 private:
  void churn_event();
  void remove_random_peer();
  void add_peer();

  ChurnParams params_;
  graph::Rng& rng_;
  GlobalRanking ranking_;
  ExplicitAcceptance acceptance_;
  Matching matching_;
  std::vector<PeerId> active_;         // dense list for uniform sampling
  std::vector<std::size_t> active_ix_; // id -> index in active_, or npos
  std::vector<std::size_t> cursors_;
  std::size_t arrivals_ = 0;
  std::size_t departures_ = 0;
  std::size_t initiatives_ = 0;
};

}  // namespace strat::core
