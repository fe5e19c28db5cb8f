#include "core/churn.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "core/solver.hpp"
#include "graph/erdos_renyi.hpp"

namespace strat::core {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

std::vector<double> distinct_uniform_scores(std::size_t n, graph::Rng& rng) {
  std::unordered_set<double> seen;
  std::vector<double> scores;
  scores.reserve(n);
  while (scores.size() < n) {
    const double s = rng.uniform();
    if (seen.insert(s).second) scores.push_back(s);
  }
  return scores;
}

}  // namespace

ChurnSimulator::ChurnSimulator(const ChurnParams& params, graph::Rng& rng)
    : params_(params),
      rng_(rng),
      ranking_(GlobalRanking::from_scores(distinct_uniform_scores(params.initial_peers, rng))),
      acceptance_(graph::erdos_renyi_gnd(params.initial_peers, params.expected_degree, rng),
                  ranking_),
      matching_(params.initial_peers, params.capacity),
      cursors_(params.initial_peers, 0) {
  if (params.initial_peers < 2) throw std::invalid_argument("ChurnSimulator: need >= 2 peers");
  if (!(0.0 <= params.churn_rate && params.churn_rate <= 1.0)) {
    throw std::invalid_argument("ChurnSimulator: churn_rate out of [0,1]");
  }
  active_.resize(params.initial_peers);
  active_ix_.resize(params.initial_peers);
  for (std::size_t i = 0; i < params.initial_peers; ++i) {
    active_[i] = static_cast<PeerId>(i);
    active_ix_[i] = i;
  }
}

void ChurnSimulator::remove_random_peer() {
  if (active_.empty()) return;
  const std::size_t idx = static_cast<std::size_t>(rng_.below(active_.size()));
  const PeerId id = active_[idx];
  matching_.clear_peer(id);
  acceptance_.isolate(id);
  // Swap-remove from the dense active list.
  active_[idx] = active_.back();
  active_ix_[active_[idx]] = idx;
  active_.pop_back();
  active_ix_[id] = kNpos;
  ++departures_;
}

void ChurnSimulator::add_peer() {
  double score = rng_.uniform();
  while (std::find(ranking_.scores().begin(), ranking_.scores().end(), score) !=
         ranking_.scores().end()) {
    score = rng_.uniform();
  }
  const PeerId id = ranking_.append(score);
  const PeerId acc_id = acceptance_.add_peer();
  const PeerId match_id = matching_.add_peer(params_.capacity);
  if (acc_id != id || match_id != id) {
    throw std::logic_error("ChurnSimulator: id spaces diverged");
  }
  cursors_.push_back(0);
  // Keep the acceptance graph G(n, d)-distributed: the newcomer links to
  // each active peer with the nominal ER edge probability.
  const double p_edge =
      params_.expected_degree / static_cast<double>(params_.initial_peers - 1);
  for (PeerId q : active_) {
    if (rng_.bernoulli(p_edge)) acceptance_.add_edge(id, q);
  }
  active_ix_.push_back(active_.size());
  active_.push_back(id);
  ++arrivals_;
}

void ChurnSimulator::churn_event() {
  switch (params_.kind) {
    case ChurnKind::kReplacement:
      remove_random_peer();
      add_peer();
      break;
    case ChurnKind::kRemovalOnly:
      remove_random_peer();
      break;
    case ChurnKind::kArrivalOnly:
      add_peer();
      break;
  }
}

bool ChurnSimulator::step() {
  if (params_.churn_rate > 0.0 && rng_.bernoulli(params_.churn_rate)) churn_event();
  if (active_.empty()) return false;
  const PeerId p = active_[static_cast<std::size_t>(rng_.below(active_.size()))];
  ++initiatives_;
  return take_initiative(acceptance_, ranking_, matching_, p, params_.strategy, cursors_, rng_);
}

double ChurnSimulator::instant_disorder() const {
  // Instant stable configuration of the current population: ghosts get
  // capacity 0 so they never match.
  std::vector<std::uint32_t> capacities(matching_.size(), 0);
  for (PeerId id : active_) capacities[id] = params_.capacity;
  const Matching stable = stable_configuration(acceptance_, ranking_, std::move(capacities));
  return disorder_active(matching_, stable, ranking_, active_);
}

std::vector<TrajectoryPoint> ChurnSimulator::run(double units, std::size_t samples_per_unit) {
  return sample_trajectory(
      params_.initial_peers, units, samples_per_unit, initiatives_, [this] { return step(); },
      [this] { return instant_disorder(); });
}

}  // namespace strat::core
