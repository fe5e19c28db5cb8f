#include "core/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/blocking.hpp"
#include "core/solver.hpp"

namespace strat::core {

PeerSampling::PeerSampling(std::size_t peers, std::size_t view_size, graph::Rng& rng)
    : view_size_(view_size), views_(peers) {
  if (peers < 2) throw std::invalid_argument("PeerSampling: need >= 2 peers");
  if (view_size == 0 || view_size >= peers) {
    throw std::invalid_argument("PeerSampling: view size in [1, peers)");
  }
  for (PeerId p = 0; p < peers; ++p) {
    auto& view = views_[p];
    while (view.size() < view_size) {
      const auto q = static_cast<PeerId>(rng.below(peers));
      if (q == p || std::find(view.begin(), view.end(), q) != view.end()) continue;
      view.push_back(q);
    }
  }
}

bool PeerSampling::knows(PeerId p, PeerId q) const {
  const auto& view = views_.at(p);
  return std::find(view.begin(), view.end(), q) != view.end();
}

void PeerSampling::merge_view(PeerId owner, const std::vector<PeerId>& incoming) {
  auto& view = views_[owner];
  for (PeerId entry : incoming) {
    if (entry == owner) continue;
    if (std::find(view.begin(), view.end(), entry) != view.end()) continue;
    view.push_back(entry);
  }
  // Bounded views: the freshest entries (just appended) survive; excess
  // is trimmed from the oldest half, which is what keeps the network
  // mixing (a simplified Jelasity-style shuffle).
  while (view.size() > view_size_) view.erase(view.begin());
}

void PeerSampling::shuffle(PeerId p, graph::Rng& rng) {
  auto& view = views_[p];
  if (view.empty()) return;
  const PeerId q = view[static_cast<std::size_t>(rng.below(view.size()))];

  auto sample_half = [&](PeerId owner, PeerId partner) {
    std::vector<PeerId> pool = views_[owner];
    pool.erase(std::remove(pool.begin(), pool.end(), partner), pool.end());
    rng.shuffle(pool);
    pool.resize(std::min(pool.size(), view_size_ / 2));
    pool.push_back(owner);  // gossip your own address
    return pool;
  };

  const std::vector<PeerId> from_p = sample_half(p, q);
  const std::vector<PeerId> from_q = sample_half(q, p);
  merge_view(q, from_p);
  merge_view(p, from_q);
}

GossipSimulator::GossipSimulator(const GossipParams& params, graph::Rng& rng)
    : params_(params),
      rng_(rng),
      ranking_(GlobalRanking::identity(params.peers)),
      sampling_(params.peers, params.view_size, rng),
      matching_(params.peers, params.capacity),
      complete_stable_(stable_configuration_complete(
          std::vector<std::uint32_t>(params.peers, params.capacity))) {
  if (!(std::isfinite(params.shuffles_per_unit) && params.shuffles_per_unit >= 0.0)) {
    throw std::invalid_argument("GossipSimulator: shuffles_per_unit must be finite and >= 0");
  }
  if (params.strategy == Strategy::kDecremental) {
    throw std::invalid_argument(
        "GossipSimulator: decremental scanning is undefined over mutating views; "
        "use best or random");
  }
}

bool GossipSimulator::step() {
  shuffle_debt_ += params_.shuffles_per_unit;
  while (shuffle_debt_ >= 1.0) {
    sampling_.shuffle(static_cast<PeerId>(rng_.below(params_.peers)), rng_);
    shuffle_debt_ -= 1.0;
  }
  const auto p = static_cast<PeerId>(rng_.below(params_.peers));
  ++initiatives_;

  // Candidates: the peers p currently knows, by decreasing rank.
  std::vector<PeerId> candidates = sampling_.view(p);
  std::sort(candidates.begin(), candidates.end(),
            [&](PeerId a, PeerId b) { return ranking_.prefers(a, b); });
  if (params_.strategy == Strategy::kRandom && !candidates.empty()) {
    const PeerId q = candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
    candidates.assign(1, q);
  }
  for (PeerId q : candidates) {
    if (q == p || matching_.are_matched(p, q)) continue;
    if (!wishes(matching_, ranking_, p, q)) break;  // sorted: rest are worse
    if (wishes(matching_, ranking_, q, p)) {
      execute_blocking_pair(ranking_, matching_, p, q);
      return true;
    }
  }
  return false;
}

double GossipSimulator::disorder() const {
  return disorder_bmatching(matching_, complete_stable_, ranking_);
}

std::vector<TrajectoryPoint> GossipSimulator::run(double units, std::size_t samples_per_unit) {
  return sample_trajectory(
      params_.peers, units, samples_per_unit, initiatives_, [this] { return step(); },
      [this] { return disorder(); });
}

}  // namespace strat::core
