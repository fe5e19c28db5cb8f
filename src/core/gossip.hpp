// Gossip-based peer discovery (§1's peer-sampling reference).
//
// The paper notes its framework "also fits gossip-based protocols used
// by a peer to discover its rank" (Jelasity et al.'s peer sampling
// service). This module provides that substrate: every peer maintains a
// bounded random view refreshed by a shuffle protocol (contact a random
// view member, exchange random half-views), and the matching dynamics
// run over the *discovered* acceptance relation instead of a static
// graph. With continuing shuffles every pair is eventually acceptable,
// so the attractor is the complete-graph stable configuration —
// adjacent ranks pair up — which is what the simulator measures
// disorder against.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dynamics.hpp"
#include "core/initiative.hpp"
#include "core/matching.hpp"
#include "core/ranking.hpp"
#include "graph/rng.hpp"

namespace strat::core {

/// Parameters of a gossip-discovery run.
struct GossipParams {
  std::size_t peers = 500;
  std::size_t view_size = 10;
  /// Shuffle exchanges per peer per base unit (n initiatives); finite
  /// and >= 0.
  double shuffles_per_unit = 1.0;
  Strategy strategy = Strategy::kBestMate;
  std::uint32_t capacity = 1;
};

/// Bounded-view peer sampling service (shuffle protocol).
class PeerSampling {
 public:
  /// Initializes every view with distinct uniformly random peers.
  PeerSampling(std::size_t peers, std::size_t view_size, graph::Rng& rng);

  [[nodiscard]] std::size_t peers() const noexcept { return views_.size(); }
  [[nodiscard]] const std::vector<PeerId>& view(PeerId p) const { return views_.at(p); }

  /// One shuffle by peer p: contact a random view member q; p and q
  /// swap random halves of their views (self/duplicate entries are
  /// dropped, views stay <= view_size).
  void shuffle(PeerId p, graph::Rng& rng);

  /// True iff q is currently in p's view.
  [[nodiscard]] bool knows(PeerId p, PeerId q) const;

 private:
  void merge_view(PeerId owner, const std::vector<PeerId>& incoming);

  std::size_t view_size_;
  std::vector<std::vector<PeerId>> views_;
};

/// Matching dynamics over gossip-discovered views.
class GossipSimulator {
 public:
  GossipSimulator(const GossipParams& params, graph::Rng& rng);

  /// One step = maybe some shuffles + one initiative by a random peer
  /// over its current view (plus its current mates).
  bool step();

  /// Runs `units` base units, sampling disorder vs the complete-graph
  /// stable configuration.
  std::vector<TrajectoryPoint> run(double units, std::size_t samples_per_unit = 2);

  /// Disorder of the current configuration vs the complete-knowledge
  /// stable configuration (adjacent-rank pairing).
  [[nodiscard]] double disorder() const;

  [[nodiscard]] const Matching& current() const noexcept { return matching_; }
  [[nodiscard]] const PeerSampling& sampling() const noexcept { return sampling_; }
  [[nodiscard]] std::size_t initiatives() const noexcept { return initiatives_; }

 private:
  GossipParams params_;
  graph::Rng& rng_;
  GlobalRanking ranking_;
  PeerSampling sampling_;
  Matching matching_;
  Matching complete_stable_;
  std::size_t initiatives_ = 0;
  double shuffle_debt_ = 0.0;
};

}  // namespace strat::core
