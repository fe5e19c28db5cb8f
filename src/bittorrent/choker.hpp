// The Tit-for-Tat choker (§1, §6).
//
// Every choke interval (10 s in the reference client) a peer unchokes
// the `tft_slots` interested neighbors it downloaded the most from in
// the last interval, plus one *optimistic* unchoke rotated every
// `optimistic_rounds` intervals. The optimistic slot is the probing
// mechanism the paper identifies with the random-peer initiative of its
// matching model. Seeds have no download to reciprocate; they rank
// candidates by how much they served them instead (fastest-downloader
// policy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// One unchoke candidate as seen by the choker.
struct ChokeCandidate {
  core::PeerId peer = 0;
  /// Bytes received from this neighbor during the last interval
  /// (bytes *sent to* it when the chooser is a seed).
  double score = 0.0;
  /// Whether the neighbor wants data from the chooser.
  bool interested = false;
};

/// Per-peer stateful choker.
class TftChoker {
 public:
  TftChoker(std::size_t tft_slots, std::size_t optimistic_rounds);

  /// Computes this round's unchoke set. Regular slots go to the
  /// top-`tft_slots` interested candidates by score (ties uniformly at
  /// random); one extra optimistic slot goes to a random interested
  /// candidate outside that set, kept for `optimistic_rounds` rounds.
  [[nodiscard]] std::vector<core::PeerId> select(std::vector<ChokeCandidate> candidates,
                                                 graph::Rng& rng);

  /// Allocation-free select(): `candidates` is caller-owned scratch
  /// (filtered, shuffled and sorted in place, capacity retained across
  /// rounds) and the unchoke set is written into `out`, so once both
  /// buffers have grown to the neighbourhood's size a call allocates
  /// nothing. The swarm choke phase calls this with per-chunk scratch.
  /// Identical semantics and RNG consumption to select() (which
  /// delegates here).
  void select_into(std::vector<ChokeCandidate>& candidates, graph::Rng& rng,
                   std::vector<core::PeerId>& out);

  /// Current optimistic-unchoke target (kNoPeer when none).
  [[nodiscard]] core::PeerId optimistic() const noexcept { return optimistic_; }

  /// The choker's complete state, exposed for checkpointing: slot
  /// configuration plus the optimistic-rotation position. Restoring it
  /// reproduces the exact select() behavior from that point on.
  struct State {
    std::size_t tft_slots = 0;
    std::size_t optimistic_rounds = 1;
    std::size_t rounds_since_rotation = 0;
    core::PeerId optimistic = core::kNoPeer;
  };

  [[nodiscard]] State state() const noexcept {
    return State{tft_slots_, optimistic_rounds_, rounds_since_rotation_, optimistic_};
  }

  /// Rebuilds a choker from a captured State.
  [[nodiscard]] static TftChoker from_state(const State& st) {
    TftChoker c(st.tft_slots, st.optimistic_rounds);
    c.rounds_since_rotation_ = st.rounds_since_rotation;
    c.optimistic_ = st.optimistic;
    return c;
  }

 private:
  std::size_t tft_slots_;
  std::size_t optimistic_rounds_;
  std::size_t rounds_since_rotation_ = 0;
  core::PeerId optimistic_ = core::kNoPeer;
};

}  // namespace strat::bt
