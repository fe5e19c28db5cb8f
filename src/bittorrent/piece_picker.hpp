// Piece bookkeeping and rarest-first selection.
//
// BitTorrent's "download rarest first" policy equalizes block
// repartition across the swarm, which is exactly the paper's §6
// assumption that content availability does not constrain the
// acceptance graph in the post-flash-crowd phase. The swarm simulator
// uses this module for per-peer piece bitfields and piece selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/rng.hpp"

namespace strat::bt {

using PieceId = std::uint32_t;

/// Compact piece bitfield.
class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t bits);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool test(PieceId i) const;
  void set(PieceId i);
  void reset(PieceId i);
  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// True when every piece is held.
  [[nodiscard]] bool complete() const noexcept { return count_ == bits_; }
  /// True if `other` holds at least one piece this bitfield lacks
  /// (the BitTorrent "interested" predicate).
  [[nodiscard]] bool interested_in(const Bitfield& other) const;

  /// Raw 64-bit words (bit i of word w = piece w*64+i); bits beyond
  /// size() are always zero. Lets pick_rarest skip non-candidate
  /// pieces a word at a time.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Rebuilds a bitfield from raw words (the checkpoint path). The
  /// word count must match `bits` and bits beyond `bits` must be zero
  /// — a corrupt tail would silently break interested_in()/count()
  /// invariants — else std::invalid_argument. The set-bit count is
  /// recomputed, never trusted from the caller.
  [[nodiscard]] static Bitfield from_words(std::size_t bits, std::vector<std::uint64_t> words);

  /// Holds each piece independently with probability p — the
  /// post-flash-crowd and arrival-completion fill. Draws exactly one
  /// rng.bernoulli(p) per piece in piece order, so the bits and the RNG
  /// stream match a per-piece `if (rng.bernoulli(p)) set(i)` loop. It
  /// draws even at p = 0: whether to draw at all is the caller's call.
  [[nodiscard]] static Bitfield random(std::size_t bits, double p, graph::Rng& rng);

 private:
  std::size_t bits_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Tracks global piece availability and picks rarest-first.
class PiecePicker {
 public:
  explicit PiecePicker(std::size_t num_pieces);

  /// Registers that one more peer holds `piece`.
  void add_availability(PieceId piece);

  /// Registers that a holder of `piece` left the swarm. Throws
  /// std::logic_error if the availability is already zero.
  void remove_availability(PieceId piece);

  /// Registers every piece of a joining peer's (partial) bitfield.
  /// Throws std::invalid_argument on a size mismatch.
  void add_bitfield(const Bitfield& have);

  /// Drops every piece of a departing peer's bitfield. Throws
  /// std::logic_error if any counter is already zero.
  void remove_bitfield(const Bitfield& have);

  /// Number of holders of `piece`.
  [[nodiscard]] std::uint32_t availability(PieceId piece) const;

  /// Chooses the rarest piece that `remote` has and `local` lacks; ties
  /// broken uniformly at random. nullopt when the remote has nothing
  /// useful. O(num_pieces).
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   graph::Rng& rng) const;

  /// pick_rarest restricted to pieces outside `excluded` — the
  /// non-endgame request discipline (don't target a piece another
  /// neighbor is already delivering). Same tie-breaking RNG consumption
  /// for a given candidate set as the unrestricted overload.
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   const Bitfield& excluded,
                                                   graph::Rng& rng) const;

 private:
  std::vector<std::uint32_t> availability_;
};

}  // namespace strat::bt
