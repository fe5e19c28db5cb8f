// Piece bookkeeping and rarest-first selection.
//
// BitTorrent's "download rarest first" policy equalizes block
// repartition across the swarm, which is exactly the paper's §6
// assumption that content availability does not constrain the
// acceptance graph in the post-flash-crowd phase. The swarm simulator
// uses this module for per-peer piece bitfields (one arena of rows,
// BitRows) and piece selection (PiecePicker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/rng.hpp"

namespace strat::bt {

using PieceId = std::uint32_t;

namespace detail {

/// The one cold throw path of the inline bit operations below, so each
/// inlines to a compare and a never-taken branch. Instantiated for
/// std::out_of_range (a bad piece) and std::invalid_argument (a size
/// mismatch) in piece_picker.cpp.
template <class Error>
[[noreturn, gnu::cold]] void throw_bit_error(const char* what);

/// The valid bits of the last word of a `bits`-wide bitfield.
constexpr std::uint64_t last_word_mask(std::size_t bits) noexcept {
  return bits % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (bits % 64)) - 1;
}

/// True if `offer` holds a piece `have` lacks, over `words` words (the
/// BitTorrent "interested" predicate, shared by Bitfield and BitRows).
inline bool lacks_any(const std::uint64_t* have, const std::uint64_t* offer,
                      std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    if (offer[w] & ~have[w]) return true;
  }
  return false;
}

/// The AVX-512BW kernel behind PiecePicker::add_rows, exposed so tests
/// can pin it against the scalar loop: adds every set bit of the
/// `rows` x `width`-word row-major `arena` into `counts` (bit i of a
/// row's word w counts toward piece w*64+i; `arena` holds at least
/// rows x width words, `counts` one entry per piece, and no row sets a
/// bit at or beyond counts.size()).
/// Returns false without touching `counts` where the machine lacks
/// AVX-512BW.
bool add_rows_vector(std::span<std::uint32_t> counts, std::span<const std::uint64_t> arena,
                     std::size_t rows, std::size_t width) noexcept;

/// Starts loading the cache line at `p` ahead of a random read.
inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace detail

/// Compact piece bitfield.
class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(std::size_t bits);

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] bool test(PieceId i) const {
    if (i >= bits_) detail::throw_bit_error<std::out_of_range>("Bitfield::test: bad piece");
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(PieceId i) {
    if (i >= bits_) detail::throw_bit_error<std::out_of_range>("Bitfield::set: bad piece");
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (!(words_[i >> 6] & bit)) {
      words_[i >> 6] |= bit;
      ++count_;
    }
  }
  void reset(PieceId i) {
    if (i >= bits_) detail::throw_bit_error<std::out_of_range>("Bitfield::reset: bad piece");
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (words_[i >> 6] & bit) {
      words_[i >> 6] &= ~bit;
      --count_;
    }
  }
  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// True when every piece is held.
  [[nodiscard]] bool complete() const noexcept { return count_ == bits_; }
  /// True if `other` holds at least one piece this bitfield lacks
  /// (the BitTorrent "interested" predicate).
  [[nodiscard]] bool interested_in(const Bitfield& other) const {
    if (other.bits_ != bits_) {
      detail::throw_bit_error<std::invalid_argument>("Bitfield::interested_in: size mismatch");
    }
    return detail::lacks_any(words_.data(), other.words_.data(), words_.size());
  }

  /// Raw 64-bit words (bit i of word w = piece w*64+i); bits beyond
  /// size() are always zero. Lets pick_rarest skip non-candidate
  /// pieces a word at a time.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

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

/// Equal-width piece bitfields in one row-major word arena: row r is
/// words [r * width(), (r + 1) * width()), width() = ceil(bits / 64),
/// with a set-bit count per row. The swarm keeps every live peer's
/// bitfield here, so its choke and transfer scans read neighbour rows
/// out of one array instead of chasing a heap block per peer. Row
/// operations are unchecked — the caller's rows and pieces are valid —
/// and bits beyond the piece count stay zero in every row, as in
/// Bitfield.
class BitRows {
 public:
  BitRows() = default;
  explicit BitRows(std::size_t bits) : bits_(bits), width_((bits + 63) / 64) {}

  /// Rebuilds rows from a row-major arena (the checkpoint path). The
  /// word count must be a whole number of rows and no row may set a bit
  /// beyond `bits` — a corrupt tail would silently break interested()
  /// and count() — else std::invalid_argument. Counts are recomputed,
  /// never trusted from the caller.
  [[nodiscard]] static BitRows from_words(std::size_t bits, std::vector<std::uint64_t> words);

  /// Words per row.
  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t rows() const noexcept { return counts_.size(); }
  /// The whole arena, rows in order.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t r) const noexcept {
    return {words_.data() + r * width_, width_};
  }

  [[nodiscard]] bool test(std::size_t r, PieceId i) const noexcept {
    return (words_[r * width_ + (i >> 6)] >> (i & 63)) & 1u;
  }
  void set(std::size_t r, PieceId i) noexcept {
    std::uint64_t& word = words_[r * width_ + (i >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (!(word & bit)) {
      word |= bit;
      ++counts_[r];
    }
  }
  [[nodiscard]] std::size_t count(std::size_t r) const noexcept { return counts_[r]; }
  [[nodiscard]] bool complete(std::size_t r) const noexcept { return counts_[r] == bits_; }
  /// True if row `sender` holds a piece row `receiver` lacks.
  [[nodiscard]] bool interested(std::size_t receiver, std::size_t sender) const noexcept {
    return detail::lacks_any(words_.data() + receiver * width_, words_.data() + sender * width_,
                             width_);
  }
  /// Starts loading row r's first cache line ahead of a random read.
  void prefetch(std::size_t r) const noexcept { detail::prefetch(words_.data() + r * width_); }
  /// Starts loading the word of row r that holds piece i.
  void prefetch(std::size_t r, PieceId i) const noexcept {
    detail::prefetch(words_.data() + r * width_ + (i >> 6));
  }

  void reserve(std::size_t rows);
  /// Appends a row holding `b`'s pieces. Throws std::invalid_argument
  /// on a size mismatch.
  void push_back(const Bitfield& b);
  /// Swap-with-last row compaction (PeerTable::remove's discipline):
  /// moves the last row into row r, unless r is the last, then drops
  /// the last row.
  void compact(std::size_t r) noexcept;
  /// Heap bytes held (the word arena and the counts).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::size_t bits_ = 0;
  std::size_t width_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> counts_;
};

/// Tracks global piece availability and picks rarest-first. The entry
/// points take raw bitfield words (Bitfield::words(), BitRows::row()):
/// ceil(num_pieces / 64) words each, bit i of word w = piece w*64+i.
/// A word span of the wrong length, or a holder's span with a bit set
/// beyond num_pieces, throws std::invalid_argument. The Bitfield
/// overloads forward after checking the bitfield's size.
class PiecePicker {
 public:
  using Words = std::span<const std::uint64_t>;

  explicit PiecePicker(std::size_t num_pieces);

  /// A picker over availability.size() pieces holding `availability`
  /// as its counts, unchecked: the snapshot loader places the stored
  /// counts here, and Swarm::audit() recounts them from the bitfields.
  [[nodiscard]] static PiecePicker from_availability(std::vector<std::uint32_t> availability);

  /// Registers that one more peer holds `piece`.
  void add_availability(PieceId piece);

  /// Registers that a holder of `piece` left the swarm. Throws
  /// std::logic_error if the availability is already zero.
  void remove_availability(PieceId piece);

  /// Registers every piece of a joining peer's (partial) bitfield.
  void add_bitfield(Words have);
  void add_bitfield(const Bitfield& have) { add_bitfield(checked(have)); }

  /// add_bitfield() for each of `rows` bitfields stored row-major in
  /// `arena` (BitRows::words()), in one pass: the AVX-512BW kernel
  /// keeps 64 byte counters per word column and flushes them every 255
  /// rows; elsewhere it is the per-row loop. Integer counts, so the
  /// result equals the per-row loop's exactly. Throws
  /// std::invalid_argument, before counting anything, unless `arena`
  /// is `rows` bitfields' worth of words with no bit set beyond
  /// num_pieces.
  void add_rows(Words arena, std::size_t rows);

  /// Drops every piece of a departing peer's bitfield. Throws
  /// std::logic_error if any counter is already zero.
  void remove_bitfield(Words have);
  void remove_bitfield(const Bitfield& have) { remove_bitfield(checked(have)); }

  /// Number of holders of `piece`.
  [[nodiscard]] std::uint32_t availability(PieceId piece) const;

  /// Chooses the rarest piece that `remote` has and `local` lacks; ties
  /// broken uniformly at random. nullopt when the remote has nothing
  /// useful. O(num_pieces).
  [[nodiscard]] std::optional<PieceId> pick_rarest(Words local, Words remote,
                                                   graph::Rng& rng) const;
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   graph::Rng& rng) const {
    return pick_rarest(checked(local), checked(remote), rng);
  }

  /// pick_rarest restricted to pieces outside `excluded` — the
  /// non-endgame request discipline (don't target a piece another
  /// neighbor is already delivering). Same tie-breaking RNG consumption
  /// for a given candidate set as the unrestricted overload.
  [[nodiscard]] std::optional<PieceId> pick_rarest(Words local, Words remote, Words excluded,
                                                   graph::Rng& rng) const;
  [[nodiscard]] std::optional<PieceId> pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                   const Bitfield& excluded,
                                                   graph::Rng& rng) const {
    return pick_rarest(checked(local), checked(remote), checked(excluded), rng);
  }

 private:
  /// `b`'s words, once its size matches num_pieces.
  [[nodiscard]] Words checked(const Bitfield& b) const {
    if (b.size() != availability_.size()) {
      detail::throw_bit_error<std::invalid_argument>("PiecePicker: bitfield size mismatch");
    }
    return b.words();
  }
  /// Throws unless `words` is one bitfield's worth of words; with
  /// `holder`, also unless its bits beyond num_pieces are zero (the
  /// spans whose bits index the availability array).
  void check_words(Words words, bool holder) const {
    if (words.size() != width_) {
      detail::throw_bit_error<std::invalid_argument>("PiecePicker: bitfield size mismatch");
    }
    if (holder && width_ > 0 && (words[width_ - 1] & ~tail_mask_) != 0) {
      detail::throw_bit_error<std::invalid_argument>("PiecePicker: bits set beyond num_pieces");
    }
  }

  std::vector<std::uint32_t> availability_;
  std::size_t width_ = 0;  // words per bitfield: ceil(num_pieces / 64)
  std::uint64_t tail_mask_ = ~std::uint64_t{0};  // valid bits of the last word
};

}  // namespace strat::bt
