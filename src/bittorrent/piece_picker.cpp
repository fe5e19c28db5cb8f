#include "bittorrent/piece_picker.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define STRAT_PICK_AVX512_DISPATCH 1
#endif

namespace strat::bt {

namespace detail {

template <class Error>
void throw_bit_error(const char* what) {
  throw Error(what);
}
template void throw_bit_error<std::out_of_range>(const char*);
template void throw_bit_error<std::invalid_argument>(const char*);

}  // namespace detail

Bitfield::Bitfield(std::size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

Bitfield Bitfield::random(std::size_t bits, double p, graph::Rng& rng) {
  Bitfield out(bits);
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    const std::size_t width = std::min<std::size_t>(64, bits - w * 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < width; ++b) {
      word |= static_cast<std::uint64_t>(rng.bernoulli(p)) << b;
    }
    out.words_[w] = word;
    out.count_ += static_cast<std::size_t>(std::popcount(word));
  }
  return out;
}

BitRows BitRows::from_words(std::size_t bits, std::vector<std::uint64_t> words) {
  BitRows out(bits);
  if (out.width_ == 0 ? !words.empty() : words.size() % out.width_ != 0) {
    throw std::invalid_argument("BitRows::from_words: not a whole number of rows");
  }
  const std::size_t rows = out.width_ == 0 ? 0 : words.size() / out.width_;
  out.counts_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t* row = words.data() + r * out.width_;
    if ((row[out.width_ - 1] & ~detail::last_word_mask(bits)) != 0) {
      throw std::invalid_argument("BitRows::from_words: bits set beyond size");
    }
    std::size_t count = 0;
    for (std::size_t w = 0; w < out.width_; ++w) {
      count += static_cast<std::size_t>(std::popcount(row[w]));
    }
    out.counts_[r] = count;
  }
  out.words_ = std::move(words);
  return out;
}

void BitRows::reserve(std::size_t rows) {
  words_.reserve(rows * width_);
  counts_.reserve(rows);
}

void BitRows::push_back(const Bitfield& b) {
  if (b.size() != bits_) throw std::invalid_argument("BitRows::push_back: size mismatch");
  const std::span<const std::uint64_t> w = b.words();
  words_.insert(words_.end(), w.begin(), w.end());
  counts_.push_back(b.count());
}

void BitRows::compact(std::size_t r) noexcept {
  const std::size_t last = counts_.size() - 1;
  if (r != last) {
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(last * width_), width_,
                words_.begin() + static_cast<std::ptrdiff_t>(r * width_));
    counts_[r] = counts_[last];
  }
  words_.resize(last * width_);
  counts_.pop_back();
}

std::size_t BitRows::memory_bytes() const noexcept {
  return words_.capacity() * sizeof(std::uint64_t) + counts_.capacity() * sizeof(std::size_t);
}

PiecePicker::PiecePicker(std::size_t num_pieces)
    : availability_(num_pieces, 0),
      width_((num_pieces + 63) / 64),
      tail_mask_(detail::last_word_mask(num_pieces)) {}

void PiecePicker::add_availability(PieceId piece) { ++availability_.at(piece); }

void PiecePicker::remove_availability(PieceId piece) {
  std::uint32_t& copies = availability_.at(piece);
  if (copies == 0) throw std::logic_error("PiecePicker::remove_availability: already zero");
  --copies;
}

void PiecePicker::add_bitfield(Words have) {
  check_words(have, true);
  for (std::size_t w = 0; w < have.size(); ++w) {
    std::uint64_t mask = have[w];
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      ++availability_[piece];
    }
  }
}

void PiecePicker::add_rows(Words arena, std::size_t rows) {
  if (width_ == 0 ? !arena.empty() : arena.size() % width_ != 0 || arena.size() / width_ != rows) {
    throw std::invalid_argument("PiecePicker::add_rows: arena is not rows x bitfield width");
  }
  for (std::size_t r = 0; r < rows; ++r) check_words(arena.subspan(r * width_, width_), true);
  if (detail::add_rows_vector(availability_, arena, rows, width_)) return;
  for (std::size_t r = 0; r < rows; ++r) add_bitfield(arena.subspan(r * width_, width_));
}

void PiecePicker::remove_bitfield(Words have) {
  check_words(have, true);
  for (std::size_t w = 0; w < have.size(); ++w) {
    std::uint64_t mask = have[w];
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      remove_availability(piece);
    }
  }
}

std::uint32_t PiecePicker::availability(PieceId piece) const { return availability_.at(piece); }

namespace {

/// Two-pass rarest-first over the candidate words (remote \ local,
/// minus an optional exclusion mask): pass 1 finds the minimum
/// availability and the tie count without touching the RNG, one draw
/// picks the winner's index, pass 2 walks to it. Exactly uniform over
/// the ties, and orders of magnitude fewer RNG calls than per-tie
/// reservoir sampling — this is the swarm simulator's hottest loop.
template <typename WordFn>
std::optional<PieceId> pick_rarest_scalar(const std::uint32_t* availability, std::size_t words,
                                          WordFn&& candidate_word, graph::Rng& rng) {
  std::uint32_t best_avail = 0;
  std::uint64_t ties = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = candidate_word(w);
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      const std::uint32_t avail = availability[piece];
      if (ties == 0 || avail < best_avail) {
        best_avail = avail;
        ties = 1;
      } else if (avail == best_avail) {
        ++ties;
      }
    }
  }
  if (ties == 0) return std::nullopt;
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t mask = candidate_word(w);
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      if (availability[piece] == best_avail) {
        if (k == 0) return piece;
        --k;
      }
    }
  }
  return std::nullopt;  // unreachable: pass 2 revisits pass 1's candidates
}

#ifdef STRAT_PICK_AVX512_DISPATCH

// GCC's own avx512fintrin.h trips -Wmaybe-uninitialized when the
// masked-load intrinsics inline under -O2.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define STRAT_PICK_TARGET __attribute__((target("avx512f,avx512bw,bmi,bmi2,popcnt")))

/// A bitfield word's 64 candidates map onto four 16-lane mask
/// registers, so availability is read with masked vector loads: flat in
/// candidate density, and a masked-off lane never faults, so the
/// ragged last word stays inside the availability array. Returns the
/// word's lanes whose availability equals `best`.
STRAT_PICK_TARGET __attribute__((always_inline)) inline std::uint64_t word_ties(
    const std::uint32_t* avail, std::uint64_t mask, __m512i best) {
  std::uint64_t ties = 0;
  for (int j = 0; j < 4; ++j) {
    const auto m = static_cast<__mmask16>(mask >> (16 * j));
    const __m512i v = _mm512_maskz_loadu_epi32(m, avail + 16 * j);
    ties |= static_cast<std::uint64_t>(_mm512_mask_cmpeq_epu32_mask(m, v, best)) << (16 * j);
  }
  return ties;
}

/// Tie masks kept on the stack: the first 64 words (4096 pieces). Words
/// past it recompute their mask in the select step.
constexpr std::size_t kTieWords = 64;

/// One masked-min pass over every candidate word with a single
/// horizontal reduce at the end, one pass that records each word's tie
/// mask and counts the ties, one rng.below(ties) draw, then the k-th
/// tie in piece order by popcount over the tie masks and pdep/tzcnt
/// inside its word. Produces exactly the scalar kernel's (minimum, tie
/// count, k-th tie), so picks and RNG consumption are bitwise identical
/// on every machine, with or without the instruction set.
template <typename WordFn>
STRAT_PICK_TARGET std::optional<PieceId> pick_rarest_vector(const std::uint32_t* availability,
                                                            std::size_t words,
                                                            WordFn&& candidate_word,
                                                            graph::Rng& rng) {
  __m512i vmin = _mm512_set1_epi32(-1);
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (mask == 0) continue;
    any |= mask;
    const std::uint32_t* avail = availability + w * 64;
    for (int j = 0; j < 4; ++j) {
      const auto m = static_cast<__mmask16>(mask >> (16 * j));
      vmin = _mm512_mask_min_epu32(vmin, m, vmin, _mm512_maskz_loadu_epi32(m, avail + 16 * j));
    }
  }
  if (any == 0) return std::nullopt;
  const __m512i best = _mm512_set1_epi32(static_cast<int>(_mm512_reduce_min_epu32(vmin)));

  std::uint64_t tie_masks[kTieWords];
  std::uint64_t ties = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t t = word_ties(availability + w * 64, candidate_word(w), best);
    if (w < kTieWords) tie_masks[w] = t;
    ties += static_cast<std::uint64_t>(std::popcount(t));
  }
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t t = w < kTieWords ? tie_masks[w]
                                          : word_ties(availability + w * 64, candidate_word(w), best);
    const auto count = static_cast<std::uint64_t>(std::popcount(t));
    if (k < count) {
      const std::uint64_t kth = _pdep_u64(std::uint64_t{1} << k, t);
      return static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(kth)));
    }
    k -= count;
  }
  return std::nullopt;  // unreachable: the select walks pass 2's tie masks
}

/// Rows per flush of add_rows' byte counters: a byte holds 255.
constexpr std::size_t kFlushRows = 255;
/// Word columns whose byte counters stay in registers over one block.
constexpr std::size_t kTileWords = 8;

/// Adds word column w's 64 byte counters into counts[w * 64, ...),
/// masked at the end of the `pieces`-long array.
STRAT_PICK_TARGET inline void flush_column(std::uint32_t* counts, std::size_t pieces,
                                           std::size_t w, __m512i bytes) {
  const __m128i quarter[4] = {
      _mm512_extracti32x4_epi32(bytes, 0), _mm512_extracti32x4_epi32(bytes, 1),
      _mm512_extracti32x4_epi32(bytes, 2), _mm512_extracti32x4_epi32(bytes, 3)};
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t first = w * 64 + 16 * j;
    if (first >= pieces) return;
    const std::size_t lanes = std::min<std::size_t>(16, pieces - first);
    const auto m = static_cast<__mmask16>((1u << lanes) - 1);
    const __m512i sum = _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, counts + first),
                                         _mm512_cvtepu8_epi32(quarter[j]));
    _mm512_mask_storeu_epi32(counts + first, m, sum);
  }
}

/// Subtracts rows [r0, r1) of word columns [w0, w0 + cols) from their
/// byte counters: each word becomes a 64-byte 0/-1 mask (vpmovm2b).
/// Inlined with a constant `cols` for a full tile, so the counters stay
/// in registers.
STRAT_PICK_TARGET __attribute__((always_inline)) inline void count_tile(
    __m512i* acc, std::size_t cols, const std::uint64_t* arena, std::size_t width,
    std::size_t w0, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::uint64_t* word = arena + r * width + w0;
    for (std::size_t j = 0; j < cols; ++j) {
      acc[j] = _mm512_sub_epi8(acc[j], _mm512_movm_epi8(static_cast<__mmask64>(word[j])));
    }
  }
}

/// Column counts over blocks of 255 rows, eight word columns at a time,
/// widened into the u32 counts once per block.
STRAT_PICK_TARGET void add_rows_avx512(std::uint32_t* counts, std::size_t pieces,
                                       const std::uint64_t* arena, std::size_t rows,
                                       std::size_t width) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kFlushRows) {
    const std::size_t r1 = std::min(rows, r0 + kFlushRows);
    for (std::size_t w0 = 0; w0 < width; w0 += kTileWords) {
      const std::size_t tile = std::min(kTileWords, width - w0);
      __m512i acc[kTileWords];
      for (__m512i& a : acc) a = _mm512_setzero_si512();
      if (tile == kTileWords) {
        count_tile(acc, kTileWords, arena, width, w0, r0, r1);
      } else {
        count_tile(acc, tile, arena, width, w0, r0, r1);
      }
      for (std::size_t j = 0; j < tile; ++j) flush_column(counts, pieces, w0 + j, acc[j]);
    }
  }
}

#undef STRAT_PICK_TARGET
#pragma GCC diagnostic pop

bool pick_has_vector() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("bmi") &&
                         __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt");
  return ok;
}

#endif  // STRAT_PICK_AVX512_DISPATCH

/// The vector kernel where the machine has it, else the scalar loop.
template <typename WordFn>
std::optional<PieceId> pick_rarest_masked(const std::vector<std::uint32_t>& availability,
                                          std::size_t words, WordFn&& candidate_word,
                                          graph::Rng& rng) {
#ifdef STRAT_PICK_AVX512_DISPATCH
  if (pick_has_vector()) {
    return pick_rarest_vector(availability.data(), words, candidate_word, rng);
  }
#endif
  return pick_rarest_scalar(availability.data(), words, candidate_word, rng);
}

}  // namespace

namespace detail {

bool add_rows_vector([[maybe_unused]] std::span<std::uint32_t> counts,
                     [[maybe_unused]] std::span<const std::uint64_t> arena,
                     [[maybe_unused]] std::size_t rows,
                     [[maybe_unused]] std::size_t width) noexcept {
#ifdef STRAT_PICK_AVX512_DISPATCH
  if (pick_has_vector()) {
    add_rows_avx512(counts.data(), counts.size(), arena.data(), rows, width);
    return true;
  }
#endif
  return false;
}

}  // namespace detail

std::optional<PieceId> PiecePicker::pick_rarest(Words local, Words remote,
                                                graph::Rng& rng) const {
  check_words(local, false);
  check_words(remote, true);
  return pick_rarest_masked(
      availability_, width_, [&](std::size_t w) { return remote[w] & ~local[w]; }, rng);
}

std::optional<PieceId> PiecePicker::pick_rarest(Words local, Words remote, Words excluded,
                                                graph::Rng& rng) const {
  check_words(local, false);
  check_words(remote, true);
  check_words(excluded, false);
  return pick_rarest_masked(
      availability_, width_,
      [&](std::size_t w) { return remote[w] & ~local[w] & ~excluded[w]; }, rng);
}

}  // namespace strat::bt
