#include "bittorrent/piece_picker.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define STRAT_PICK_AVX512_DISPATCH 1
#endif

namespace strat::bt {

Bitfield::Bitfield(std::size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

bool Bitfield::test(PieceId i) const {
  if (i >= bits_) throw std::out_of_range("Bitfield::test: bad piece");
  return (words_[i >> 6] >> (i & 63)) & 1u;
}

void Bitfield::set(PieceId i) {
  if (i >= bits_) throw std::out_of_range("Bitfield::set: bad piece");
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (!(words_[i >> 6] & bit)) {
    words_[i >> 6] |= bit;
    ++count_;
  }
}

void Bitfield::reset(PieceId i) {
  if (i >= bits_) throw std::out_of_range("Bitfield::reset: bad piece");
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (words_[i >> 6] & bit) {
    words_[i >> 6] &= ~bit;
    --count_;
  }
}

Bitfield Bitfield::from_words(std::size_t bits, std::vector<std::uint64_t> words) {
  if (words.size() != (bits + 63) / 64) {
    throw std::invalid_argument("Bitfield::from_words: word count mismatch");
  }
  if (bits % 64 != 0 && !words.empty() &&
      (words.back() & ~((std::uint64_t{1} << (bits % 64)) - 1)) != 0) {
    throw std::invalid_argument("Bitfield::from_words: bits set beyond size");
  }
  Bitfield out;
  out.bits_ = bits;
  out.words_ = std::move(words);
  out.count_ = 0;
  for (const std::uint64_t w : out.words_) {
    out.count_ += static_cast<std::size_t>(std::popcount(w));
  }
  return out;
}

Bitfield Bitfield::random(std::size_t bits, double p, graph::Rng& rng) {
  std::vector<std::uint64_t> words((bits + 63) / 64);
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t width = std::min<std::size_t>(64, bits - w * 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < width; ++b) {
      word |= static_cast<std::uint64_t>(rng.bernoulli(p)) << b;
    }
    words[w] = word;
  }
  return from_words(bits, std::move(words));
}

bool Bitfield::interested_in(const Bitfield& other) const {
  if (other.bits_ != bits_) throw std::invalid_argument("Bitfield::interested_in: size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (other.words_[w] & ~words_[w]) return true;
  }
  return false;
}

PiecePicker::PiecePicker(std::size_t num_pieces) : availability_(num_pieces, 0) {}

void PiecePicker::add_availability(PieceId piece) { ++availability_.at(piece); }

void PiecePicker::remove_availability(PieceId piece) {
  std::uint32_t& copies = availability_.at(piece);
  if (copies == 0) throw std::logic_error("PiecePicker::remove_availability: already zero");
  --copies;
}

void PiecePicker::add_bitfield(const Bitfield& have) {
  if (have.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::add_bitfield: size mismatch");
  }
  const std::span<const std::uint64_t> words = have.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t mask = words[w];
    while (mask != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(mask)));
      mask &= mask - 1;
      ++availability_[piece];
    }
  }
}

void PiecePicker::remove_bitfield(const Bitfield& have) {
  if (have.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::remove_bitfield: size mismatch");
  }
  const std::span<const std::uint64_t> words = have.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t mask = words[w];
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
std::optional<PieceId> pick_rarest_scalar(const std::vector<std::uint32_t>& availability,
                                          std::size_t words, WordFn&& candidate_word,
                                          graph::Rng& rng) {
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

/// A bitfield word maps directly onto four 16-lane mask registers, so
/// the per-set-bit availability gather of the scalar loop becomes four
/// masked vector loads per word, flat in candidate density. Produces
/// exactly the scalar loop's (best, tie count, k-th tie) — bitwise
/// identical picks and RNG consumption on every machine, with or
/// without the instruction set.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline std::uint32_t word_min_avx512(
    const std::uint32_t* avail, std::uint64_t mask) {
  const __m512i inf = _mm512_set1_epi32(-1);
  __m512i vmin = inf;
  for (int j = 0; j < 4; ++j) {
    const auto m = static_cast<__mmask16>(mask >> (16 * j));
    if (!m) continue;
    vmin = _mm512_min_epu32(vmin, _mm512_mask_loadu_epi32(inf, m, avail + 16 * j));
  }
  return _mm512_reduce_min_epu32(vmin);
}

__attribute__((target("avx512f,avx512bw"), always_inline)) inline std::uint32_t
word_eq_count_avx512(const std::uint32_t* avail, std::uint64_t mask, std::uint32_t best) {
  const __m512i inf = _mm512_set1_epi32(-1);
  const __m512i vb = _mm512_set1_epi32(static_cast<int>(best));
  std::uint32_t count = 0;
  for (int j = 0; j < 4; ++j) {
    const auto m = static_cast<__mmask16>(mask >> (16 * j));
    if (!m) continue;
    const __m512i v = _mm512_mask_loadu_epi32(inf, m, avail + 16 * j);
    count += static_cast<std::uint32_t>(
        std::popcount(static_cast<std::uint32_t>(_mm512_mask_cmpeq_epu32_mask(m, v, vb))));
  }
  return count;
}

template <typename WordFn>
__attribute__((target("avx512f,avx512bw"))) std::optional<PieceId> pick_rarest_avx512(
    const std::vector<std::uint32_t>& availability, std::size_t words, WordFn&& candidate_word,
    graph::Rng& rng) {
  std::uint32_t best = 0xFFFFFFFFu;
  bool any = false;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (!mask) continue;
    any = true;
    // The last word's tail lanes (beyond num_pieces) are never
    // candidates — Bitfield keeps them zero — so the masked loads
    // stay inside the availability array.
    const std::uint32_t m = word_min_avx512(&availability[w * 64], mask);
    best = m < best ? m : best;
  }
  if (!any) return std::nullopt;
  std::uint64_t ties = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (!mask) continue;
    ties += word_eq_count_avx512(&availability[w * 64], mask, best);
  }
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t mask = candidate_word(w);
    if (!mask) continue;
    const std::uint32_t count = word_eq_count_avx512(&availability[w * 64], mask, best);
    if (k >= count) {
      k -= count;
      continue;
    }
    std::uint64_t bits = mask;
    while (bits != 0) {
      const auto piece =
          static_cast<PieceId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      if (availability[piece] == best) {
        if (k == 0) return piece;
        --k;
      }
    }
  }
  return std::nullopt;  // unreachable: pass 3 revisits pass 1's candidates
}

#pragma GCC diagnostic pop

bool pick_has_avx512() {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return ok;
}

#endif  // STRAT_PICK_AVX512_DISPATCH

/// Dense candidate sets pay ~1 availability load per candidate in the
/// scalar loop; the vector path is flat (~4 masked loads per word), so
/// it wins once a pick sees more than about two candidates per lane
/// group. Sparse sets (endgame tails, nearly-done receivers) stay on
/// the scalar loop, which is faster there and the only path on
/// machines without the instruction set.
template <typename WordFn>
std::optional<PieceId> pick_rarest_masked(const std::vector<std::uint32_t>& availability,
                                          std::size_t words, WordFn&& candidate_word,
                                          graph::Rng& rng) {
#ifdef STRAT_PICK_AVX512_DISPATCH
  if (pick_has_avx512()) {
    std::size_t candidates = 0;
    for (std::size_t w = 0; w < words; ++w) {
      candidates += static_cast<std::size_t>(std::popcount(candidate_word(w)));
    }
    if (candidates >= 128) {
      return pick_rarest_avx512(availability, words, candidate_word, rng);
    }
  }
#endif
  return pick_rarest_scalar(availability, words, candidate_word, rng);
}

}  // namespace

std::optional<PieceId> PiecePicker::pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                graph::Rng& rng) const {
  if (local.size() != remote.size() || local.size() != availability_.size()) {
    throw std::invalid_argument("PiecePicker::pick_rarest: size mismatch");
  }
  const std::span<const std::uint64_t> lw = local.words();
  const std::span<const std::uint64_t> rw = remote.words();
  return pick_rarest_masked(
      availability_, rw.size(), [&](std::size_t w) { return rw[w] & ~lw[w]; }, rng);
}

std::optional<PieceId> PiecePicker::pick_rarest(const Bitfield& local, const Bitfield& remote,
                                                const Bitfield& excluded, graph::Rng& rng) const {
  if (local.size() != remote.size() || local.size() != availability_.size() ||
      excluded.size() != local.size()) {
    throw std::invalid_argument("PiecePicker::pick_rarest: size mismatch");
  }
  const std::span<const std::uint64_t> lw = local.words();
  const std::span<const std::uint64_t> rw = remote.words();
  const std::span<const std::uint64_t> ew = excluded.words();
  return pick_rarest_masked(
      availability_, rw.size(), [&](std::size_t w) { return rw[w] & ~lw[w] & ~ew[w]; }, rng);
}

}  // namespace strat::bt
