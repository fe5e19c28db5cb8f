#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace strat::bt {
namespace {

TEST(Bitfield, StartsEmpty) {
  const Bitfield b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.complete());
  EXPECT_FALSE(b.test(0));
  EXPECT_FALSE(b.test(99));
}

TEST(Bitfield, SetResetCount) {
  Bitfield b(70);
  b.set(0);
  b.set(63);
  b.set(64);  // crosses the word boundary
  b.set(69);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.set(64);  // idempotent
  EXPECT_EQ(b.count(), 4u);
  b.reset(64);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_FALSE(b.test(64));
  b.reset(64);  // idempotent
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitfield, CompleteDetection) {
  Bitfield b(3);
  b.set(0);
  b.set(1);
  EXPECT_FALSE(b.complete());
  b.set(2);
  EXPECT_TRUE(b.complete());
}

TEST(Bitfield, BoundsChecking) {
  Bitfield b(8);
  EXPECT_THROW((void)b.test(8), std::out_of_range);
  EXPECT_THROW(b.set(8), std::out_of_range);
  EXPECT_THROW(b.reset(100), std::out_of_range);
}

TEST(Bitfield, InterestedInSemantics) {
  Bitfield local(10);
  Bitfield remote(10);
  EXPECT_FALSE(local.interested_in(remote));  // remote has nothing
  remote.set(4);
  EXPECT_TRUE(local.interested_in(remote));
  local.set(4);
  EXPECT_FALSE(local.interested_in(remote));  // already have it
  remote.set(9);
  EXPECT_TRUE(local.interested_in(remote));
}

TEST(Bitfield, InterestedInSizeMismatchThrows) {
  const Bitfield a(4);
  const Bitfield b(5);
  EXPECT_THROW((void)a.interested_in(b), std::invalid_argument);
}

TEST(PiecePicker, AvailabilityBookkeeping) {
  PiecePicker picker(5);
  EXPECT_EQ(picker.availability(3), 0u);
  picker.add_availability(3);
  picker.add_availability(3);
  EXPECT_EQ(picker.availability(3), 2u);
  EXPECT_THROW((void)picker.add_availability(5), std::out_of_range);
}

TEST(PiecePicker, PicksRarestUsefulPiece) {
  graph::Rng rng(1);
  PiecePicker picker(4);
  // Piece availabilities: 0 -> 3 copies, 1 -> 1 copy, 2 -> 2, 3 -> 5.
  for (int i = 0; i < 3; ++i) picker.add_availability(0);
  picker.add_availability(1);
  for (int i = 0; i < 2; ++i) picker.add_availability(2);
  for (int i = 0; i < 5; ++i) picker.add_availability(3);
  Bitfield local(4);
  Bitfield remote(4);
  remote.set(0);
  remote.set(1);
  remote.set(3);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);  // rarest among {0, 1, 3}
}

TEST(PiecePicker, SkipsPiecesAlreadyHeld) {
  graph::Rng rng(2);
  PiecePicker picker(3);
  picker.add_availability(0);
  for (int i = 0; i < 4; ++i) picker.add_availability(1);
  Bitfield local(3);
  local.set(0);  // the rarest piece is already held
  Bitfield remote(3);
  remote.set(0);
  remote.set(1);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(PiecePicker, NothingUsefulReturnsNullopt) {
  graph::Rng rng(3);
  PiecePicker picker(3);
  Bitfield local(3);
  local.set(0);
  local.set(1);
  local.set(2);
  Bitfield remote(3);
  remote.set(1);
  EXPECT_FALSE(picker.pick_rarest(local, remote, rng).has_value());
  const Bitfield empty_remote(3);
  const Bitfield empty_local(3);
  EXPECT_FALSE(picker.pick_rarest(empty_local, empty_remote, rng).has_value());
}

TEST(PiecePicker, TieBreakingIsUniformish) {
  PiecePicker picker(3);  // all availabilities zero: 3-way tie
  Bitfield local(3);
  Bitfield remote(3);
  remote.set(0);
  remote.set(1);
  remote.set(2);
  graph::Rng rng(4);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) {
    const auto pick = picker.pick_rarest(local, remote, rng);
    ASSERT_TRUE(pick.has_value());
    ++counts[*pick];
  }
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / 3000.0, 1.0 / 3.0, 0.05);
}

TEST(PiecePicker, RemoveAvailabilityUndoesAddAndGuardsZero) {
  PiecePicker picker(4);
  picker.add_availability(2);
  picker.add_availability(2);
  picker.remove_availability(2);
  EXPECT_EQ(picker.availability(2), 1u);
  picker.remove_availability(2);
  EXPECT_EQ(picker.availability(2), 0u);
  EXPECT_THROW(picker.remove_availability(2), std::logic_error);
  EXPECT_THROW(picker.remove_availability(9), std::out_of_range);
  // A removed holder changes rarest-first decisions: piece 3 becomes
  // strictly rarer than piece 1 once its extra copy is gone.
  picker.add_availability(1);
  picker.add_availability(3);
  picker.add_availability(3);
  picker.remove_availability(3);
  picker.remove_availability(3);
  Bitfield local(4);
  Bitfield remote(4);
  remote.set(1);
  remote.set(3);
  graph::Rng rng(5);
  const auto pick = picker.pick_rarest(local, remote, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3u);
}

// Independent scalar reimplementation of the pick contract: minimum
// availability among candidates, ties counted in piece order, one
// rng.below(ties) draw (none for a single tie), k-th tie in piece
// order. pick_rarest dispatches to a vector kernel on machines that
// have it; this pins the kernel to the exact scalar semantics — same
// pick AND same RNG consumption — on whatever path this machine runs.
std::optional<PieceId> reference_pick(const PiecePicker& picker, const Bitfield& local,
                                      const Bitfield& remote, const Bitfield* excluded,
                                      graph::Rng& rng) {
  std::uint32_t best = 0;
  std::uint64_t ties = 0;
  for (PieceId t = 0; t < local.size(); ++t) {
    if (local.test(t) || !remote.test(t) || (excluded != nullptr && excluded->test(t))) continue;
    const std::uint32_t avail = picker.availability(t);
    if (ties == 0 || avail < best) {
      best = avail;
      ties = 1;
    } else if (avail == best) {
      ++ties;
    }
  }
  if (ties == 0) return std::nullopt;
  std::uint64_t k = ties == 1 ? 0 : rng.below(ties);
  for (PieceId t = 0; t < local.size(); ++t) {
    if (local.test(t) || !remote.test(t) || (excluded != nullptr && excluded->test(t))) continue;
    if (picker.availability(t) != best) continue;
    if (k == 0) return t;
    --k;
  }
  return std::nullopt;
}

TEST(Bitfield, RandomMatchesThePerPieceBernoulliLoop) {
  // The fill every constructor and arrival path used to spell out:
  // one draw per piece, in piece order, set on success. The word-built
  // bitfield must equal it bit for bit and leave the RNG in lockstep.
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 1000u, 1024u}) {
    for (const double p : {0.0, 0.3, 0.5, 1.0}) {
      graph::Rng a(7 + bits);
      graph::Rng b(7 + bits);
      const Bitfield got = Bitfield::random(bits, p, a);
      Bitfield want(bits);
      for (PieceId i = 0; i < bits; ++i) {
        if (b.bernoulli(p)) want.set(i);
      }
      ASSERT_EQ(got.size(), bits);
      EXPECT_EQ(got.count(), want.count()) << bits << " bits, p " << p;
      EXPECT_TRUE(std::ranges::equal(got.words(), want.words())) << bits << " bits, p " << p;
      const graph::Rng::State sa = a.state();
      const graph::Rng::State sb = b.state();
      EXPECT_TRUE(std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s)))
          << "RNG divergence at " << bits << " bits, p " << p;
    }
  }
}

TEST(PiecePicker, PickMatchesScalarContractAtEveryDensity) {
  // Ragged tail words (1, 65, 1029 pieces) exercise the masked loads at
  // the end of the availability array; 8192 pieces is 128 words, past
  // the kernel's 64 stack-held tie masks. The span entry points are
  // called directly, as the swarm calls them.
  for (const std::size_t n : {1u, 64u, 65u, 256u, 1024u, 1029u, 8192u}) {
    PiecePicker picker(n);
    graph::Rng setup(2024);
    for (PieceId t = 0; t < n; ++t) {
      // Clustered availability (many ties) to stress tie counting.
      const auto copies = 1 + static_cast<std::uint32_t>(setup.below(7));
      for (std::uint32_t c = 0; c < copies; ++c) picker.add_availability(t);
    }
    for (const double density : {0.01, 0.1, 0.4, 0.8, 0.99}) {
      Bitfield local(n);
      Bitfield remote(n);
      Bitfield excluded(n);
      for (PieceId t = 0; t < n; ++t) {
        if (setup.bernoulli(0.4)) local.set(t);
        if (setup.bernoulli(density)) remote.set(t);
        if (setup.bernoulli(0.1)) excluded.set(t);
      }
      graph::Rng a(99);
      graph::Rng b(99);
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(picker.pick_rarest(local.words(), remote.words(), a),
                  reference_pick(picker, local, remote, nullptr, b))
            << n << " pieces, density " << density << " iter " << i;
        ASSERT_EQ(picker.pick_rarest(local.words(), remote.words(), excluded.words(), a),
                  reference_pick(picker, local, remote, &excluded, b))
            << n << " pieces, density " << density << " iter " << i;
        // Same draw count: the streams must stay in lockstep.
        ASSERT_EQ(a(), b()) << "RNG divergence at " << n << " pieces, density " << density
                            << " iter " << i;
      }
    }
  }
}

TEST(PiecePicker, AllTiesPickUniformlyInPieceOrder) {
  // Every availability equal: every candidate is a tie, so the pick is
  // the k-th candidate for the one draw, across word boundaries.
  for (const std::size_t n : {65u, 1029u, 8192u}) {
    PiecePicker picker(n);
    for (PieceId t = 0; t < n; ++t) picker.add_availability(t);
    graph::Rng setup(7 + n);
    const Bitfield local = Bitfield::random(n, 0.3, setup);
    const Bitfield remote = Bitfield::random(n, 0.6, setup);
    graph::Rng a(5);
    graph::Rng b(5);
    std::set<PieceId> seen;
    for (int i = 0; i < 300; ++i) {
      const auto got = picker.pick_rarest(local.words(), remote.words(), a);
      ASSERT_EQ(got, reference_pick(picker, local, remote, nullptr, b)) << n << " iter " << i;
      ASSERT_EQ(a(), b()) << "RNG divergence at " << n << " iter " << i;
      seen.insert(*got);
    }
    std::size_t candidates = 0;
    for (PieceId t = 0; t < n; ++t) candidates += remote.test(t) && !local.test(t);
    EXPECT_GT(seen.size(), std::min<std::size_t>(candidates, 300) / 2)
        << n << " pieces: the draw must spread over the ties";
  }
}

TEST(PiecePicker, TieAtTheLastBitOfTheLastWord) {
  // Piece 127 is bit 63 of word 1: the top lane of the last mask
  // register, and the highest bit the select step can land on.
  const std::size_t n = 128;
  PiecePicker picker(n);
  for (PieceId t = 0; t < n; ++t) {
    for (int c = 0; c < 3; ++c) picker.add_availability(t);
  }
  picker.remove_availability(127);
  const Bitfield local(n);
  Bitfield remote(n);
  for (PieceId t = 0; t < n; t += 3) remote.set(t);
  remote.set(127);
  graph::Rng rng(11);
  EXPECT_EQ(picker.pick_rarest(local.words(), remote.words(), rng), PieceId{127})
      << "the unique minimum";
  // A second tie at piece 0: the draw chooses between the first and the
  // last bit of the candidate set.
  picker.remove_availability(0);
  graph::Rng a(12);
  graph::Rng b(12);
  std::set<PieceId> seen;
  for (int i = 0; i < 64; ++i) {
    const auto got = picker.pick_rarest(local.words(), remote.words(), a);
    ASSERT_EQ(got, reference_pick(picker, local, remote, nullptr, b)) << "iter " << i;
    seen.insert(*got);
  }
  EXPECT_EQ(seen, (std::set<PieceId>{0, 127}));
}

TEST(PiecePicker, SpanEntryPointsRejectWrongWidthsAndStrayTailBits) {
  PiecePicker picker(70);  // two words, six valid bits in the second
  graph::Rng rng(1);
  const std::vector<std::uint64_t> one(1, 0);
  const std::vector<std::uint64_t> two(2, 0);
  std::vector<std::uint64_t> stray(2, 0);
  stray[1] = std::uint64_t{1} << 6;  // piece 70: beyond num_pieces
  EXPECT_THROW((void)picker.pick_rarest(one, two, rng), std::invalid_argument);
  EXPECT_THROW((void)picker.pick_rarest(two, two, one, rng), std::invalid_argument);
  EXPECT_THROW((void)picker.pick_rarest(two, stray, rng), std::invalid_argument);
  EXPECT_THROW(picker.add_bitfield(stray), std::invalid_argument);
  EXPECT_THROW(picker.add_bitfield(Bitfield(69)), std::invalid_argument);
  // A stray bit in a span that only removes candidates is harmless.
  EXPECT_FALSE(picker.pick_rarest(stray, two, rng).has_value());
}

/// BitRows against one Bitfield per row, after every operation.
void expect_rows_match(const BitRows& rows, const std::vector<Bitfield>& want,
                       const std::string& where) {
  ASSERT_EQ(rows.rows(), want.size()) << where;
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_TRUE(std::ranges::equal(rows.row(r), want[r].words())) << where << " row " << r;
    EXPECT_EQ(rows.count(r), want[r].count()) << where << " row " << r;
    EXPECT_EQ(rows.complete(r), want[r].complete()) << where << " row " << r;
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(rows.interested(r, s), want[r].interested_in(want[s]))
          << where << " rows " << r << ", " << s;
    }
  }
}

TEST(BitRows, MatchesOneBitfieldPerRow) {
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 1024u, 1029u}) {
    const std::string where = std::to_string(bits) + " bits";
    graph::Rng rng(31 + bits);
    BitRows rows(bits);
    EXPECT_EQ(rows.width(), (bits + 63) / 64);
    std::vector<Bitfield> want;
    for (const double p : {0.0, 0.2, 0.5, 0.9, 1.0, 0.5, 0.7}) {
      want.push_back(Bitfield::random(bits, p, rng));
      rows.push_back(want.back());
    }
    expect_rows_match(rows, want, where + ", pushed");
    for (int i = 0; i < 200; ++i) {
      const auto r = static_cast<std::size_t>(rng.below(want.size()));
      const auto piece = static_cast<PieceId>(rng.below(bits));
      EXPECT_EQ(rows.test(r, piece), want[r].test(piece)) << where;
      rows.set(r, piece);
      want[r].set(piece);
    }
    expect_rows_match(rows, want, where + ", set");
    // Compaction as PeerTable does it: the last row moves into the hole.
    for (const std::size_t r : {2u, 4u, 0u}) {
      rows.compact(r);
      if (r + 1 != want.size()) want[r] = want.back();
      want.pop_back();
      expect_rows_match(rows, want, where + ", compacted row " + std::to_string(r));
    }
    rows.compact(want.size() - 1);  // the last row itself: a plain pop
    want.pop_back();
    expect_rows_match(rows, want, where + ", popped");
    // The checkpoint path: the arena round-trips, counts recomputed.
    const BitRows copy =
        BitRows::from_words(bits, std::vector<std::uint64_t>(rows.words().begin(), rows.words().end()));
    expect_rows_match(copy, want, where + ", from_words");
  }
  EXPECT_THROW(BitRows(8).push_back(Bitfield(9)), std::invalid_argument);
}

TEST(BitRows, FromWordsRejectsRaggedArenasAndStrayTailBits) {
  EXPECT_THROW((void)BitRows::from_words(65, std::vector<std::uint64_t>(3, 0)),
               std::invalid_argument);
  std::vector<std::uint64_t> words(4, 0);
  words[3] = std::uint64_t{1} << 1;  // row 1, piece 65 of 65
  EXPECT_THROW((void)BitRows::from_words(65, words), std::invalid_argument);
  words[3] = 1;  // piece 64: in range
  const BitRows ok = BitRows::from_words(65, words);
  EXPECT_EQ(ok.rows(), 2u);
  EXPECT_EQ(ok.count(1), 1u);
  EXPECT_TRUE(ok.test(1, 64));
}

TEST(PiecePicker, AddRowsMatchesPerRowAddBitfield) {
  // Row counts straddle the vector kernel's 255-row byte-counter flush;
  // full rows drive every counter of a block to exactly 255. Widths
  // cover ragged last words and the 8-column register tiles. Both
  // pickers start from the same nonzero counts: add_rows adds.
  bool vector_ran = false;
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 1024u, 1029u}) {
    for (const std::size_t rows : {0u, 1u, 254u, 255u, 256u, 511u, 1000u}) {
      for (const double p : {1.0, 0.4}) {
        const std::string where =
            std::to_string(bits) + " bits, " + std::to_string(rows) + " rows, p " + std::to_string(p);
        graph::Rng rng(17 + bits * 7 + rows);
        const Bitfield base = Bitfield::random(bits, 0.5, rng);
        BitRows arena(bits);
        arena.reserve(rows);
        for (std::size_t r = 0; r < rows; ++r) arena.push_back(Bitfield::random(bits, p, rng));
        PiecePicker want(bits);
        PiecePicker got(bits);
        want.add_bitfield(base);
        got.add_bitfield(base);
        for (std::size_t r = 0; r < rows; ++r) want.add_bitfield(arena.row(r));
        got.add_rows(arena.words(), rows);
        std::vector<std::uint32_t> counts(bits);
        for (PieceId t = 0; t < bits; ++t) {
          ASSERT_EQ(got.availability(t), want.availability(t)) << where << " piece " << t;
          counts[t] = static_cast<std::uint32_t>(base.test(t));
        }
        // The AVX-512BW kernel on its own, where this machine runs it.
        if (detail::add_rows_vector(counts, arena.words(), rows, arena.width())) {
          vector_ran = true;
          for (PieceId t = 0; t < bits; ++t) {
            ASSERT_EQ(counts[t], want.availability(t)) << where << " piece " << t << " (vector)";
          }
        }
      }
    }
  }
  if (!vector_ran) GTEST_LOG_(INFO) << "no AVX-512BW here: only the scalar loop was checked";
}

TEST(PiecePicker, AddRowsRejectsBadArenasBeforeCounting) {
  PiecePicker picker(70);  // two words, six valid bits in the second
  std::vector<std::uint64_t> words(6, ~std::uint64_t{0} >> 58);  // three rows
  EXPECT_THROW(picker.add_rows(words, 2), std::invalid_argument);
  EXPECT_THROW(picker.add_rows(std::span<const std::uint64_t>(words).first(5), 2),
               std::invalid_argument);
  words[5] = std::uint64_t{1} << 6;  // row 2, piece 70: beyond num_pieces
  EXPECT_THROW(picker.add_rows(words, 3), std::invalid_argument);
  for (PieceId t = 0; t < 70; ++t) {
    ASSERT_EQ(picker.availability(t), 0u) << "a rejected arena counted piece " << t;
  }
  words[5] = 1;
  picker.add_rows(words, 3);
  EXPECT_EQ(picker.availability(0), 3u);
  EXPECT_EQ(picker.availability(5), 3u);
  EXPECT_EQ(picker.availability(6), 0u);
  EXPECT_EQ(picker.availability(64), 3u);
  EXPECT_EQ(picker.availability(69), 2u);
}

}  // namespace
}  // namespace strat::bt
