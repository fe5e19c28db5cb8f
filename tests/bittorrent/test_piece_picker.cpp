#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

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
  // 1029 pieces: a ragged tail word, so the kernel's masked loads and
  // the tail-lane handling are exercised too.
  const std::size_t n = 1029;
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
      ASSERT_EQ(picker.pick_rarest(local, remote, a), reference_pick(picker, local, remote, nullptr, b))
          << "density " << density << " iter " << i;
      ASSERT_EQ(picker.pick_rarest(local, remote, excluded, a),
                reference_pick(picker, local, remote, &excluded, b))
          << "density " << density << " iter " << i;
      // Same draw count: the streams must stay in lockstep.
      ASSERT_EQ(a(), b()) << "RNG divergence at density " << density << " iter " << i;
    }
  }
}

}  // namespace
}  // namespace strat::bt
