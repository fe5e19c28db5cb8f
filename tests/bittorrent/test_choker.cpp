#include "bittorrent/choker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <new>
#include <set>
#include <vector>

// Counting global allocator for this binary: every non-aligned form of
// operator new bumps the counter (the nothrow form is the one
// std::stable_sort's temporary buffer takes), and every matching
// delete frees, so allocation counts are exact between two reads.
namespace {
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace strat::bt {
namespace {

std::vector<ChokeCandidate> make_candidates(
    std::initializer_list<std::tuple<core::PeerId, double, bool>> entries) {
  std::vector<ChokeCandidate> out;
  for (const auto& [peer, score, interested] : entries) {
    out.push_back({peer, score, interested});
  }
  return out;
}

TEST(Choker, SelectsTopScorersPlusOptimistic) {
  graph::Rng rng(1);
  TftChoker choker(2, 3);
  const auto unchoked = choker.select(
      make_candidates({{1, 10.0, true}, {2, 50.0, true}, {3, 30.0, true}, {4, 5.0, true}}),
      rng);
  // Two regular slots: peers 2 and 3; one optimistic from {1, 4}.
  ASSERT_EQ(unchoked.size(), 3u);
  EXPECT_NE(std::find(unchoked.begin(), unchoked.end(), 2u), unchoked.end());
  EXPECT_NE(std::find(unchoked.begin(), unchoked.end(), 3u), unchoked.end());
  EXPECT_TRUE(unchoked[2] == 1u || unchoked[2] == 4u);
  EXPECT_EQ(choker.optimistic(), unchoked[2]);
}

TEST(Choker, IgnoresUninterestedCandidates) {
  graph::Rng rng(2);
  TftChoker choker(2, 3);
  const auto unchoked = choker.select(
      make_candidates({{1, 100.0, false}, {2, 1.0, true}, {3, 2.0, true}}), rng);
  EXPECT_EQ(unchoked.size(), 2u);
  EXPECT_EQ(std::find(unchoked.begin(), unchoked.end(), 1u), unchoked.end());
}

TEST(Choker, FewerCandidatesThanSlots) {
  graph::Rng rng(3);
  TftChoker choker(3, 3);
  const auto unchoked = choker.select(make_candidates({{7, 1.0, true}}), rng);
  EXPECT_EQ(unchoked.size(), 1u);
  EXPECT_EQ(unchoked[0], 7u);
  EXPECT_EQ(choker.optimistic(), core::kNoPeer);
}

TEST(Choker, EmptyCandidates) {
  graph::Rng rng(4);
  TftChoker choker(3, 3);
  EXPECT_TRUE(choker.select({}, rng).empty());
}

TEST(Choker, OptimisticPersistsAcrossRounds) {
  graph::Rng rng(5);
  TftChoker choker(1, 3);
  const auto candidates =
      make_candidates({{1, 10.0, true}, {2, 0.0, true}, {3, 0.0, true}, {4, 0.0, true}});
  const auto first = choker.select(candidates, rng);
  const core::PeerId target = choker.optimistic();
  ASSERT_NE(target, core::kNoPeer);
  // Round 2 (rotation period 3 not yet reached): same optimistic target.
  (void)choker.select(candidates, rng);
  EXPECT_EQ(choker.optimistic(), target);
}

TEST(Choker, OptimisticEventuallyRotates) {
  graph::Rng rng(6);
  TftChoker choker(1, 2);
  const auto candidates = make_candidates(
      {{1, 10.0, true}, {2, 0.0, true}, {3, 0.0, true}, {4, 0.0, true}, {5, 0.0, true}});
  std::set<core::PeerId> seen;
  for (int round = 0; round < 40; ++round) {
    (void)choker.select(candidates, rng);
    if (choker.optimistic() != core::kNoPeer) seen.insert(choker.optimistic());
  }
  // Rotation explores multiple targets over 40 rounds.
  EXPECT_GE(seen.size(), 3u);
}

TEST(Choker, OptimisticRefreshedWhenPromoted) {
  graph::Rng rng(7);
  TftChoker choker(1, 100);  // long rotation: only promotion forces refresh
  auto candidates = make_candidates({{1, 10.0, true}, {2, 0.0, true}, {3, 0.0, true}});
  (void)choker.select(candidates, rng);
  const core::PeerId target = choker.optimistic();
  ASSERT_NE(target, core::kNoPeer);
  // The optimistic target starts reciprocating heavily -> becomes a
  // regular unchoke; the optimistic slot must move elsewhere.
  for (auto& c : candidates) {
    if (c.peer == target) c.score = 100.0;
  }
  const auto unchoked = choker.select(candidates, rng);
  EXPECT_EQ(unchoked.front(), target);            // regular slot now
  EXPECT_NE(choker.optimistic(), target);         // refreshed
}

TEST(Choker, ScoreTiesBrokenRandomly) {
  // With all scores zero and 1 regular slot, repeated fresh chokers
  // should not always pick the same peer.
  std::set<core::PeerId> picks;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    graph::Rng rng(seed);
    TftChoker choker(1, 3);
    const auto unchoked =
        choker.select(make_candidates({{1, 0.0, true}, {2, 0.0, true}, {3, 0.0, true}}), rng);
    ASSERT_GE(unchoked.size(), 1u);
    picks.insert(unchoked[0]);
  }
  EXPECT_GE(picks.size(), 2u);
}

TEST(Choker, NeverUnchokesMoreThanSlotsPlusOne) {
  graph::Rng rng(8);
  TftChoker choker(3, 3);
  std::vector<ChokeCandidate> many;
  for (core::PeerId p = 0; p < 20; ++p) many.push_back({p, static_cast<double>(p), true});
  const auto unchoked = choker.select(many, rng);
  EXPECT_LE(unchoked.size(), 4u);
  // No duplicates.
  const std::set<core::PeerId> unique(unchoked.begin(), unchoked.end());
  EXPECT_EQ(unique.size(), unchoked.size());
}

// TftChoker::select_into as it was with std::stable_sort, kept here as
// the oracle for the in-place sort: same state, same steps, same draws.
class StableSortChoker {
 public:
  StableSortChoker(std::size_t tft_slots, std::size_t optimistic_rounds)
      : tft_slots_(tft_slots), optimistic_rounds_(std::max<std::size_t>(1, optimistic_rounds)) {}

  void select_into(std::vector<ChokeCandidate>& candidates, graph::Rng& rng,
                   std::vector<core::PeerId>& out) {
    candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                    [](const ChokeCandidate& c) { return !c.interested; }),
                     candidates.end());
    rng.shuffle(candidates);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ChokeCandidate& a, const ChokeCandidate& b) {
                       return a.score > b.score;
                     });
    out.clear();
    const std::size_t regular = std::min(tft_slots_, candidates.size());
    for (std::size_t i = 0; i < regular; ++i) out.push_back(candidates[i].peer);
    const bool target_taken = std::find(out.begin(), out.end(), optimistic_) != out.end();
    const bool target_alive =
        std::any_of(candidates.begin() + static_cast<long>(regular), candidates.end(),
                    [&](const ChokeCandidate& c) { return c.peer == optimistic_; });
    ++rounds_since_rotation_;
    if (rounds_since_rotation_ >= optimistic_rounds_ || target_taken || !target_alive) {
      optimistic_ = core::kNoPeer;
      const std::size_t pool = candidates.size() - regular;
      if (pool > 0) {
        const std::size_t pick = regular + static_cast<std::size_t>(rng.below(pool));
        optimistic_ = candidates[pick].peer;
      }
      rounds_since_rotation_ = 0;
    }
    if (optimistic_ != core::kNoPeer) out.push_back(optimistic_);
  }

  [[nodiscard]] core::PeerId optimistic() const noexcept { return optimistic_; }

 private:
  std::size_t tft_slots_;
  std::size_t optimistic_rounds_;
  std::size_t rounds_since_rotation_ = 0;
  core::PeerId optimistic_ = core::kNoPeer;
};

bool same_state(const graph::Rng& a, const graph::Rng& b) {
  const graph::Rng::State sa = a.state();
  const graph::Rng::State sb = b.state();
  return std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s)) &&
         sa.has_cached_normal == sb.has_cached_normal;
}

TEST(Choker, SelectIntoMatchesStableSortReference) {
  // Multi-round sequences on one choker over a fixed peer pool, so the
  // optimistic target survives, gets promoted or vanishes across calls.
  // Tied scores (drawn from {0, 1, 2}) exercise the stability the
  // shuffle relies on; continuous scores exercise the plain ordering.
  graph::Rng gen(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto slots = static_cast<std::size_t>(gen.below(5));
    const auto rotation = static_cast<std::size_t>(1 + gen.below(3));
    const bool tied = trial % 2 == 0;
    TftChoker choker(slots, rotation);
    StableSortChoker reference(slots, rotation);
    graph::Rng rng(static_cast<std::uint64_t>(trial) + 1);
    graph::Rng ref_rng = rng;
    std::vector<ChokeCandidate> candidates;
    std::vector<ChokeCandidate> ref_candidates;
    std::vector<core::PeerId> out;
    std::vector<core::PeerId> ref_out;
    for (int round = 0; round < 12; ++round) {
      candidates.clear();
      for (core::PeerId p = 0; p < 40; ++p) {
        if (!gen.bernoulli(0.7)) continue;
        const double score = tied ? static_cast<double>(gen.below(3)) : gen.uniform(0.0, 100.0);
        candidates.push_back({p, score, gen.bernoulli(0.8)});
      }
      ref_candidates = candidates;
      choker.select_into(candidates, rng, out);
      reference.select_into(ref_candidates, ref_rng, ref_out);
      ASSERT_EQ(out, ref_out) << "trial " << trial << " round " << round;
      ASSERT_EQ(choker.optimistic(), reference.optimistic()) << "trial " << trial;
      ASSERT_TRUE(same_state(rng, ref_rng)) << "trial " << trial << " round " << round;
    }
  }
}

TEST(Choker, SelectIntoAllocatesNothingOnceWarm) {
  TftChoker choker(3, 2);
  graph::Rng rng(9);
  std::vector<ChokeCandidate> neighbourhood;
  for (core::PeerId p = 0; p < 30; ++p) {
    neighbourhood.push_back({p, static_cast<double>(p % 4), p % 5 != 0});
  }
  std::vector<ChokeCandidate> candidates = neighbourhood;
  std::vector<core::PeerId> out;
  choker.select_into(candidates, rng, out);  // warm-up: out takes its capacity
  const std::size_t before = g_allocations;
  for (int round = 0; round < 50; ++round) {
    candidates.assign(neighbourhood.begin(), neighbourhood.end());
    choker.select_into(candidates, rng, out);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(out.size(), 4u);  // 3 regular slots + the optimistic one
}

}  // namespace
}  // namespace strat::bt
