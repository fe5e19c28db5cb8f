// parallel_for contract: every index exactly once, any thread count,
// exceptions surfaced on the caller. parallel_for_chunks contract: a
// contiguous partition whose chunk ids ascend with the range, claimed
// by at most `threads` workers however many chunks there are.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"

namespace strat::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    const std::size_t count = 257;
    std::vector<std::atomic<int>> hits(count);
    parallel_for(count, threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, HandlesDegenerateSizes) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(1, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesExceptions) {
  const auto boom = [](std::size_t i) {
    if (i == 3) throw std::runtime_error("boom");
  };
  EXPECT_THROW(parallel_for(8, 4, boom), std::runtime_error);
  EXPECT_THROW(parallel_for(8, 1, boom), std::runtime_error);
}

TEST(ParallelFor, RecommendedThreadsIsPositive) {
  EXPECT_GE(recommended_threads(), 1u);
}

TEST(ParallelForChunks, PartitionCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for_chunks(count, threads, 8,
                          [&](std::size_t begin, std::size_t end, std::size_t) {
                            for (std::size_t i = begin; i < end; ++i) ++hits[i];
                          });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " count " << count << " threads " << threads;
      }
    }
  }
}

TEST(ParallelForChunks, ChunkIdsAreDenseAndClaimedOnce) {
  const std::size_t count = 100;
  const std::size_t threads = 4;
  const std::size_t chunks = chunk_count(count, threads, 8);
  ASSERT_GE(chunks, 2u);
  std::vector<std::atomic<int>> claims(chunks);
  parallel_for_chunks(count, threads, 8,
                      [&](std::size_t, std::size_t, std::size_t chunk) {
                        ASSERT_LT(chunk, chunks);
                        ++claims[chunk];
                      });
  for (std::size_t c = 0; c < chunks; ++c) EXPECT_EQ(claims[c].load(), 1) << "chunk " << c;
}

TEST(ParallelForChunks, GrainKeepsSmallRangesInline) {
  // Below one grain the whole range must run as a single inline chunk
  // (no thread spawn) — the per-round overhead guard for tiny swarms.
  EXPECT_EQ(chunk_count(63, 8, 64), 1u);
  EXPECT_EQ(chunk_count(0, 8, 64), 0u);
  EXPECT_EQ(chunk_count(1000, 1, 64), 1u);
  // One chunk per grain's worth of work, capped at 8 chunks per
  // thread.
  EXPECT_EQ(chunk_count(128, 8, 64), 2u);
  EXPECT_EQ(chunk_count(100000, 8, 64), 64u);
  std::vector<std::size_t> order;
  parallel_for_chunks(10, 8, 64, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    EXPECT_EQ(chunk, 0u);
    for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelForChunks, ChunksAreContiguousAndAscendWithTheRange) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t count : {std::size_t{64}, std::size_t{1000}, std::size_t{10007}}) {
      const std::size_t chunks = chunk_count(count, threads, 8);
      std::vector<std::pair<std::size_t, std::size_t>> range(chunks);
      parallel_for_chunks(count, threads, 8,
                          [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                            range[chunk] = {begin, end};
                          });
      ASSERT_FALSE(range.empty());
      EXPECT_EQ(range.front().first, 0u);
      EXPECT_EQ(range.back().second, count);
      for (std::size_t c = 0; c < chunks; ++c) {
        EXPECT_LT(range[c].first, range[c].second) << "chunk " << c << " is empty";
        if (c + 1 < chunks) {
          EXPECT_EQ(range[c + 1].first, range[c].second)
              << "chunk " << c + 1 << " count " << count << " threads " << threads;
        }
      }
    }
  }
}

TEST(ParallelForChunks, AtMostThreadsWorkersClaimTheChunks) {
  // Warm the shared pool well past the fan-out under test, so a cap
  // that let one worker in per chunk would have idle threads to admit.
  parallel_for_chunks(1000, 8, 8, [](std::size_t, std::size_t, std::size_t) {});
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}}) {
    const std::size_t count = 10000;
    const std::size_t chunks = chunk_count(count, threads, 64);
    ASSERT_GT(chunks, threads);
    std::vector<std::thread::id> ran_on(chunks);
    parallel_for_chunks(count, threads, 64,
                        [&](std::size_t, std::size_t, std::size_t chunk) {
                          ran_on[chunk] = std::this_thread::get_id();
                          // Long enough that every admitted worker gets a claim in.
                          std::this_thread::sleep_for(std::chrono::microseconds(200));
                        });
    EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), std::thread::id{}), 0)
        << "a chunk never ran";
    std::sort(ran_on.begin(), ran_on.end());
    const auto distinct =
        static_cast<std::size_t>(std::unique(ran_on.begin(), ran_on.end()) - ran_on.begin());
    EXPECT_LE(distinct, threads) << chunks << " chunks";
  }
}

}  // namespace
}  // namespace strat::sim
