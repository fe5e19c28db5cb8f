// WorkerPool contract: persistent threads reused across run() calls,
// inline fallbacks for degenerate and nested jobs, exception capture
// with the pool still usable afterwards, and clean teardown (no thread
// leaks across construct/destroy cycles). The TSan CI job runs this
// binary, so the claim loop and job publication are exercised under a
// race detector, not just asserted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/worker_pool.hpp"

namespace strat::sim {
namespace {

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool;
  const std::size_t tasks = 311;
  std::vector<std::atomic<int>> hits(tasks);
  pool.run(tasks, 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < tasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(WorkerPool, ReusesThreadsAcrossRuns) {
  WorkerPool pool;
  EXPECT_EQ(pool.spawned(), 0u) << "construction must not spawn";
  pool.run(64, 4, [](std::size_t) {});
  const std::size_t after_first = pool.spawned();
  EXPECT_GE(after_first, 1u);
  EXPECT_LE(after_first, 3u) << "caller participates; at most max_workers - 1 pool threads";
  // Many further runs at the same width must not grow the pool — that
  // is the whole point of keeping it persistent.
  for (int round = 0; round < 50; ++round) {
    pool.run(64, 4, [](std::size_t) {});
    EXPECT_EQ(pool.spawned(), after_first) << "round " << round;
  }
  // A wider request may grow it, a narrower one never shrinks it.
  pool.run(64, 6, [](std::size_t) {});
  const std::size_t after_wide = pool.spawned();
  EXPECT_GE(after_wide, after_first);
  pool.run(64, 2, [](std::size_t) {});
  EXPECT_EQ(pool.spawned(), after_wide);
}

TEST(WorkerPool, DegenerateJobsRunInlineInOrder) {
  WorkerPool pool;
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  // tasks <= 1 and max_workers <= 1 both bypass the pool entirely: the
  // body runs on the calling thread and no workers are ever spawned.
  pool.run(0, 8, [&](std::size_t i) { order.push_back(i); });
  EXPECT_TRUE(order.empty());
  pool.run(1, 8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  pool.run(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.spawned(), 0u);
}

TEST(WorkerPool, NestedRunExecutesInline) {
  WorkerPool pool;
  std::atomic<int> inner_calls{0};
  std::atomic<int> mismatched_thread{0};
  pool.run(8, 4, [&](std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    // A run() issued from inside a pool task must not hand work to
    // other workers (deadlock/over-subscription risk); it degrades to
    // an inline loop on the same thread.
    pool.run(16, 4, [&](std::size_t) {
      ++inner_calls;
      if (std::this_thread::get_id() != outer) ++mismatched_thread;
    });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 16);
  EXPECT_EQ(mismatched_thread.load(), 0);
}

TEST(WorkerPool, NestedRunStaysInlineOnEveryThreadAcrossRepeats) {
  // The publishing caller drains its own job too, so it runs outer
  // tasks just like the workers. A nested run() from one of those tasks
  // must stay inline as well: publishing it would replace the outer
  // job, and idle workers would then run inner tasks on other threads.
  // That race hits only some repeats, so the pattern is repeated.
  WorkerPool pool;
  std::atomic<int> inner_calls{0};
  std::atomic<int> mismatched_thread{0};
  const int repeats = 300;
  for (int rep = 0; rep < repeats; ++rep) {
    pool.run(8, 4, [&](std::size_t) {
      const std::thread::id outer = std::this_thread::get_id();
      pool.run(16, 4, [&](std::size_t) {
        ++inner_calls;
        if (std::this_thread::get_id() != outer) ++mismatched_thread;
      });
    });
  }
  EXPECT_EQ(inner_calls.load(), repeats * 8 * 16);
  EXPECT_EQ(mismatched_thread.load(), 0);
  EXPECT_LE(pool.spawned(), 3u) << "nested runs must never grow the pool";
  // Outside any task the caller fans out again.
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.run(64, 4, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(WorkerPool, PropagatesFirstExceptionAndStaysUsable) {
  WorkerPool pool;
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.run(32, 4,
                        [&](std::size_t i) {
                          ++hits[i];
                          if (i % 2 == 0) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "remaining tasks must still run after a throw";
  }
  // The failed job must not wedge the workers: the next run completes.
  std::atomic<int> ok{0};
  pool.run(32, 4, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 32);
}

TEST(WorkerPool, TasksSpreadAcrossThreads) {
  WorkerPool pool;
  std::mutex mu;
  std::set<std::thread::id> seen;
  // Slow tasks so the atomic claim counter cannot be drained by one
  // thread before the others wake. 8 workers on any core count — the
  // pool intentionally over-subscribes so TSan sees real interleavings.
  pool.run(64, 8, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
  EXPECT_LE(seen.size(), 8u);
}

TEST(WorkerPool, ConstructDestroyCyclesDoNotLeakOrHang) {
  // Each pool joins its threads in the destructor; cycling many pools
  // through real multi-worker jobs must terminate promptly (a leaked
  // or wedged worker would hang the join and time the test out).
  for (int cycle = 0; cycle < 20; ++cycle) {
    WorkerPool pool;
    std::atomic<int> calls{0};
    pool.run(32, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 32);
    EXPECT_GE(pool.spawned(), 1u);
  }
}

TEST(WorkerPool, SharedPoolIsASingleton) {
  WorkerPool& a = WorkerPool::shared();
  WorkerPool& b = WorkerPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> calls{0};
  a.run(16, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 16);
}

}  // namespace
}  // namespace strat::sim
