#include "sim/parallel.hpp"

#include <algorithm>
#include <thread>

#include "sim/worker_pool.hpp"

namespace strat::sim {

namespace {
// Chunks per worker parallel_for_chunks() aims for when the range is
// wide enough: enough that on-demand claiming evens out per-index cost
// skew (the swarm's capacity-sorted rows put the heaviest senders
// first), few enough that per-chunk scratch and claims stay cheap.
constexpr std::size_t kChunksPerWorker = 8;
}  // namespace

std::size_t recommended_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  WorkerPool::shared().run(count, threads, body);
}

std::size_t chunk_count(std::size_t count, std::size_t threads,
                        std::size_t min_per_chunk) noexcept {
  if (count == 0 || threads <= 1) return count == 0 ? 0 : 1;
  const std::size_t by_grain =
      min_per_chunk == 0 ? count : std::max<std::size_t>(1, count / min_per_chunk);
  return std::min(kChunksPerWorker * threads, by_grain);
}

void parallel_for_chunks(
    std::size_t count, std::size_t threads, std::size_t min_per_chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = chunk_count(count, threads, min_per_chunk);
  if (chunks == 0) return;
  // Balanced contiguous split: the first `count % chunks` chunks get one
  // extra index.
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    body(begin, end, c);
  };
  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  // The caller plus up to threads - 1 pool workers claim chunks from the
  // pool's counter in ascending order until none are left.
  WorkerPool::shared().run(chunks, threads, run_chunk);
}

}  // namespace strat::sim
