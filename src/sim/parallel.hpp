// Minimal parallel loops over a persistent worker pool.
//
// Scenario grids, Monte-Carlo realizations and a tracker's member-swarm
// rounds are embarrassingly parallel: every index gets its own Rng
// seeded independently, and results are written to per-index slots. parallel_for() distributes
// indices over up to `threads` workers of the process-wide
// sim::WorkerPool via an atomic counter, so the *schedule* is
// nondeterministic but the per-index results are not: running with 1
// thread or N threads produces identical output.
//
// parallel_for_chunks() is the intra-round variant: it splits a dense
// index range into up to 8 x `threads` contiguous chunks (each at
// least `min_per_chunk` wide, so tiny ranges run inline instead of
// paying a pool wakeup), and at most `threads` workers claim them on
// demand, each getting a [begin, end) range plus a stable chunk id it
// can key per-chunk scratch buffers by. Several chunks per worker let
// a skewed range balance itself: a worker that drew cheap rows just
// claims more of them. Chunk ids ascend with the range, so per-chunk
// buffers concatenated in chunk order are in index order no matter
// which worker filled them. The swarm round phases fan over this;
// their per-index work is either pure (fold_rates), draws from
// per-peer counter-based RNG streams (choke_step), or writes only
// row-owned slots or per-chunk plan buffers (mutual recording,
// transfer compute), so results stay bitwise identical at any thread
// count.
//
// Both loops share WorkerPool::shared() (see worker_pool.hpp): threads
// are spawned once, on demand, and reused across every phase of every
// round instead of being spawned per call. Nested calls (a parallel
// loop issued from inside a pool task) degrade to inline execution.
#pragma once

#include <cstddef>
#include <functional>

namespace strat::sim {

/// Worker count to use by default: std::thread::hardware_concurrency(),
/// with a floor of 1 when the runtime reports 0.
[[nodiscard]] std::size_t recommended_threads() noexcept;

/// Invokes body(i) for every i in [0, count), distributed over up to
/// `threads` worker threads (capped at `count`; <= 1 runs inline, in
/// order). body must be safe to call concurrently for distinct indices.
/// The first exception thrown by any invocation is rethrown on the
/// calling thread after all workers join.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Number of contiguous chunks parallel_for_chunks() will use for the
/// same arguments: min(8 * threads, count / min_per_chunk), floored at
/// 1; exactly 1 when threads <= 1 and 0 for an empty range. Callers
/// size per-chunk scratch with this, and a caller that wants one chunk
/// per worker passes a min_per_chunk of ceil(count / threads).
[[nodiscard]] std::size_t chunk_count(std::size_t count, std::size_t threads,
                                      std::size_t min_per_chunk) noexcept;

/// Invokes body(begin, end, chunk) over a partition of [0, count) into
/// chunk_count(...) contiguous ranges: chunk c + 1 starts where chunk c
/// ends, and chunk ids are dense in [0, chunk_count), ascending with
/// the range. At most `threads` workers (the caller included) claim
/// chunks on demand; each chunk is claimed by exactly one of them, so
/// body may use `chunk` to index scratch without synchronization. Once
/// the pool is warm a call spawns no threads. body must be safe to call
/// concurrently for distinct chunks; the first exception is rethrown on
/// the caller after the job completes.
void parallel_for_chunks(
    std::size_t count, std::size_t threads, std::size_t min_per_chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace strat::sim
