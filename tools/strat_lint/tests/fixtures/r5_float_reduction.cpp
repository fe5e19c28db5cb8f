// Fixture: seeded R5 violations — floating-point accumulation into a
// shared captured variable from inside a parallel_for_chunks worker and
// a parallel_for task.
#include <cstddef>
#include <vector>

namespace fixture {

template <typename Body>
void parallel_for(std::size_t count, unsigned threads, Body body);

template <typename Body>
void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t min_per_chunk, Body body);

double schedule_dependent_sum(const std::vector<double>& xs, unsigned threads) {
  double total = 0.0;
  std::size_t touched = 0;
  parallel_for_chunks(xs.size(), threads, 64,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        double chunk_sum = 0.0;  // chunk-local: fine
                        for (std::size_t i = begin; i < end; ++i) {
                          chunk_sum += xs[i];
                        }
                        total += chunk_sum;  // VIOLATION: cross-chunk FP merge order
                        touched++;           // VIOLATION: shared counter, data race
                      });
  (void)touched;
  return total;
}

double racy_wall_total(const std::vector<double>& walls, unsigned threads) {
  double wall_total = 0.0;
  parallel_for(walls.size(), threads, [&](std::size_t i) {
    wall_total += walls[i];  // VIOLATION: shared accumulator in a parallel_for task
  });
  return wall_total;
}

}  // namespace fixture
