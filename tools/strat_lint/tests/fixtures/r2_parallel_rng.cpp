// Fixture: seeded R2 violations — shared sequential RNG touched from a
// parallel_for_chunks worker, directly and via a callee, and from a
// parallel_for worker.
#include <cstddef>
#include <vector>

namespace fixture {

struct Rng {
  double uniform();
};

template <typename Body>
void parallel_for(std::size_t count, unsigned threads, Body body);

template <typename Body>
void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t min_per_chunk, Body body);

struct Phase {
  Rng rng_;
  std::vector<double> draws_;

  double draw_helper() { return rng_.uniform(); }

  void run(unsigned threads) {
    parallel_for_chunks(draws_.size(), threads, 64,
                        [&](std::size_t begin, std::size_t end, std::size_t) {
                          for (std::size_t i = begin; i < end; ++i) {
                            draws_[i] = rng_.uniform();  // VIOLATION: shared rng_ in worker
                          }
                          draws_[end - 1] += draw_helper();  // VIOLATION: callee uses rng_
                        });
  }

  void replicate(unsigned threads) {
    parallel_for(draws_.size(), threads, [&](std::size_t i) {
      draws_[i] = rng_.uniform();  // VIOLATION: shared rng_ in a parallel_for worker
    });
  }
};

}  // namespace fixture
