// Fixture: seeded R2 violations — shared sequential RNG touched from a
// parallel_for_chunks worker, directly and via a callee, and from a
// parallel_for worker; a caller's generator, captured by a
// parallel_for worker, called, drawn from and handed to a callee; and
// a member generator other than rng_ drawn from in a callee.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

struct Rng {
  explicit Rng(std::uint64_t seed);
  std::uint64_t operator()();
  double uniform();
};

double draw_with(Rng& gen);

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

struct Sampler {
  Rng gen_;
  std::vector<double> out_;

  double helper() { return gen_.uniform(); }

  void fill(unsigned threads) {
    parallel_for(out_.size(), threads, [&](std::size_t i) {
      out_[i] = helper();  // VIOLATION: callee draws from member gen_
    });
  }
};

void replicate_from_caller(std::vector<double>& out, unsigned threads, Rng& rng) {
  parallel_for(out.size(), threads, [&](std::size_t i) {
    Rng stream(rng());                          // VIOLATION: caller generator called
    out[i] = stream.uniform() + rng.uniform();  // VIOLATION: caller generator drawn from
    out[i] += draw_with(rng);                   // VIOLATION: caller generator handed on
  });
}

}  // namespace fixture
