// Fixture: clean file — exercises the patterns each rule is close to,
// the contract-conforming way. strat-lint must report nothing here.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fixture {

struct Rng {
  static Rng stream(std::uint64_t key, std::uint64_t id, std::uint64_t round);
  std::uint64_t operator()();
  double uniform();
};

template <typename Body>
void parallel_for(std::size_t count, unsigned threads, Body body);

template <typename Body>
void parallel_for_chunks(std::size_t count, unsigned threads,
                         std::size_t min_per_chunk, Body body);

std::map<int, double> ordered_rates;           // ordered: iteration is fine
std::unordered_map<int, double> lookup_only;   // unordered: membership only

double sum_ordered() {
  double total = 0.0;
  for (const auto& kv : ordered_rates) {
    total += kv.second;
  }
  return total + (lookup_only.count(7) != 0U ? lookup_only.at(7) : 0.0);
}

double waived_sum() {
  double total = 0.0;
  // strat-lint: allow(unordered-iter) -- commutative integer-free max,
  // order-independent by construction (fixture exercises the waiver
  // grammar across a multi-line comment block).
  for (const auto& kv : lookup_only) {
    total = kv.second > total ? kv.second : total;
  }
  return total;
}

void deterministic_phase(std::vector<double>& out, unsigned threads,
                         std::uint64_t key, std::uint64_t round) {
  std::vector<double> scratch(out.size(), 0.0);
  parallel_for_chunks(out.size(), threads, 64,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t i = begin; i < end; ++i) {
                          Rng stream = Rng::stream(key, i, round);
                          scratch[i] = stream.uniform();
                        }
                      });
  double total = 0.0;  // deterministic serial commit
  for (double v : scratch) {
    total += v;
  }
  out[0] = total;
}

void deterministic_replications(std::vector<double>& out, unsigned threads,
                                std::uint64_t key) {
  parallel_for(out.size(), threads, [&](std::size_t i) {
    Rng stream = Rng::stream(key, i, 0);
    out[i] = stream.uniform();
  });
}

void keyed_replications(std::vector<double>& out, unsigned threads, Rng& rng) {
  const std::uint64_t key = rng();  // the caller's generator, drawn before the fan-out
  parallel_for(out.size(), threads, [&](std::size_t i) {
    auto stream = Rng::stream(key, i, 0);  // built inside the body
    out[i] = stream.uniform();
  });
}

double per_task_walls(std::vector<double>& walls, unsigned threads) {
  parallel_for(walls.size(), threads, [&](std::size_t i) {
    double wall = 0.0;  // task-local accumulator: fine
    wall += 1.0;
    walls[i] = wall;  // each task writes only its own slot
  });
  double busy = 0.0;  // deterministic serial merge
  for (double w : walls) {
    busy += w;
  }
  return busy;
}

struct KeyedSampler {
  Rng gen_;  // member generator, drawn only outside the fan-out
  std::uint64_t key_ = 0;
  std::vector<double> out_;

  double keyed_draw(std::size_t i) const {
    Rng stream = Rng::stream(key_, i, 0);  // the callee builds its own stream
    return stream.uniform();
  }

  void fill(unsigned threads) {
    key_ = gen_();
    parallel_for(out_.size(), threads, [&](std::size_t i) { out_[i] = keyed_draw(i); });
  }
};

std::size_t worker_budget() {
  const std::thread::id caller = std::this_thread::get_id();  // an id, not a thread
  (void)caller;
  return std::thread::hardware_concurrency();  // a query, not a thread
}

long long profile_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
