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

std::size_t worker_budget() {
  const std::thread::id caller = std::this_thread::get_id();  // an id, not a thread
  (void)caller;
  return std::thread::hardware_concurrency();  // a query, not a thread
}

long long profile_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
