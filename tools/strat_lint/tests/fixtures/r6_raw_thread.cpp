// Fixture: seeded R6 violations — threads spawned outside the worker
// pool, as a thread object, a jthread and std::async. The legal
// thread-adjacent names live in clean.cpp.
#include <cstddef>
#include <future>
#include <thread>
#include <vector>

namespace fixture {

double hand_rolled_pool(std::vector<double>& out) {
  std::vector<std::thread> pool;  // VIOLATION: thread objects outside the pool
  for (std::size_t w = 0; w < out.size(); ++w) {
    pool.emplace_back([&out, w] { out[w] = 1.0; });
  }
  for (auto& worker : pool) worker.join();
  std::jthread sidecar([&out] { out[0] += 1.0; });  // VIOLATION: jthread
  sidecar.join();
  auto later = std::async(std::launch::async, [] { return 2.0; });  // VIOLATION: async
  return later.get();
}

}  // namespace fixture
