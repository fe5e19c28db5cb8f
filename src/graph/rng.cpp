#include "graph/rng.hpp"

#include <cmath>

namespace strat::graph {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless SplitMix64 finalizer: the avalanche rounds alone, used to
/// fold stream coordinates into a seed.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start at the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = -n % n;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) noexcept { return mean + sigma * normal(); }

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  // Sum of independent Poissons is Poisson: split large means so the
  // product method's exp(-mean) limit never underflows.
  std::uint64_t total = 0;
  while (mean > 32.0) {
    const double half = mean / 2.0;
    total += poisson(half);
    mean -= half;
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double product = uniform();
  while (product > limit) {
    ++k;
    product *= uniform();
  }
  return total + k;
}

double Rng::exponential(double mean) noexcept {
  if (mean <= 0.0) return 0.0;
  // uniform() < 1, so log1p(-u) is finite.
  return -mean * std::log1p(-uniform());
}

std::uint64_t Rng::skip_geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

Rng Rng::stream(std::uint64_t key, std::uint64_t a, std::uint64_t b) noexcept {
  // Each coordinate is offset by a distinct odd constant and folded
  // through a full avalanche round, so (key, a, b) triples that differ
  // in any single coordinate seed unrelated generators.
  std::uint64_t seed = mix64(key + 0x9E3779B97F4A7C15ULL);
  seed = mix64(seed ^ (a + 0xBF58476D1CE4E5B9ULL));
  seed = mix64(seed ^ (b + 0x94D049BB133111EBULL));
  return Rng(seed);
}

}  // namespace strat::graph
