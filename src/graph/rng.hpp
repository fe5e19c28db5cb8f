// Deterministic pseudo-random number generation for all simulations.
//
// Every stochastic component in the library takes an explicit Rng& so
// experiments are reproducible from a single seed. The generator is
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64, which gives
// high-quality 64-bit streams without std::mt19937_64's 2.5 KB state.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace strat::graph {

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator,
/// so it can also drive <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's rejection
  /// method, so results are unbiased.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Poisson draw with the given mean (0 when mean <= 0). Knuth's
  /// product method for small means; large means split recursively into
  /// independent halves, so the draw stays exact at any rate. Drives
  /// the swarm churn arrival/replacement processes.
  std::uint64_t poisson(double mean) noexcept;

  /// Exponential draw with the given mean (inverse CDF). Drives the
  /// swarm churn lifetime model.
  double exponential(double mean) noexcept;

  /// Geometric-style skip: number of failures before the first success of
  /// a Bernoulli(p) sequence, i.e. floor(log(U)/log(1-p)). Used by the
  /// G(n,p) edge-skip sampler. Requires 0 < p <= 1.
  std::uint64_t skip_geometric(double p) noexcept;

  /// Fisher-Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Counter-based stream derivation: a generator keyed purely by
  /// `(key, a, b)` — no sequential state involved, so the stream for a
  /// given coordinate triple is the same no matter how many other
  /// streams were derived, in what order, or on which thread. The
  /// coordinates are mixed through SplitMix64 finalizer rounds before
  /// seeding. This is what makes per-peer randomness (key = run key,
  /// a = peer id, b = round) independent of iteration order: the swarm
  /// choke phase draws from these instead of one shared generator, and
  /// Monte-Carlo realization r from stream(key, r, 0). It is the only
  /// way to derive one generator from another.
  [[nodiscard]] static Rng stream(std::uint64_t key, std::uint64_t a, std::uint64_t b) noexcept;

  /// The complete generator state, exposed so simulations can be
  /// checkpointed: restoring it continues the exact draw sequence
  /// (Box-Muller's cached second normal included).
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] State state() const noexcept {
    return State{{s_[0], s_[1], s_[2], s_[3]}, cached_normal_, has_cached_normal_};
  }

  /// Restores a state captured by state(). Rejects the all-zero word
  /// vector (not a valid xoshiro256** state) with std::invalid_argument
  /// so a corrupt checkpoint cannot wedge the generator.
  void restore(const State& st) {
    if ((st.s[0] | st.s[1] | st.s[2] | st.s[3]) == 0) {
      throw std::invalid_argument("Rng::restore: all-zero state");
    }
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace strat::graph
