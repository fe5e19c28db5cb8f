// Shared machinery of the repository benchmark: options, digests,
// process counters, order statistics, the span tracer, and the run
// record that collects operations and metrics and prints the result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// The seed whose digests are pinned (pinned_digest()).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Wall-clock budget of the timed loop; every loop also has a
  /// minimum repetition count, so a run can take longer.
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event output of a traced run (empty: not written).
  std::string trace_path;
};

// --- digests ---------------------------------------------------------

/// 64-bit digest over 8-byte lanes. Fields are folded bitwise, so two
/// results digest equal only if every field is bit-identical.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);
  [[nodiscard]] std::uint64_t value() const;

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ULL;
  std::uint64_t n_ = 0;
};

[[nodiscard]] std::uint64_t digest_of(std::string_view bytes);
/// SplitMix64 finalizer.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z);
[[nodiscard]] std::string hex(std::uint64_t v);

/// The pinned digest of `workload` at `seed`, if one is pinned.
[[nodiscard]] std::optional<std::uint64_t> pinned_digest(std::string_view workload,
                                                         std::uint64_t seed);

// --- process counters ------------------------------------------------

/// VmHWM of this process in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();
/// Minor page faults of this process so far.
[[nodiscard]] std::uint64_t minor_faults();
/// User + system CPU seconds of this process so far.
[[nodiscard]] double cpu_seconds();
/// Hands freed heap pages back to the kernel. Called after a simulation
/// is released, so every repetition allocates from the same state:
/// left alone, glibc keeps or returns freed pages depending on the heap
/// layout, which made resume times and VmHWM bimodal across seeds.
void release_free_memory();

// --- order statistics ------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The highest of p99/p95/p90 that has at least ten samples beyond
/// it; with fewer than 100 samples none does, and the tail is the
/// maximum (reported as percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);
/// "p95 of 270 samples" or "the maximum of 9 samples".
[[nodiscard]] std::string describe(const Tail& t);

// --- tracing ---------------------------------------------------------

/// In-memory span recorder for the calls the benchmark makes into each
/// layer. Spans nest by scope: a span opened while another is open
/// records it as its parent. Disabled, span() reads no clock and
/// records nothing.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id), origin_(Clock::now()) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing was off at open
    std::size_t index_ = 0;
  };

  /// Durations (ms) of every recorded span named `name`, in order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Self time per layer (ms): each span's duration minus the part its
  /// child spans cover, summed by layer, largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_layer() const;

  /// Writes the spans as Chrome trace-event JSON, with the self-time
  /// table under "otherData". Throws std::runtime_error on I/O failure.
  void write_chrome_trace(const std::string& path) const;

  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct Record {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::uint64_t run_id_;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;
};

// --- samples and the run record --------------------------------------

/// Repeated measurements of one end-to-end metric. A traced run
/// alternates untraced and traced repetitions, so both sides see the
/// same host drift and their difference is the tracing overhead.
struct Samples {
  std::vector<double> plain;
  std::vector<double> traced;
  void add(bool is_traced, double v) { (is_traced ? traced : plain).push_back(v); }
};

class Run {
 public:
  explicit Run(Options opts);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }

  /// Whether repetition `rep` of a timed loop is traced: every second
  /// one in a traced run, none otherwise. Also switches the tracer.
  bool begin_rep(std::size_t rep);
  /// Repetitions a timed loop needs so that a traced run gets at least
  /// `per_side` on each side.
  [[nodiscard]] std::size_t min_reps(std::size_t untraced_min, std::size_t per_side) const;

  /// Counts one operation, failed unless `ok`.
  bool check(bool ok, const std::string& what);
  /// Runs `op` as one operation; an exception counts as its failure.
  template <typename Fn>
  bool attempt(const std::string& what, Fn&& op) {
    try {
      return check(op(), what);
    } catch (const std::exception& e) {
      return check(false, what + ": " + e.what());
    }
  }
  /// Counts `n` operations at once (e.g. the replications of a sweep).
  void count(std::size_t n, std::size_t failed, const std::string& what);

  /// Checks a window/sweep digest: equal to the pinned digest when the
  /// seed has one, otherwise equal to the first digest of this run.
  [[nodiscard]] bool digest_ok(std::uint64_t d);

  /// Records an end-to-end metric from its samples (untraced run) or
  /// prints its tracing overhead (traced run).
  void end_to_end(const std::string& name, const Samples& s);
  /// Records a per-layer metric; the name must be a known one.
  void layer(const std::string& name, double value);

  /// Prints a human-readable line ahead of the result line.
  void note(const std::string& line) const;

  /// Prints the result line; returns the exit code.
  int finish();

 private:
  Options opts_;
  Tracer tracer_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::optional<std::uint64_t> pinned_;
  std::optional<std::uint64_t> first_digest_;
  std::map<std::string, double> metrics_;
};

}  // namespace perfbench
