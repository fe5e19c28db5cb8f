#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/worker_pool.hpp"

namespace perfbench {

namespace {

// The metric names and units BENCHMARK.json declares; run.py checks
// that a result carries exactly these.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peer_rounds_per_s", "1/s"},
    {"checkpoint_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kLayerMetrics = {
    {"bandwidth.sample_ms", "ms"},
    {"bandwidth.us_per_quantile", "us"},
    {"swarm.construct_ms", "ms"},
    {"swarm.round_ms_p50", "ms"},
    {"swarm.round_ms_tail", "ms"},
    {"swarm.choke_ms", "ms"},
    {"swarm.mutual_ms", "ms"},
    {"swarm.transfer_compute_ms", "ms"},
    {"swarm.transfer_commit_ms", "ms"},
    {"swarm.transfer_rerun_ms", "ms"},
    {"swarm.fold_ms", "ms"},
    {"swarm.serial_share", "ratio"},
    {"swarm.lanes_per_round", "count"},
    {"swarm.rerun_fraction", "ratio"},
    {"swarm.cpu_per_wall", "ratio"},
    {"swarm.speedup_2v1", "ratio"},
    {"faults.step_ms", "ms"},
    {"faults.failed_announces", "count"},
    {"faults.retries", "count"},
    {"faults.connect_failures", "count"},
    {"faults.nat_rejections", "count"},
    {"faults.lost_lanes", "count"},
    {"churn.before_round_ms", "ms"},
    {"churn.arrivals", "count"},
    {"churn.departures", "count"},
    {"scenario.replication_ms", "ms"},
    {"scenario.summary_ms", "ms"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.load_minor_faults", "count"},
    {"tracker.construct_ms", "ms"},
    {"tracker.round_ms_p50", "ms"},
    {"tracker.round_ms_tail", "ms"},
    {"tracker.barrier_ms", "ms"},
    {"tracker.shard_ms", "ms"},
    {"tracker.imbalance_ms", "ms"},
    {"tracker.shard_efficiency", "ratio"},
    {"tracker.live_memberships", "count"},
    {"worker_pool.threads", "count"},
};


// Digests of the default seed. swarm_1e5 and tracker_ecosystem pin the
// save() bytes at the end of a timed window; scenario_sweep pins every
// ScenarioResult field of one sweep. A change to simulation output
// moves these, and every run of the default seed then fails.
struct Pin {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr Pin kPins[] = {
    {"swarm_1e5", kDefaultSeed, 0xa08aae9ddf9768bdULL},
    {"scenario_sweep", kDefaultSeed, 0xdd0a472d96326946ULL},
    {"tracker_ecosystem", kDefaultSeed, 0x92d4600f4f1e2e5eULL},
};

constexpr std::uint64_t kMulA = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4FULL;

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs, const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- digests ---------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  n_ += n;
  while (n >= 8) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, 8);
    h_ = (h_ ^ (lane * kMulA)) * kMulB;
    h_ ^= h_ >> 29;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, n);
    h_ = (h_ ^ ((lane + n) * kMulA)) * kMulB;
    h_ ^= h_ >> 29;
  }
}

void Digest::u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

std::uint64_t Digest::value() const { return mix64(h_ ^ mix64(n_)); }

std::uint64_t digest_of(std::string_view bytes) {
  Digest d;
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> pinned_digest(std::string_view workload, std::uint64_t seed) {
  for (const Pin& p : kPins) {
    if (workload == p.workload && seed == p.seed) return p.digest;
  }
  return std::nullopt;
}

// --- process counters ------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void release_free_memory() { malloc_trim(0); }

// --- order statistics ------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  for (const double p : {99.0, 95.0, 90.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      // Nearest rank.
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      t.value = v[std::max<std::size_t>(rank, 1) - 1];
      t.percentile = p;
      return t;
    }
  }
  t.value = v.back();
  return t;
}

std::string describe(const Tail& t) {
  std::ostringstream out;
  if (t.percentile < 100.0) {
    out << "p" << t.percentile;
  } else {
    out << "the maximum";
  }
  out << " of " << t.samples << " samples";
  return out.str();
}

// --- tracing ---------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, const char* name, const char* layer) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.spans_.size();
  Record rec;
  rec.name = name;
  rec.layer = layer;
  rec.parent = tracer.open_.empty() ? -1 : static_cast<std::int64_t>(tracer.open_.back());
  rec.start_ns = tracer.now_ns();
  tracer.spans_.push_back(rec);
  tracer.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::size_t Tracer::memory_bytes() const noexcept {
  return spans_.capacity() * sizeof(Record) + open_.capacity() * sizeof(std::size_t);
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    by_layer[r.layer] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-6;
  }
  std::vector<std::pair<std::string, double>> out(by_layer.begin(), by_layer.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name << "\",\"cat\":\"" << r.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << format_number(static_cast<double>(r.start_ns) * 1e-3)
        << ",\"dur\":" << format_number(static_cast<double>(r.end_ns - r.start_ns) * 1e-3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << r.parent << ",\"run\":\""
        << hex(run_id_) << "\"}}";
  }
  out << "\n],\"otherData\":{\"self_ms_by_layer\":{";
  bool first = true;
  for (const auto& [layer, ms] : self_ms_by_layer()) {
    out << (first ? "" : ",") << "\"" << layer << "\":" << format_number(ms);
    first = false;
  }
  out << "}}}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

// --- run record ------------------------------------------------------

Run::Run(Options opts)
    : opts_(std::move(opts)),
      tracer_(opts_.seed ^ static_cast<std::uint64_t>(
                               Clock::now().time_since_epoch().count())),
      pinned_(pinned_digest(opts_.workload, opts_.seed)) {}

bool Run::begin_rep(std::size_t rep) {
  const bool traced = opts_.trace && rep % 2 == 1;
  tracer_.set_enabled(traced);
  return traced;
}

std::size_t Run::min_reps(std::size_t untraced_min, std::size_t per_side) const {
  return opts_.trace ? std::max(untraced_min, 2 * per_side) : untraced_min;
}

bool Run::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "FAILED: " << what << "\n";
  }
  return ok;
}

void Run::count(std::size_t n, std::size_t failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) std::cout << "FAILED: " << failed << " of " << n << " " << what << "\n";
}

bool Run::digest_ok(std::uint64_t d) {
  if (!first_digest_.has_value()) first_digest_ = d;
  const std::uint64_t want = pinned_.value_or(*first_digest_);
  if (d != want) {
    std::cout << "digest " << hex(d) << " differs from the " << (pinned_ ? "pinned" : "first")
              << " digest " << hex(want) << "\n";
  }
  return d == want;
}

void Run::end_to_end(const std::string& name, const Samples& s) {
  if (find_spec(kEndToEndMetrics, name) == nullptr) {
    throw std::logic_error("unknown end-to-end metric " + name);
  }
  if (!opts_.trace) {
    metrics_[name] = median(s.plain);
    return;
  }
  const double plain = median(s.plain);
  const double traced = median(s.traced);
  const double share = plain == 0.0 ? 0.0 : (traced - plain) / plain;
  note("tracing overhead " + name + ": traced " + format_number(traced) + " vs untraced " +
       format_number(plain) + " (median of " + std::to_string(s.traced.size()) + " vs " +
       std::to_string(s.plain.size()) + "), difference " + format_number(traced - plain) +
       " = " + format_number(100.0 * share) + "%");
}

void Run::layer(const std::string& name, double value) {
  if (find_spec(kLayerMetrics, name) == nullptr) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  metrics_[name] = value;
}

void Run::note(const std::string& line) const { std::cout << line << "\n"; }

int Run::finish() {
  const std::size_t workers = strat::sim::WorkerPool::shared().spawned() + 1;
  // The caller thread runs tasks too, so pool threads + 1 = workers.
  check(workers <= 2, "at most 2 workers (pool threads + caller = " +
                          std::to_string(workers) + ")");
  if (opts_.trace) {
    layer("worker_pool.threads", static_cast<double>(workers - 1));
    note("tracing overhead peak_rss_mb: span buffer " +
         format_number(static_cast<double>(tracer_.memory_bytes()) / (1024.0 * 1024.0)) +
         " MB for " + std::to_string(tracer_.span_count()) + " spans");
    note("self time per layer (ms):");
    for (const auto& [name, ms] : tracer_.self_ms_by_layer()) {
      note("  " + name + " " + format_number(ms));
    }
    if (!opts_.trace_path.empty()) {
      attempt("write the trace to " + opts_.trace_path, [&] {
        tracer_.write_chrome_trace(opts_.trace_path);
        return true;
      });
    }
  } else {
    metrics_["peak_rss_mb"] = peak_rss_mb();
  }
  const std::vector<MetricSpec>& specs = opts_.trace ? kLayerMetrics : kEndToEndMetrics;
  std::ostringstream json;
  std::ostringstream body;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = metrics_.find(spec.name);
    double value = 0.0;
    if (it != metrics_.end()) {
      value = it->second;
    } else if (!opts_.trace) {
      check(false, std::string("end-to-end metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      check(false, std::string("non-finite metric ") + spec.name);
      value = 0.0;
    }
    body << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": " << format_number(value)
         << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  const bool correct = failed_ == 0 && attempted_ > 0;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {" << body.str() << "}}";
  std::cout << "operations: " << attempted_ << " attempted, " << failed_ << " failed\n";
  if (first_digest_.has_value()) {
    std::cout << "digest " << opts_.workload << " seed " << opts_.seed << ": "
              << hex(*first_digest_);
    if (pinned_.has_value()) {
      std::cout << (*pinned_ == *first_digest_ ? " (pinned)" : ", pinned " + hex(*pinned_));
    } else {
      std::cout << " (not pinned: windows must agree with each other)";
    }
    std::cout << "\n";
  }
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace perfbench
