// Versioned swarm checkpoints: durable, resumable, forkable runs.
//
// A snapshot is a third representation of swarm run state, next to the
// flat data plane and the map-based ReferenceSwarm — and like those
// two it is held to a bitwise contract: Swarm::save() between any two
// rounds, then Swarm::resume(), continues the run bitwise-identically
// to the uninterrupted one at any SwarmConfig::threads value (the
// resume-equivalence differential test tier proves it against both the
// uninterrupted flat run and the oracle). That works because the
// determinism model is explicit state: counter-based per-peer choke
// streams (key + round suffice), one sequential structural generator
// (xoshiro words are captured and restored), and row/slot orders that
// are themselves serialized rather than re-derived.
//
// Format (version 2, little-endian, not endian-portable — the magic
// word doubles as the byte-order probe):
//
//   u64 magic, u32 version, then tagged sections in fixed order —
//   config (incl. the fault-injection spec), RNG (choke key +
//   structural generator), peer table (live ids in row order,
//   generation stamps, id space), run counters, edge-slot pool
//   (neighbor/mirror/generation/free-list/rates/in-flight/mutual
//   arrays), per-row peer state (stats, bitfields, choker state,
//   unchoke sets, sorted adjacency + slots, partial pieces), retired
//   records, a piece-availability cross-check, and the live fault
//   state (NAT flags, retry deadlines/counts, announce sequence
//   numbers, fault counters — a mid-outage save resumes with every
//   backoff deadline intact) — closed by a 64-bit running checksum of
//   every byte written.
//
// Each record inside a section is encoded by exactly one field list, a
// `<record>_fields(io, record)` template (snapshot.cpp; rng_state_fields
// and churn_deadline_fields below; tracker_sim.cpp), driven through the
// Writer, the Reader and the byte-counting Sizer, so save, load and the
// save-buffer size cannot disagree about a field.
//
// Loading rejects bad magic, unknown versions, truncation, checksum
// mismatches, a config the constructors would refuse, list counts the
// remaining bytes cannot hold, and any structurally inconsistent state
// (every index is bounds-checked before the swarm is wired together),
// throwing SnapshotError with a message naming the failure; a corrupt
// snapshot can never produce a swarm with broken invariants, let alone
// UB.
// Deliberately *not* serialized: phase-profile wall clocks, per-worker
// scratch buffers, and the transient per-round accumulators that are
// provably zero between rounds (now_in_/now_out_) — none of them feed
// back into simulation state. See README "Snapshot format and resume
// contract".
//
// ChurnDriver state (lifetime deadlines + capacity-pool cursor) rides
// in a companion section via save_churn_driver()/restore_churn_driver()
// — the driver's spec/config/pool are construction inputs the resuming
// caller supplies, the snapshot carries only the mutable remainder.
// Both sections are read through one snapshot_detail::Reader, which
// restarts its checksum after each footer, so a churn section is
// restored from the same Reader right after Swarm::resume().
//
// fork_snapshot() opens warm-started what-if sweeps: resume one
// equilibrated snapshot into N independent (rng, swarm) pairs and
// drive each under a divergent ChurnSpec without re-simulating the
// ramp-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bittorrent/scenario.hpp"
#include "bittorrent/swarm.hpp"
#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Any snapshot failure: bad magic, version/config mismatch,
/// truncation, checksum failure, structural inconsistency, stream
/// errors (a failed write, a stream that cannot seek). The message
/// names the offending field.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// "STRATSWM" — also the byte-order probe: a big-endian reader sees
/// garbage and rejects the stream at the first field.
inline constexpr std::uint64_t kSnapshotMagic = 0x535452415453574DULL;
/// "STRATCHN" for the churn-driver companion section.
inline constexpr std::uint64_t kChurnMagic = 0x535452415443484EULL;
/// Version 2 added the fault-injection spec to the config section and
/// the tagged fault-state section (kTagFaults).
inline constexpr std::uint32_t kSnapshotVersion = 2;

namespace snapshot_detail {

inline constexpr std::size_t kIoBuf = 64 * 1024;
// Odd multiplier (golden-ratio constant): any change to any lane
// changes the polynomial sum mod 2^64, so every single-lane corruption
// is detected even before the final avalanche.
inline constexpr std::uint64_t kFoldMul = 0x9E3779B97F4A7C15ULL;
inline constexpr std::uint64_t kFoldMul2 = kFoldMul * kFoldMul;
inline constexpr std::uint64_t kFoldMul3 = kFoldMul2 * kFoldMul;
inline constexpr std::uint64_t kFoldMul4 = kFoldMul3 * kFoldMul;

/// SplitMix64 finalizer, applied once when the checksum footer is
/// emitted / verified: the per-lane fold below is a plain
/// multiply-accumulate (one mul per 8 bytes — an avalanche round per
/// lane would serialize a ~15-cycle dependency chain and cost more
/// than the serialization itself at 10^5 peers), and this final pass
/// supplies the diffusion.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Folds `n` bytes into `hash`, 8-byte lanes plus a zero-padded,
/// length-salted tail: hash = hash * M + lane per lane. Writer and
/// Reader call this once per *logical* field/array, so both sides fold
/// identical lane sequences regardless of I/O buffering. Bulk spans
/// fold four lanes at a time as h*M^4 + l0*M^3 + l1*M^2 + l2*M + l3
/// (mod 2^64), which is exactly four single-lane steps, so the footer
/// does not depend on which path a span took; the three lane products
/// are independent of h, leaving one multiply per 32 bytes on the
/// dependency chain instead of four. Short calls and tails take the
/// single-lane path. Inline because a 10^5-peer snapshot makes ~2M
/// logical writes — per-call overhead would dominate the pass.
inline std::uint64_t fold_bytes(std::uint64_t hash, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 32) {
    std::uint64_t lane[4];
    std::memcpy(lane, p, 32);
    hash = hash * kFoldMul4 + ((lane[0] * kFoldMul3 + lane[1] * kFoldMul2) +
                               (lane[2] * kFoldMul + lane[3]));
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p, 8);
    hash = hash * kFoldMul + lane;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p, n);
    hash = hash * kFoldMul + (lane + n);
  }
  return hash;
}

/// Byte counter with the Writer's interface: a field list, or a whole
/// save_impl(), driven through it yields the exact encoded size.
class Sizer {
 public:
  void bytes(const void* /*data*/, std::size_t n) { n_ += n; }
  void u32(std::uint32_t /*v*/) { n_ += 4; }
  void u64(std::uint64_t /*v*/) { n_ += 8; }
  void f64(double /*v*/) { n_ += 8; }
  void tag(std::uint32_t /*t*/) { n_ += 4; }
  void flag(bool /*v*/) { n_ += 1; }
  template <typename T>
  void pod_span(const T* /*data*/, std::size_t n) {
    n_ += 8 + n * sizeof(T);
  }
  template <typename T>
  void pod(const std::vector<T>& v, std::size_t /*max*/, const char* /*what*/) {
    pod_span(v.data(), v.size());
  }
  template <typename Range, typename Elem>
  void list(const Range& v, std::size_t /*max*/, const char* /*what*/, Elem elem) {
    n_ += 8;
    for (const auto& x : v) elem(*this, x);
  }
  /// The checksum footer.
  void finish() { n_ += 8; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Checksummed little-endian binary writer appending to a string: the
/// ostream machinery costs more than the serialization itself at 10^5
/// peers, so TrackerSim::save() stages each section in a string and
/// writes it whole. The running 64-bit hash folds every *logical*
/// write; finish() appends the checksum.
class Writer {
 public:
  explicit Writer(std::string& sink);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    hash_ = fold_bytes(hash_, data, n);
    sink_.append(static_cast<const char*>(data), n);
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void tag(std::uint32_t t) { u32(t); }

  void flag(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed contiguous POD span (no internal padding!).
  template <typename T>
  void pod_span(const T* data, std::size_t n) {
    u64(n);
    bytes(data, n * sizeof(T));
  }
  /// Field-list form of pod_span(); `max` and `what` serve the Reader.
  template <typename T>
  void pod(const std::vector<T>& v, std::size_t /*max*/, const char* /*what*/) {
    pod_span(v.data(), v.size());
  }
  /// Count-prefixed list, each element written by `elem(*this, x)`.
  template <typename Range, typename Elem>
  void list(const Range& v, std::size_t /*max*/, const char* /*what*/, Elem elem) {
    u64(v.size());
    for (const auto& x : v) elem(*this, x);
  }

  /// Appends the checksum footer. Must be the last call.
  void finish();

 private:
  std::string& sink_;
  std::uint64_t hash_;
};

/// Checksummed reader, mirror of Writer: every read throws
/// SnapshotError("...truncated") on a short source, and
/// verify_checksum() compares the running hash with the stored footer,
/// then restarts the hash, so one Reader reads any number of sections
/// in a row (a swarm, its churn section, a whole tracker stream).
/// Every read is served from one contiguous window [cur, end); the two
/// sources differ only in what lies behind it:
///   - a byte view (Reader(std::string_view)) is the whole window: reads
///     copy straight out of the caller's bytes, nothing is staged, and a
///     read past the end is truncation;
///   - a seekable std::istream (TrackerSim::resume()) refills the window
///     through a ~64 KB read-ahead buffer (one istream call per refill,
///     not per field — per-call overhead would otherwise dominate a
///     10^5-peer load); large reads bypass it. The Reader owns the
///     stream from its construction on: the read-ahead is never
///     returned, so what follows a section is read through the same
///     Reader. A stream that cannot seek (a pipe) is refused with a
///     SnapshotError, because its length cannot be measured.
/// remaining() is the window for a view and the seek-measured rest for
/// a stream, so a lying count dies with the same message on both,
/// before anything is sized.
class Reader {
 public:
  explicit Reader(std::string_view bytes);
  explicit Reader(std::istream& in);
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void bytes(void* data, std::size_t n) {
    take(data, n);
    fold(data, n);
  }
  std::uint8_t u8() {
    std::uint8_t v;
    bytes(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    bytes(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    bytes(&v, 8);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  void expect_tag(std::uint32_t t, const char* section);

  // Field-list forms: read into the named field.
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void f64(double& v) { v = f64(); }
  /// A stored flag is one byte, 0 or 1; any other byte is refused, so
  /// a load re-saves the bytes it read.
  void flag(bool& v) {
    const std::uint8_t byte = u8();
    if (byte > 1) throw SnapshotError("snapshot: flag byte is neither 0 nor 1");
    v = byte != 0;
  }
  template <typename T>
  void pod(std::vector<T>& v, std::size_t max_elems, const char* what) {
    v = pod_vec<T>(max_elems, what);
  }

  /// Length-prefixed POD vector: the count, checked against
  /// `max_elems`, then pod_array().
  template <typename T>
  std::vector<T> pod_vec(std::size_t max_elems, const char* what) {
    const std::uint64_t n64 = u64();
    if (n64 > max_elems) {
      throw SnapshotError(std::string("snapshot: implausible ") + what + " count");
    }
    return pod_array<T>(static_cast<std::size_t>(n64));
  }

  /// `n` POD elements with no prefix, `n` derived from fields already
  /// read. A corrupt length cannot force a giant allocation: `n` is
  /// checked against remaining() before anything is sized, so the
  /// result is allocated exactly once, with zero capacity slack, and
  /// filled by one copy. The checksum folds once over the whole buffer,
  /// matching a writer's single bytes() fold exactly.
  template <typename T>
  std::vector<T> pod_array(std::size_t n) {
    if (n > remaining() / sizeof(T)) throw SnapshotError("snapshot: truncated stream");
    std::vector<T> out(n);
    take(out.data(), n * sizeof(T));
    fold(out.data(), n * sizeof(T));
    return out;
  }

  /// Count-prefixed list, each element read by `elem(*this, x)`. The
  /// count is checked against `max_elems` and then, before anything is
  /// sized, against remaining() at the element's minimum encoded width
  /// (a Sizer over a default element, whose own lists are empty).
  template <typename T, typename Elem>
  void list(std::vector<T>& v, std::size_t max_elems, const char* what, Elem elem) {
    const std::uint64_t n = u64();
    if (n > max_elems) {
      throw SnapshotError(std::string("snapshot: implausible ") + what + " count");
    }
    const T probe{};
    Sizer min_width;
    elem(min_width, probe);
    if (n > remaining() / min_width.size()) {
      throw SnapshotError(std::string("snapshot: ") + what + " count exceeds the stream");
    }
    const auto count = static_cast<std::size_t>(n);
    v.clear();
    v.reserve(count);
    for (std::size_t i = 0; i < count; ++i) elem(*this, v.emplace_back());
  }

  /// Compares the running hash with the stored footer, then restarts
  /// the hash for the section that follows.
  void verify_checksum();

 private:
  [[nodiscard]] std::size_t window() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  /// Bytes left of the source: the window plus, on a stream, what lies
  /// behind it.
  [[nodiscard]] std::uint64_t remaining() const noexcept { return window() + behind_; }
  /// Reads without folding (pod_array folds the assembled buffer once);
  /// reads the window holds are one memcpy.
  void take(void* data, std::size_t n) {
    if (n == 0) return;
    if (n <= window()) {
      std::memcpy(data, cur_, n);
      cur_ += n;
      return;
    }
    take_slow(data, n);
  }
  /// Window exhausted: truncation for a view; for a stream, drain the
  /// window, then refill it (or read a large request directly).
  void take_slow(void* data, std::size_t n);
  /// Folds `n` bytes into the running checksum without reading.
  void fold(const void* data, std::size_t n) {
    if (n == 0) return;
    hash_ = fold_bytes(hash_, data, n);
  }

  const unsigned char* cur_ = nullptr;
  const unsigned char* end_ = nullptr;
  std::istream* in_ = nullptr;  // null for a view
  std::uint64_t hash_;
  std::uint64_t behind_ = 0;  // stream bytes not yet in the window
  std::vector<unsigned char> rbuf_;  // the window's storage on a stream
};

/// Bound on a ChurnDriver's deadline count (one per live leecher).
inline constexpr std::size_t kMaxChurnDeadlines = std::size_t{1} << 32;

/// graph::Rng::State: the xoshiro words and the Box-Muller cache.
/// Shared by the swarm and tracker snapshots.
template <class Io, class T>
void rng_state_fields(Io& io, T& st) {
  for (auto& word : st.s) io.u64(word);
  io.f64(st.cached_normal);
  io.flag(st.has_cached_normal);
}

/// One ChurnDriver lifetime deadline: (external id, deadline round).
template <class Io, class T>
void churn_deadline_fields(Io& io, T& d) {
  io.u32(d.first);
  io.f64(d.second);
}

/// churn_deadline_fields as a list() element callable.
inline constexpr auto kChurnDeadline = [](auto& io, auto& d) { churn_deadline_fields(io, d); };

}  // namespace snapshot_detail

/// Appends a ChurnDriver's mutable state (sorted lifetime deadlines +
/// capacity-pool cursor) to `out` as a checksummed companion section,
/// typically right after Swarm::save(). The driver's spec/config/pool
/// are construction inputs, not state — the resuming side must rebuild
/// the driver with the same ones (and the same Rng the swarm resumes
/// into) before calling restore_churn_driver().
template <typename SwarmT>
void save_churn_driver(std::string& out, const ChurnDriver<SwarmT>& driver) {
  snapshot_detail::Writer w(out);
  w.u64(kChurnMagic);
  w.u32(kSnapshotVersion);
  w.list(driver.deadline_snapshot(), snapshot_detail::kMaxChurnDeadlines, "churn deadline",
         snapshot_detail::kChurnDeadline);
  w.u64(driver.capacity_cursor());
  w.finish();
}

/// Restores the next section of `r`, saved by save_churn_driver(), into
/// a freshly constructed driver. Throws SnapshotError on bad magic,
/// version mismatch, truncation, unordered/duplicate deadline ids, or
/// checksum failure.
template <typename SwarmT>
void restore_churn_driver(snapshot_detail::Reader& r, ChurnDriver<SwarmT>& driver) {
  if (r.u64() != kChurnMagic) throw SnapshotError("churn snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("churn snapshot: unsupported version " + std::to_string(version));
  }
  std::vector<std::pair<core::PeerId, double>> deadlines;
  r.list(deadlines, snapshot_detail::kMaxChurnDeadlines, "churn deadline",
         snapshot_detail::kChurnDeadline);
  for (std::size_t i = 1; i < deadlines.size(); ++i) {
    if (deadlines[i].first <= deadlines[i - 1].first) {
      throw SnapshotError("churn snapshot: deadline ids not strictly ascending");
    }
  }
  const std::uint64_t cursor = r.u64();
  r.verify_checksum();
  driver.restore(deadlines, static_cast<std::size_t>(cursor));
}

/// One resumed run: owns the structural Rng (at a stable heap address
/// — Swarm keeps a reference to it) together with the Swarm resumed
/// against it. Move-only; moving keeps the reference valid.
class ResumedSwarm {
 public:
  /// Resumes from snapshot bytes in memory, read in place: the loader
  /// copies each field straight out of `snapshot` into the swarm, with
  /// no intermediate stream. `config`, when given, is the override of
  /// Swarm::resume().
  explicit ResumedSwarm(std::string_view snapshot, const SwarmConfig* config = nullptr);

  ResumedSwarm(ResumedSwarm&&) = default;
  ResumedSwarm& operator=(ResumedSwarm&&) = delete;  // Swarm holds a reference member

  [[nodiscard]] Swarm& swarm() noexcept { return *swarm_; }
  [[nodiscard]] const Swarm& swarm() const noexcept { return *swarm_; }
  /// The structural generator the swarm draws from — pass it to any
  /// ChurnDriver that should continue in lockstep.
  [[nodiscard]] graph::Rng& rng() noexcept { return *rng_; }

 private:
  std::unique_ptr<graph::Rng> rng_;
  std::optional<Swarm> swarm_;
};

/// save() into a string buffer — the fork input.
[[nodiscard]] std::string save_to_string(const Swarm& swarm);

/// Resumes one (rng, swarm) pair from an in-memory snapshot, read in
/// place (see ResumedSwarm(std::string_view, ...)).
[[nodiscard]] ResumedSwarm resume_from_string(const std::string& snapshot);
[[nodiscard]] ResumedSwarm resume_from_string(const std::string& snapshot,
                                              const SwarmConfig& config);

/// Crash recovery: resumes from the newest autosave generation under
/// `dir` that passes the loader's full validation (magic, bounds,
/// checksum) — a corrupt or truncated newest generation falls back to
/// the previous one. Each generation file is read into one string and
/// resumed in place. Returns nullopt when no generation loads (or the
/// directory doesn't exist). Pairs with Swarm::autosave_every();
/// implemented in autosave.cpp.
[[nodiscard]] std::optional<ResumedSwarm> recover_latest_swarm(const std::filesystem::path& dir);

/// Warm-started what-if sweeps: resumes `copies` fully independent
/// (rng, swarm) pairs from one snapshot, each read in place from the
/// caller's bytes. Every fork starts bitwise
/// identical — drive each under a divergent ChurnSpec (or any other
/// schedule) to explore futures of the same equilibrated swarm without
/// re-simulating the ramp-up; drive one under the original schedule
/// and it reproduces the uninterrupted run exactly.
[[nodiscard]] std::vector<ResumedSwarm> fork_snapshot(const std::string& snapshot,
                                                      std::size_t copies);

}  // namespace strat::bt
