// The swarm tests' shared harness: the capacity fixtures, the one
// FNV-1a hasher behind every pinned digest, and RunState — everything
// both data planes (Swarm and ReferenceSwarm) expose after a run —
// with same_run(), the one comparator every bitwise differential goes
// through (threads, oracle, resume, resume sweep, fault storm,
// fixed-seed repeat). same_run() compares every field exactly, doubles
// by their bits, and names the first differing peer and field with
// both values, doubles in std::hexfloat. run_state_of() audits every
// flat swarm it captures (Swarm::audit()), so each differential also
// checks the structural invariants of the runs it compares.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bittorrent/bandwidth.hpp"
#include "bittorrent/faults.hpp"
#include "bittorrent/reference_swarm.hpp"
#include "bittorrent/swarm.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// n quantiles of the measured upstream-capacity distribution
/// (BandwidthModel::saroiu2002()), fastest first.
inline std::vector<double> capacities(std::size_t n) {
  return BandwidthModel::saroiu2002().representative_sample(n);
}

/// n strictly increasing capacities base * (1 + 0.001 i), so bandwidth
/// ranks are unambiguous.
inline std::vector<double> bandwidths(std::size_t n, double base = 400.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = base * (1.0 + 0.001 * static_cast<double>(i));
  return out;
}

/// 64-bit FNV-1a. Multi-byte values hash in memory order, which is the
/// little-endian order of the snapshot format.
struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ULL;

  Fnv1a& bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001B3ULL;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv1a& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
};

/// FNV-1a of a byte string, such as a save()d stream.
inline std::uint64_t fnv1a(std::string_view bytes) {
  return Fnv1a{}.bytes(bytes.data(), bytes.size()).h;
}

/// Everything a run exposes through either data plane.
struct RunState {
  /// One external id's record; departed peers keep theirs.
  struct Peer {
    PeerStats stats;
    std::size_t degree = 0;
    bool departed = false;
  };
  std::vector<Peer> peers;  // indexed by external id
  StratificationReport strat;
  Swarm::AvailabilityStats availability;
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t live = 0;
  std::size_t completed = 0;
  // FaultState's lifetime counters and its degraded-peer count.
  std::uint64_t failed_announces = 0;
  std::uint64_t announce_retries = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t nat_rejections = 0;
  std::uint64_t lost_lanes = 0;
  std::size_t degraded = 0;
  /// Structural draws taken from the run's generator after the run.
  std::vector<std::uint64_t> draws;
};

/// Captures `plane`'s run state, then takes `draws` structural draws
/// from `rng`, the generator the plane runs on. A Swarm is audited
/// first, so a broken invariant fails the capture.
template <typename Plane>
RunState run_state_of(const Plane& plane, graph::Rng& rng, std::size_t draws = 0) {
  if constexpr (std::is_same_v<Plane, Swarm>) plane.audit();
  RunState s;
  s.peers.reserve(plane.peer_count());
  for (core::PeerId p = 0; p < plane.peer_count(); ++p) {
    s.peers.push_back({plane.stats(p), plane.degree(p), plane.departed(p)});
  }
  s.strat = plane.stratification();
  s.availability = plane.availability_stats();
  s.arrivals = plane.arrivals();
  s.departures = plane.departures();
  s.live = plane.live_peer_count();
  s.completed = plane.completed_leechers();
  const FaultState& faults = plane.fault_state();
  s.failed_announces = faults.failed_announces_;
  s.announce_retries = faults.announce_retries_;
  s.connect_failures = faults.connect_failures_;
  s.nat_rejections = faults.nat_rejections_;
  s.lost_lanes = faults.lost_lanes_;
  s.degraded = faults.degraded_count();
  for (std::size_t i = 0; i < draws; ++i) s.draws.push_back(rng());
  return s;
}

/// Succeeds when every field of `got` equals `want`'s bitwise; fails
/// naming the first field that differs, peers before the swarm-wide
/// fields and the draws.
inline ::testing::AssertionResult same_run(const RunState& want, const RunState& got) {
  std::ostringstream first;
  // True when a and b differ bitwise (a NaN equals itself, -0.0 differs
  // from 0.0); then `first` holds the field's name and both values.
  const auto differs = [&first](const auto& a, const auto& b, const auto&... name) {
    using T = std::decay_t<decltype(a)>;
    if constexpr (std::is_same_v<T, double>) {
      if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) return false;
    } else if (a == b) {
      return false;
    }
    (first << ... << name) << ": want " << std::hexfloat << a << ", got " << b;
    return true;
  };
  if (differs(want.peers.size(), got.peers.size(), "peer count")) {
    return ::testing::AssertionFailure() << first.str();
  }
  for (std::size_t p = 0; p < want.peers.size(); ++p) {
    const RunState::Peer& a = want.peers[p];
    const RunState::Peer& b = got.peers[p];
    const auto field = [&](const auto& x, const auto& y, const char* name) {
      return differs(x, y, "peer ", p, ' ', name);
    };
    if (field(a.stats.upload_kbps, b.stats.upload_kbps, "upload_kbps") ||
        field(a.stats.uploaded_kb, b.stats.uploaded_kb, "uploaded_kb") ||
        field(a.stats.downloaded_kb, b.stats.downloaded_kb, "downloaded_kb") ||
        field(a.stats.pieces, b.stats.pieces, "pieces") ||
        field(a.stats.completion_round, b.stats.completion_round, "completion_round") ||
        field(a.stats.seed, b.stats.seed, "seed") ||
        field(a.stats.join_round, b.stats.join_round, "join_round") ||
        field(a.stats.leave_round, b.stats.leave_round, "leave_round") ||
        field(a.degree, b.degree, "degree") || field(a.departed, b.departed, "departed")) {
      return ::testing::AssertionFailure() << first.str();
    }
  }
  const StratificationReport& ws = want.strat;
  const StratificationReport& gs = got.strat;
  const Swarm::AvailabilityStats& wa = want.availability;
  const Swarm::AvailabilityStats& ga = got.availability;
  if (differs(ws.partner_rank_correlation, gs.partner_rank_correlation,
              "strat.partner_rank_correlation") ||
      differs(ws.mean_normalized_offset, gs.mean_normalized_offset,
              "strat.mean_normalized_offset") ||
      differs(ws.reciprocated_pairs, gs.reciprocated_pairs, "strat.reciprocated_pairs") ||
      differs(wa.mean, ga.mean, "availability.mean") ||
      differs(wa.min, ga.min, "availability.min") || differs(wa.max, ga.max, "availability.max") ||
      differs(wa.coefficient_of_variation, ga.coefficient_of_variation,
              "availability.coefficient_of_variation") ||
      differs(want.arrivals, got.arrivals, "arrivals") ||
      differs(want.departures, got.departures, "departures") ||
      differs(want.live, got.live, "live peers") ||
      differs(want.completed, got.completed, "completed leechers") ||
      differs(want.failed_announces, got.failed_announces, "faults.failed_announces") ||
      differs(want.announce_retries, got.announce_retries, "faults.announce_retries") ||
      differs(want.connect_failures, got.connect_failures, "faults.connect_failures") ||
      differs(want.nat_rejections, got.nat_rejections, "faults.nat_rejections") ||
      differs(want.lost_lanes, got.lost_lanes, "faults.lost_lanes") ||
      differs(want.degraded, got.degraded, "faults.degraded") ||
      differs(want.draws.size(), got.draws.size(), "draw count")) {
    return ::testing::AssertionFailure() << first.str();
  }
  for (std::size_t i = 0; i < want.draws.size(); ++i) {
    if (differs(want.draws[i], got.draws[i], "draw ", i)) {
      return ::testing::AssertionFailure() << first.str();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace strat::bt
