// Deterministic fault injection for both swarm data planes.
//
// The simulator's baseline models a perfect protocol world: every
// announce reaches the tracker, every connect sticks, every planned
// transfer lane commits unless churn stole it. Real deployments are
// messier — trackers go down and clients retry on capped exponential
// backoff (running degraded with stale neighbor lists in between),
// TCP connects to advertised peers fail, a large NAT-ed fraction
// silently rejects inbound dials, and in-flight transfers time out.
// `FaultSpec` configures those four degradations; `FaultState` is the
// live per-peer fault state (NAT flags, backoff deadlines, retry
// counters, per-announce draw cursors) plus lifetime counters.
//
// Determinism contract (same rules as choke/transfer randomness):
// every fault draw comes from a counter-based stream keyed off the
// run key, a salt naming the fault class, and stable coordinates
// (external peer id, round, or per-peer announce sequence number) —
// never from the shared sequential generator inside a parallel
// region. Faulted runs are therefore bitwise invariant to
// `SwarmConfig::threads` and TrackerSim shard count, and
// ReferenceSwarm applies the identical algorithm serially so the
// differential suites extend to faulted runs unchanged.
//
// Zero-cost-when-off: with a default `FaultSpec` no fault stream is
// ever constructed and no fault branch draws randomness, so disabled
// runs are bitwise identical to the pre-fault simulator.
//
// FaultState is live run state and serializes as its own tagged
// snapshot section (snapshot.cpp: fault_state_fields, its one field
// list) under the strat-lint R4 contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace strat::bt {

/// Salt for the per-peer NAT membership draw: stream(key ^ salt, id, 0).
inline constexpr std::uint64_t kFaultNatSalt = 0x6e61742d666c6167ull;  // "nat-flag"
/// Salt for per-announce connect-failure trials:
/// stream(key ^ salt, id, announce_seq).
inline constexpr std::uint64_t kFaultConnectSalt = 0x636f6e6e656374ull;  // "connect"
/// Salt for per-sender lane-loss draws: stream(key ^ salt, id, round).
inline constexpr std::uint64_t kFaultLaneSalt = 0x6c616e652d6c6f73ull;  // "lane-los"

/// Fault configuration. All knobs default to "off"; a
/// default-constructed spec reproduces the fault-free simulator
/// bit-for-bit.
struct FaultSpec {
  /// Tracker outage schedule: the tracker is down for rounds r with
  /// ((r + outage_phase) % outage_period) < outage_duration. Both
  /// period and duration must be nonzero for outages to occur.
  std::size_t outage_period = 0;
  std::size_t outage_duration = 0;
  std::size_t outage_phase = 0;
  /// Probability a single connect attempt to a sampled neighbor fails.
  double connect_failure_prob = 0.0;
  /// Connect attempts per candidate before the dialer gives up on it.
  std::size_t connect_attempts = 3;
  /// Fraction of peers that are NAT-ed: they dial out normally but
  /// reject every inbound connect (announce sampling skips them).
  double nat_fraction = 0.0;
  /// Probability a planned transfer lane is lost at commit: its bytes
  /// are forfeited this round and the sender's budget re-enters the
  /// normal redistribute path next round.
  double lane_loss_prob = 0.0;
  /// Announce retry backoff: delay after the k-th consecutive failure
  /// is min(backoff_base << (k-1), backoff_cap) rounds.
  std::size_t backoff_base = 1;
  std::size_t backoff_cap = 64;

  [[nodiscard]] bool outages() const noexcept {
    return outage_period > 0 && outage_duration > 0;
  }
  [[nodiscard]] bool flaky_connects() const noexcept {
    return nat_fraction > 0.0 || connect_failure_prob > 0.0;
  }
  [[nodiscard]] bool lossy_lanes() const noexcept { return lane_loss_prob > 0.0; }
  [[nodiscard]] bool enabled() const noexcept {
    return outages() || flaky_connects() || lossy_lanes();
  }
  /// Pure function of the round — no RNG, no cursor — so every peer,
  /// shard, and plane agrees on the tracker's state for free.
  [[nodiscard]] bool tracker_down(std::size_t round) const noexcept {
    return outages() && ((round + outage_phase) % outage_period) < outage_duration;
  }
  /// Backoff delay (rounds) after the `failures`-th consecutive failed
  /// announce (1-based). Overflow-safe capped doubling.
  [[nodiscard]] std::size_t retry_delay(std::size_t failures) const noexcept {
    std::size_t d = backoff_base;
    for (std::size_t i = 1; i < failures && d < backoff_cap; ++i) d <<= 1;
    return d < backoff_cap ? d : backoff_cap;
  }

  bool operator==(const FaultSpec&) const = default;
};

/// Live fault state. The flat plane indexes the per-peer vectors by
/// table row (compacted in lockstep with every other row container);
/// ReferenceSwarm indexes them by external id (departed entries go
/// inert, like its other id-keyed state). Counters are lifetime
/// totals, serialized with the rest.
class FaultState {
 public:
  /// Sentinel for retry_round_: no announce retry pending.
  static constexpr std::uint32_t kNoRetry = 0xFFFFFFFFu;

  std::vector<std::uint8_t> nat_;           // rejects inbound connects
  std::vector<std::uint32_t> retry_round_;  // next announce retry, or kNoRetry
  std::vector<std::uint32_t> retry_count_;  // consecutive failed announces
  std::vector<std::uint32_t> announce_seq_; // connect-trial stream cursor
  std::uint64_t failed_announces_ = 0;
  std::uint64_t announce_retries_ = 0;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t nat_rejections_ = 0;
  std::uint64_t lost_lanes_ = 0;

  void add_peer(bool nat);
  /// Swap-with-last row compaction, mirroring the flat plane's
  /// depart_peer: move `last` into `row`, then drop the tail.
  void compact(std::size_t row, std::size_t last);
  [[nodiscard]] std::size_t size() const noexcept { return nat_.size(); }

  [[nodiscard]] bool rejects_inbound(std::size_t i) const { return nat_[i] != 0; }
  [[nodiscard]] bool retry_pending(std::size_t i) const {
    return retry_round_[i] != kNoRetry;
  }
  /// Records a failed announce and schedules the next retry.
  void fail_announce(std::size_t i, std::size_t round, const FaultSpec& spec);
  /// Announce reached the tracker: clear any pending retry schedule.
  void reset_retry(std::size_t i);
  /// Peers currently running degraded (a retry is pending).
  [[nodiscard]] std::size_t degraded_count() const noexcept;
};

}  // namespace strat::bt
