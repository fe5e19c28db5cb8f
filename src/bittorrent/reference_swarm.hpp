// The retained map-based swarm data plane.
//
// This is the original per-neighbor `unordered_map` implementation of
// the round-based simulator, extended with the same dynamic-overlay
// operations as the slot-recycling rewrite (join/leave/re-announce,
// endgame request discipline). It exists for two jobs:
//
//  1. Differential testing — a fixed-seed single-threaded run of
//     ReferenceSwarm and Swarm must produce bitwise-identical PeerStats
//     and stratification output, churned runs included
//     (tests/bittorrent/test_swarm_invariants, test_swarm_churn).
//  2. Benchmarking — micro_swarm times both planes so the flat
//     layout's speedup at n = 5000+ stays measured, not assumed.
//
// Keep the two implementations' per-round operation and RNG-consumption
// order in lockstep; any intentional behavior change must land in both.
// Choke and transfer randomness is drawn from the same per-peer
// counter-based streams (Rng::stream keyed by run key / external id /
// round) as the flat plane, and the transfer phase runs the same
// two-stage plan-against-snapshot / commit-in-sender-order algorithm
// (serially), so this oracle stays bitwise equal to Swarm at *any*
// SwarmConfig::threads value — the plane accepts the threads knob but
// always runs single-threaded.
// Overlay mutations here go through graph::Graph (grow/add_edge/
// isolate + finalize), whose sorted adjacency matches the flat plane's
// sorted rows, so choke candidate order — and therefore every RNG
// draw — stays aligned. The plane embeds the same PeerTable and applies
// identical add/remove (compaction) sequences, so per-peer loop order —
// which the flat plane derives from table rows — matches too; its own
// containers stay keyed by external id (O(arrivals-ever) memory is fine
// at oracle scale).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bittorrent/choker.hpp"
#include "bittorrent/peer_table.hpp"
#include "bittorrent/piece_picker.hpp"
#include "bittorrent/swarm.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Map-based reference implementation of Swarm (same config/semantics).
class ReferenceSwarm {
 public:
  ReferenceSwarm(const SwarmConfig& config, std::vector<double> upload_kbps, graph::Rng& rng);

  void run_round();
  void run(std::size_t rounds);

  /// Dynamic-overlay operations, mirroring Swarm.
  core::PeerId join(double upload_kbps, const Bitfield& have);
  core::PeerId join(double upload_kbps);
  void leave(core::PeerId p);
  std::size_t reannounce(core::PeerId p);
  /// Externally-driven capacity update, mirroring
  /// Swarm::set_upload_capacity (between rounds only; no-op for
  /// departed peers or an unchanged value).
  void set_upload_capacity(core::PeerId p, double kbps);

  [[nodiscard]] std::size_t rounds_elapsed() const noexcept { return round_; }
  [[nodiscard]] std::size_t peer_count() const noexcept { return stats_.size(); }
  [[nodiscard]] const PeerStats& stats(core::PeerId p) const { return stats_.at(p); }
  [[nodiscard]] bool is_leecher(core::PeerId p) const { return !stats_.at(p).seed; }
  [[nodiscard]] std::size_t live_peer_count() const noexcept { return table_.size(); }
  /// Live external ids in dense row order (mirrors Swarm::live_ids()).
  [[nodiscard]] std::span<const core::PeerId> live_ids() const noexcept { return table_.ids(); }
  [[nodiscard]] std::size_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::size_t departures() const noexcept { return departures_; }
  [[nodiscard]] std::size_t degree(core::PeerId p) const { return overlay_.degree(p); }
  [[nodiscard]] std::size_t completed_leechers() const;
  [[nodiscard]] double leech_download_kbps(core::PeerId p) const;
  [[nodiscard]] StratificationReport stratification() const;
  void reset_stratification() { mutual_rounds_.clear(); }
  [[nodiscard]] bool departed(core::PeerId p) const { return departed_.at(p); }
  [[nodiscard]] Swarm::AvailabilityStats availability_stats() const;
  /// Live fault state, mirroring Swarm::fault_state(). Counters must
  /// match the flat plane bitwise under identical fault specs; the
  /// per-peer vectors here are id-indexed (departed entries inert)
  /// where the flat plane compacts by row.
  [[nodiscard]] const FaultState& fault_state() const noexcept { return faults_; }

 private:
  void choke_step();
  void count_incoming_unchokes();
  void transfer_step();
  /// Two-stage transfer, mirroring Swarm: plan against the phase-start
  /// snapshot into grants_/plans_, then replay in sender order,
  /// validating per (sender, receiver) lane and re-driving stale lanes
  /// live. Run single-threaded here — the point is that the *algorithm*
  /// (snapshot reads, RNG stream per sender, lane validation, repair
  /// rule) is identical, so the parallel flat plane has a serial oracle
  /// for the exact same semantics.
  void plan_transfers(core::PeerId p);
  [[nodiscard]] std::optional<PieceId> plan_pick(const detail::TransferLane& lane, core::PeerId q,
                                                core::PeerId p, graph::Rng& rng);
  void commit_transfers();
  double send_to(core::PeerId p, core::PeerId q, double budget, graph::Rng& rng);
  [[nodiscard]] std::optional<PieceId> pick_for(core::PeerId q, core::PeerId p, graph::Rng& rng);
  /// Same per-sender transfer stream as the flat plane: keyed off the run
  /// key, the sender's external id, and the round.
  [[nodiscard]] graph::Rng transfer_stream(core::PeerId p) const {
    return graph::Rng::stream(choke_key_ ^ kTransferStreamSalt, p, round_);
  }
  /// Same per-sender lane-repair stream as the flat plane.
  [[nodiscard]] graph::Rng rerun_stream(core::PeerId p) const {
    return graph::Rng::stream(choke_key_ ^ kTransferRerunSalt, p, round_);
  }
  [[nodiscard]] double partial_progress(core::PeerId q, PieceId piece) const;
  void complete_piece(core::PeerId p, PieceId piece);
  void depart_peer(core::PeerId p, double when);
  [[nodiscard]] bool wants_from(core::PeerId receiver, core::PeerId sender) const;
  [[nodiscard]] std::size_t target_degree() const;
  std::size_t connect_random_live(core::PeerId p, std::size_t need);
  /// Faulted announce, mirroring Swarm::announce_with_faults (same
  /// shared detail::announce_connect algorithm, same trial stream
  /// keyed by the per-peer announce sequence number).
  std::size_t announce_with_faults(core::PeerId p, std::size_t need);
  /// Serial backoff sweep at the top of run_round, mirroring
  /// Swarm::fault_step over the identical table-row order.
  void fault_step();
  void refresh_ranks() const;

  SwarmConfig config_;
  graph::Rng& rng_;
  /// Run key for the per-peer choke streams — the same single
  /// structural draw Swarm makes at the same construction point.
  std::uint64_t choke_key_ = 0;
  graph::Graph overlay_;
  PiecePicker picker_;
  std::vector<PeerStats> stats_;
  std::vector<Bitfield> have_;
  std::vector<TftChoker> chokers_;
  std::vector<std::vector<core::PeerId>> unchoked_;
  std::vector<std::unordered_map<core::PeerId, double>> received_rate_;
  std::vector<std::unordered_map<core::PeerId, double>> received_now_;
  std::vector<std::unordered_map<core::PeerId, double>> sent_rate_;
  std::vector<std::unordered_map<core::PeerId, double>> sent_now_;
  std::vector<std::unordered_map<PieceId, double>> partial_;
  std::vector<std::unordered_map<core::PeerId, PieceId>> inflight_;
  // Live fault state, id-indexed (this plane never compacts): departed
  // peers' entries simply go inert. Counters match the flat plane.
  FaultState faults_;
  std::vector<std::uint32_t> incoming_unchokes_;
  Bitfield reserved_scratch_;
  std::vector<PieceId> reserved_list_;
  std::vector<PieceId> reserved_partials_;
  // Lazily rebuilt on read, like the flat plane (derived state — no
  // RNG involved, so laziness cannot break lockstep).
  mutable std::vector<std::size_t> bandwidth_rank_;
  mutable bool ranks_dirty_ = false;
  std::vector<bool> departed_;
  // key = (min id << 32) | max id. Entries persist across departures —
  // the map-per-pair analogue of the flat plane's retired records.
  std::unordered_map<std::uint64_t, std::uint32_t> mutual_rounds_;
  // The same dense peer table as the flat plane, fed identical
  // add/remove sequences: row order drives announce sampling and every
  // per-peer loop, so both planes' RNG consumption stays in lockstep.
  PeerTable table_;
  // Sender-order snapshot for transfer_step (mirrors Swarm's).
  std::vector<core::PeerId> order_scratch_;
  // Two-stage transfer scratch (mirrors Swarm's per-chunk RoundScratch;
  // one set suffices since this plane plans serially).
  std::vector<core::PeerId> hungry_scratch_;
  std::vector<core::PeerId> next_hungry_scratch_;
  std::vector<detail::TransferLane> lanes_;
  std::vector<detail::TransferGrant> grants_;
  std::vector<detail::SenderPlan> plans_;
  std::size_t round_ = 0;
  std::size_t leechers_ = 0;  // leechers ever (initial + arrivals)
  std::size_t arrivals_ = 0;
  std::size_t departures_ = 0;
};

}  // namespace strat::bt
