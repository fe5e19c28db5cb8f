// Round-based BitTorrent swarm simulator (§6 validation substrate).
//
// Simulates a swarm at the choke-interval granularity (10 s rounds):
// every round each peer runs its TFT choker, then upload capacity flows
// from unchokers to interested unchokees, with bytes applied to pieces
// chosen rarest-first. The simulator exists to check, at the protocol
// level, the matching-model predictions the paper derives analytically:
// TFT exchanges stratify by bandwidth, and per-peer download rates
// follow the Figure 11 efficiency curve — including under the §3
// churn regime (Figure 3), where peers join and leave mid-run.
//
// In post-flash-crowd mode each leecher starts with a uniformly random
// subset of pieces (the paper's assumption that rarest-first has
// already equalized block repartition); flash-crowd mode starts all
// leechers empty with `seeds` complete peers.
//
// Peer lifecycle: external `core::PeerId`s are arrival-ordered and
// stable forever — they are what join()/leave()/stats() and every
// report speak. Internally a PeerTable maps them to *dense rows*, and
// all per-peer state (stats, bitfields, chokers, adjacency rows,
// partial-piece progress) is row-indexed; a departure archives the
// peer's final PeerStats into a retired record and compacts its row
// away (swap-with-last, generation-stamped). Per-peer loops therefore
// cost O(live population) and per-peer memory O(live + retired
// records) no matter how many peers ever churned through — the regime
// the paper's Figure 3 replacement process generates. Every departure
// is archived (~72 bytes each), so stats() and stratification() answer
// for every peer that ever joined.
//
// Data plane: a *dynamic* overlay over flat edge-slot arrays with slot
// recycling. Every directed (peer, neighbor) pair owns one slot in a
// preallocated pool; all per-neighbor state (smoothed rate estimates,
// in-flight piece locks, mutual-unchoke counters) is indexed by slot,
// so a round stays O(edges) with no hashing on the hot path. Round
// scratch keeps its capacity, so a warm round allocates little: mostly
// where a vector still grows in the transfer commit, such as a
// receiver's partial-piece list, plus a few blocks per parallel
// dispatch. Per-peer adjacency is a pair of parallel,
// neighbor-sorted vectors (neighbor id, slot id) held on the owner's
// row; entries name *external* ids (stable across row compaction),
// resolved to rows via the table's O(1) map on use:
//
//  - leave()/completion departures release both directed slots of each
//    incident edge onto a free list (state zeroed, generation stamp
//    bumped so any stale reference is detectable) and flush the pair's
//    mutual-unchoke history into retired records, so recycled slots
//    never leak a previous pair's counters into StratificationReport;
//  - join() claims recycled slots for a fresh leecher's announce
//    (uniform picks from the live population, deterministic from the
//    swarm RNG) and registers its partial bitfield with the picker;
//  - reannounce() tops a peer's degree back up toward neighbor_degree
//    from the live non-neighbor population — the tracker re-announce
//    that keeps the overlay connected as departures thin it out.
//
// Determinism model (two RNG tiers):
//
//  - *Per-peer streams.* Every choke-phase draw (tie-break shuffle,
//    optimistic pick) comes from a counter-based generator keyed by
//    (run key, external peer id, round) — Rng::stream — so a peer's
//    choke randomness is a pure function of who it is and which round
//    it is, independent of row iteration order and thread count. The
//    run key is one draw from the structural stream at construction.
//    The transfer phase draws the same way: sender p's rarest-first
//    tie-breaks come from Rng::stream(choke_key_ ^ kTransferStreamSalt,
//    p, round), so the phase consumes no structural draws at all.
//  - *Sequential structural stream.* Everything that mutates shared
//    state in a defined order — overlay construction, tracker
//    announces, churn-driver and scenario sampling — keeps consuming
//    the single `rng_` passed in, in program order.
//
// That split is what lets SwarmConfig::threads fan the intra-round
// phases out over sim::parallel_for_chunks: choke score/select
// (per-row reads of an effectively immutable rate/bitfield snapshot,
// per-row writes of the unchoke sets), mutual-unchoke recording (each
// pair counted by integer increment on a slot its lower endpoint's row
// owns), transfer compute (below) and the rate fold (slot-pool map).
// The endgame incoming-unchoke count, run in endgame mode only, stays
// one serial loop. Rows are capacity-sorted, so per-row cost is
// skewed; each phase splits its range into several contiguous chunks
// per worker, claimed on demand. The transfer phase — where mid-round
// completion departures mutate shared state — splits into that
// parallel *compute* stage (every sender plans its whole round against
// the immutable phase-start snapshot, writing piece grants into
// per-chunk plan buffers) and a serial *commit* stage that validates
// and applies the plans in sender order, re-running a sender serially
// when an earlier commit made its plan stale (receiver departed, piece
// completed, or the assumed partial progress moved). Results are
// bitwise identical for any `threads` value and still bitwise equal to
// the single-threaded ReferenceSwarm, which runs the identical
// two-stage algorithm serially.
//
// See reference_swarm.hpp for the retained map-based implementation:
// both planes implement the same operations in strict FP + RNG
// lockstep — including identical PeerTable compaction decisions and
// the same per-peer choke streams, so their row iteration orders and
// draws match — and are differential-tested for bitwise equality,
// churned and threaded runs included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/autosave.hpp"
#include "bittorrent/choker.hpp"
#include "bittorrent/faults.hpp"
#include "bittorrent/peer_table.hpp"
#include "bittorrent/piece_picker.hpp"
#include "core/types.hpp"
#include "graph/rng.hpp"

namespace strat::bt {

/// Swarm parameters.
struct SwarmConfig {
  std::size_t num_peers = 200;    // leechers (seeds are extra)
  std::size_t seeds = 1;          // initial complete peers
  std::size_t num_pieces = 256;
  double piece_kb = 256.0;        // KB per piece
  std::size_t tft_slots = 3;      // regular unchoke slots
  std::size_t optimistic_rounds = 3;
  double round_seconds = 10.0;
  double neighbor_degree = 20.0;  // tracker-provided mean degree
  bool post_flashcrowd = true;
  double initial_completion = 0.5;  // post-flash-crowd starting fraction
  bool stay_as_seed = true;         // finished leechers keep uploading
  /// Upload capacity of the initial seeds; 0 (or any non-positive
  /// value) = median leecher capacity. Must be finite.
  double seed_upload_kbps = 0.0;
  /// Exponential smoothing of the per-neighbor rate estimate the choker
  /// ranks on: score = alpha * last_round + (1 - alpha) * previous.
  /// 1.0 reproduces the raw last-interval estimate; the reference client
  /// effectively averages over ~2 intervals (alpha ~ 0.5).
  double rate_smoothing = 0.5;
  /// Per-leecher regular unchoke slots. Empty = every leecher uses
  /// `tft_slots`; otherwise one entry per *initial* leecher (seeds and
  /// join() arrivals always use `tft_slots`). Enables upload-slot
  /// heterogeneity scenarios.
  std::vector<std::size_t> tft_slots_per_peer;
  /// Piece-level endgame mode. Off (default): a sender may target any
  /// piece the receiver lacks, so duplicate in-flight targets are
  /// always possible. On: outside the endgame phase a receiver hands
  /// each sender a distinct missing piece (no duplicate in-flight
  /// requests — a sender with only already-reserved pieces to offer
  /// idles and its budget is redistributed); once the receiver's
  /// missing set is smaller than the number of peers currently
  /// unchoking it, the restriction lifts (duplicates allowed) and the
  /// first completion cancels every other in-flight request for that
  /// piece (stale targets are re-picked on the sender's next transfer).
  bool endgame = false;
  /// Worker threads for the intra-round parallel phases (choke
  /// score/select, mutual-unchoke recording, transfer compute, rate
  /// folding); the endgame unchoke count and the transfer commit stay
  /// serial. Results are bitwise identical at any value: choke and
  /// transfer randomness come from per-peer counter-based streams, so
  /// neither row order nor thread count can reorder draws. 1 = serial
  /// (default); 0 = one worker per hardware thread. ReferenceSwarm
  /// accepts but ignores it (the oracle always runs serial — and still
  /// matches bitwise).
  std::size_t threads = 1;
  /// Deterministic fault injection (faults.hpp): tracker outage
  /// windows with capped-exponential announce backoff, per-connect
  /// failure probability with bounded retry, NAT-ed peers rejecting
  /// inbound connects, and per-lane transfer loss. All knobs default
  /// to off, and a disabled spec draws no randomness — faults-off runs
  /// are bitwise identical to the pre-fault simulator. Fault draws use
  /// counter-based streams, so faulted results stay bitwise invariant
  /// to `threads` (and TrackerSim shard count).
  FaultSpec faults;

  /// Field-by-field; doubles compare by value, so a NaN field never
  /// compares equal.
  bool operator==(const SwarmConfig&) const = default;
};

/// Per-peer accounting, exposed for metrics.
struct PeerStats {
  double upload_kbps = 0.0;     // capacity
  double uploaded_kb = 0.0;     // total sent
  double downloaded_kb = 0.0;   // total received
  std::size_t pieces = 0;       // currently held
  double completion_round = -1.0;  // first round with all pieces (-1: not yet)
  bool seed = false;            // started as a seed
  double join_round = 0.0;      // when the peer entered the swarm
  double leave_round = -1.0;    // when it departed (-1: still present)
};

/// Swarm-level stratification summary, accumulated over every elapsed
/// round while both endpoints were present and still downloading.
struct StratificationReport {
  /// Spearman correlation between peers' bandwidth rank and the mean
  /// bandwidth rank of their *reciprocated* TFT partners. 1 = perfect
  /// stratification.
  double partner_rank_correlation = 0.0;
  /// Mean absolute rank offset between reciprocated TFT partners,
  /// normalized by the number of leechers (0..1), weighted by how many
  /// rounds each pair exchanged.
  double mean_normalized_offset = 0.0;
  /// Number of distinct reciprocated (mutual-unchoke) TFT pairs seen.
  std::size_t reciprocated_pairs = 0;
};

/// Sentinel "no piece in flight on this edge" value.
inline constexpr PieceId kNoPiece = std::numeric_limits<PieceId>::max();

/// Salt folded into the run key to derive the per-sender transfer
/// streams: sender p's round-r transfer randomness is
/// Rng::stream(choke_key ^ kTransferStreamSalt, p, r) in both data
/// planes. Deriving from the existing key means the transfer phase
/// costs no extra construction draw and stays independent of the choke
/// streams (the stream mixer decorrelates any key pair).
inline constexpr std::uint64_t kTransferStreamSalt = 0x7472616e73666572ull;  // "transfer"

/// Salt for the per-sender *repair* streams the transfer commit uses
/// when a planned lane went stale: a distinct stream (not a replay of
/// the planning stream) so repair picks are uncorrelated with the very
/// picks that conflicted.
inline constexpr std::uint64_t kTransferRerunSalt = 0x7265706c616eull;  // "replan"

/// Upload budget (KB) below which a round's redistribution loop stops.
/// Shared by Swarm and ReferenceSwarm: both transfer loops must agree
/// on which receivers count as satiated or the differential tests
/// diverge.
inline constexpr double kBudgetEpsilon = 1e-9;

namespace detail {

/// Splits `budget` KB evenly across the hungry receivers, then
/// redistributes whatever a finished receiver left on the table among
/// the ones still able to take data. `send(item, share)` returns the KB
/// actually transferred. One definition shared by both data planes so
/// their satiation arithmetic cannot drift (see kBudgetEpsilon).
template <typename Item, typename SendFn>
void redistribute_upload(double budget, std::vector<Item>& hungry, std::vector<Item>& next_hungry,
                         SendFn&& send) {
  double leftover = budget;
  while (leftover > kBudgetEpsilon && !hungry.empty()) {
    const double share = leftover / static_cast<double>(hungry.size());
    leftover = 0.0;
    next_hungry.clear();
    for (const Item& item : hungry) {
      const double spent = send(item, share);
      // A receiver that absorbed its whole share can take more; one
      // that ran out of pickable pieces is dropped from this round.
      if (spent >= share - kBudgetEpsilon) next_hungry.push_back(item);
      leftover += share - spent;
    }
    hungry.swap(next_hungry);
  }
}

/// One planned sender→receiver contribution from the transfer compute
/// stage, recorded against the immutable phase-start snapshot.
/// `base_kb` is the snapshot partial progress the plan assumed — the
/// staleness witness the commit validates against live state (an exact
/// double compare: contributions are strictly positive and completions
/// clear the entry, so any interleaved writer moves it). `final_kb` is
/// the progress after this sender's chunks, accumulated add-by-add in
/// the same order the serial loop would have used, and committed
/// verbatim so the stored double is bit-identical. `kb` is the total
/// contribution (the stat / per-slot rate delta). The slot fields are
/// the flat plane's; the reference plane leaves them zero.
struct TransferGrant {
  core::PeerId receiver = 0;
  PieceId piece = 0;
  std::uint32_t lane = 0;  // ordinal of the receiver's lane within the plan
  double kb = 0.0;
  double base_kb = 0.0;
  double final_kb = 0.0;
  std::size_t slot_pq = 0;  // sender-owned slot toward receiver (now_out_)
  std::size_t slot_qp = 0;  // receiver-owned slot toward sender (now_in_, inflight_)
  bool completes = false;
};

/// Half-open range of one sender's grants in a chunk's grant buffer,
/// in planning order. Plans with zero grants are not recorded.
/// `lane_count` bounds the grant lane ordinals, so the commit can
/// index its per-lane table directly instead of searching by receiver.
struct SenderPlan {
  core::PeerId sender = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t lane_count = 0;
};

/// Per-receiver lane state while planning one sender's round: the
/// current target piece (seeded from the snapshot in-flight state),
/// its locally accumulated progress, the open grant, and the pieces
/// this lane completed locally — excluded from later picks and have
/// tests because the snapshot bitfields never change during compute.
struct TransferLane {
  core::PeerId receiver = 0;
  std::size_t row = 0;       // plane-defined receiver index (flat: dense row)
  std::size_t slot_pq = 0;   // flat plane only
  std::size_t slot_qp = 0;   // flat plane only
  std::uint32_t ordinal = 0;  // index of this lane within its sender's plan
  PieceId target = kNoPiece;
  double progress = -1.0;    // local KB of `target`; -1 = not yet based
  std::int32_t grant = -1;   // open grant index; -1 = none
  std::vector<PieceId> completed;

  void reset(core::PeerId q, std::size_t row_ix, std::size_t spq, std::size_t sqp,
             PieceId snapshot_target) {
    receiver = q;
    row = row_ix;
    slot_pq = spq;
    slot_qp = sqp;
    target = snapshot_target;
    progress = -1.0;
    grant = -1;
    completed.clear();
  }
  [[nodiscard]] bool has_completed(PieceId t) const {
    return std::find(completed.begin(), completed.end(), t) != completed.end();
  }
};

/// The send-to-one-receiver loop of the transfer compute stage — one
/// definition shared by both data planes so the budget/satiation and
/// piece-progress arithmetic cannot drift (the transfer analogue of
/// redistribute_upload). Runs entirely against phase-start state: the
/// plane supplies `sender_has`/`receiver_has` (snapshot bitfield
/// tests), `snapshot_progress` (snapshot partial KB of a piece) and
/// `pick` (rarest-first from the sender's own counter stream,
/// excluding the lane's local completions). Grants append to `grants`;
/// a piece reaching piece_kb is recorded on the lane so later picks
/// and target checks for this receiver treat it as held. Returns the
/// KB spent of `share`.
template <typename SenderHasFn, typename ReceiverHasFn, typename ProgressFn, typename PickFn>
double plan_lane_send(double piece_kb, TransferLane& lane, std::vector<TransferGrant>& grants,
                      double share, SenderHasFn&& sender_has, ReceiverHasFn&& receiver_has,
                      ProgressFn&& snapshot_progress, PickFn&& pick) {
  double remaining = share;
  while (remaining > 0.0) {
    PieceId target = lane.target;
    const bool usable = target != kNoPiece && !receiver_has(target) &&
                        !lane.has_completed(target) && sender_has(target);
    if (!usable) {
      const std::optional<PieceId> picked = pick(lane);
      if (!picked) break;
      target = *picked;
      lane.target = target;
      lane.progress = snapshot_progress(target);
      lane.grant = -1;
    } else if (lane.progress < 0.0) {
      // First touch of the carried-over in-flight target: base it on
      // the snapshot partial progress (never >= the completion
      // threshold — the serial loop completes pieces the instant they
      // cross it, so stored partials sit strictly below).
      lane.progress = snapshot_progress(target);
    }
    if (lane.grant < 0) {
      lane.grant = static_cast<std::int32_t>(grants.size());
      TransferGrant g;
      g.receiver = lane.receiver;
      g.piece = target;
      g.lane = lane.ordinal;
      g.base_kb = lane.progress;
      g.final_kb = lane.progress;
      g.slot_pq = lane.slot_pq;
      g.slot_qp = lane.slot_qp;
      grants.push_back(g);
    }
    TransferGrant& g = grants[static_cast<std::size_t>(lane.grant)];
    const double need = piece_kb - lane.progress;
    const double chunk = std::min(need, remaining);
    lane.progress += chunk;
    remaining -= chunk;
    g.kb += chunk;
    g.final_kb = lane.progress;
    if (lane.progress >= piece_kb - 1e-9) {
      g.completes = true;
      lane.completed.push_back(target);
      lane.target = kNoPiece;
      lane.progress = -1.0;
      lane.grant = -1;
    }
  }
  return share - remaining;
}

/// Draws up to `k` entries uniformly without replacement from
/// `candidates` (which is consumed: the active range is permuted in
/// place). Returned in draw order. Shared by both data planes so the
/// tracker announce/re-announce RNG consumption stays in lockstep.
inline std::vector<core::PeerId> sample_without_replacement(std::vector<core::PeerId>& candidates,
                                                            std::size_t k, graph::Rng& rng) {
  k = std::min(k, candidates.size());
  std::vector<core::PeerId> out;
  out.reserve(k);
  std::size_t live = candidates.size();
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng.below(live));
    out.push_back(candidates[j]);
    candidates[j] = candidates[--live];
  }
  return out;
}

/// The tracker announce: connects `p` to up to `need` distinct live
/// non-neighbors chosen uniformly. Rejection-samples the dense live
/// table (O(need) against a large population), falling back to an
/// exact candidate scan — over the *live table*, never the
/// arrivals-ever id space — when the population is nearly exhausted.
/// Connect-level faults enter through two hooks: `rejects_inbound(q)`
/// models a NAT-ed candidate (the dial is refused before any connect
/// trial draws), `connect_ok(q)` runs the bounded connect-retry trials
/// and reports whether the connection stuck; a fault-free announce
/// passes hooks that return false and true. Fault draws come from the
/// caller's counter-based trial stream inside `connect_ok`, so the
/// structural draw sequence from `rng` depends only on the candidates
/// visited. The fallback exact scan excludes NAT-ed candidates before
/// sampling (the dialer can never hold them), while a sampled
/// candidate whose connect trials all fail is simply lost — the peer
/// runs below target degree until a later re-announce tops it up.
/// Parameterized on the plane's edge test and connect primitive — one
/// definition shared by both data planes so the accept/reject RNG draw
/// sequence cannot drift. Returns the connections made.
template <typename HasEdgeFn, typename RejectsFn, typename TrialFn, typename ConnectFn>
std::size_t announce_connect(std::span<const core::PeerId> live_ids, core::PeerId p,
                             std::size_t need, graph::Rng& rng, HasEdgeFn&& has_edge,
                             RejectsFn&& rejects_inbound, TrialFn&& connect_ok,
                             ConnectFn&& connect) {
  std::size_t made = 0;
  std::size_t attempts = 0;
  const std::size_t cap = 8 * need + 64;
  while (made < need && attempts < cap && live_ids.size() > 1) {
    ++attempts;
    const core::PeerId q = live_ids[static_cast<std::size_t>(rng.below(live_ids.size()))];
    if (q == p || has_edge(q)) continue;
    if (rejects_inbound(q)) continue;
    if (!connect_ok(q)) continue;
    connect(q);
    ++made;
  }
  if (made < need) {
    std::vector<core::PeerId> candidates;
    candidates.reserve(live_ids.size());
    for (const core::PeerId q : live_ids) {
      if (q == p || has_edge(q) || rejects_inbound(q)) continue;
      candidates.push_back(q);
    }
    const auto chosen = sample_without_replacement(candidates, need - made, rng);
    for (const core::PeerId q : chosen) {
      if (!connect_ok(q)) continue;
      connect(q);
      ++made;
    }
  }
  return made;
}

/// The capacity rule every entry point of both data planes applies
/// (constructor entries, join(), set_upload_capacity()): an upload
/// capacity must be finite and positive. Only the initial population
/// may also hold capacity-less (0 kbps) leechers, which `allow_zero`
/// admits. A NaN would break the strict weak ordering
/// rebuild_bandwidth_ranks_by() sorts by, which is undefined behaviour;
/// +inf would give one peer an unbounded upload budget. Throws
/// std::invalid_argument prefixed with `where`.
void require_capacity(double kbps, const char* where, bool allow_zero = false);

/// The SwarmConfig rules every entry point applies: the constructors of
/// both data planes and the snapshot loader, which checks a stored
/// config before it sizes anything from it. Each range check is written
/// so that NaN fails it. Throws std::invalid_argument prefixed with
/// `where`.
void validate_config(const SwarmConfig& cfg, const char* where);

/// Recomputes leecher bandwidth ranks into `rank`, indexed by external
/// peer id over [0, peer_count) with `stats_of(id)` supplying each
/// peer's record: leechers sorted by (capacity desc, id asc) get dense
/// ranks, seeds stay 0 and are never read. Returns the leecher count.
/// Shared by both data planes: stratification output is
/// bitwise-compared between them, and the accessor indirection lets
/// the flat plane serve departed peers from its retired archive.
template <typename StatsFn>
std::size_t rebuild_bandwidth_ranks_by(std::size_t peer_count, StatsFn&& stats_of,
                                       std::vector<std::size_t>& rank) {
  std::vector<core::PeerId> order;
  order.reserve(peer_count);
  for (std::size_t p = 0; p < peer_count; ++p) {
    if (!stats_of(static_cast<core::PeerId>(p)).seed) {
      order.push_back(static_cast<core::PeerId>(p));
    }
  }
  std::sort(order.begin(), order.end(), [&](core::PeerId a, core::PeerId b) {
    const double ca = stats_of(a).upload_kbps;
    const double cb = stats_of(b).upload_kbps;
    if (ca != cb) return ca > cb;
    return a < b;
  });
  rank.assign(peer_count, 0);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return order.size();
}

/// Convenience overload for a plane that keeps PeerStats densely
/// indexed by external id (the reference plane).
inline std::size_t rebuild_bandwidth_ranks(const std::vector<PeerStats>& stats,
                                           std::vector<std::size_t>& rank) {
  return rebuild_bandwidth_ranks_by(
      stats.size(), [&](core::PeerId p) -> const PeerStats& { return stats[p]; }, rank);
}

}  // namespace detail

/// The simulator.
namespace snapshot_detail {
class Reader;  // snapshot.hpp — resume() loads through it
}  // namespace snapshot_detail

class Swarm {
 public:
  using Row = PeerTable::Row;

  /// `upload_kbps` has one entry per leecher, each finite and
  /// non-negative (detail::require_capacity; 0 is a leecher that never
  /// uploads); seeds get seed_upload_kbps. Throws std::invalid_argument
  /// on inconsistent inputs.
  Swarm(const SwarmConfig& config, std::vector<double> upload_kbps, graph::Rng& rng);

  /// Advances one choke interval.
  void run_round();

  /// Advances `rounds` intervals.
  void run(std::size_t rounds);

  // --- checkpoint/restore ---------------------------------------------

  /// Appends the complete run state — config, peer table, per-row hot
  /// state, edge-slot pool, retired records, choker and RNG state (the
  /// swarm's structural generator included), round/churn counters — to
  /// `out` as one versioned, checksummed binary snapshot (see
  /// snapshot.hpp for the format constants and README "Snapshot format
  /// and resume contract" for the layout). The buffer is reserved once,
  /// at the exact size. Call between rounds only: run_round() is
  /// atomic, so any point outside it is a valid checkpoint. resume()
  /// continues bitwise-identically to the uninterrupted run at any
  /// `threads` setting. Not serialized: phase_profile() wall-clock
  /// accumulators and per-chunk scratch (reset on resume), neither of
  /// which feeds back into simulation state. The serializer behind
  /// every save: save_to_string(), autosave and TrackerSim::save().
  void save(std::string& out) const;

  /// Reconstructs a swarm from the next save()d section of `r` (a
  /// snapshot_detail::Reader over bytes in memory or over a seekable
  /// stream; ResumedSwarm and resume_from_string() wrap the in-memory
  /// case). `rng` becomes the swarm's structural generator and is
  /// *overwritten* with the checkpointed state, so subsequent draws —
  /// the swarm's and any lockstep ChurnDriver's — continue the
  /// uninterrupted sequence. `config`, when given, must equal the
  /// checkpointed config in every simulation-semantic field, but
  /// `threads` may differ — results are bitwise identical at any
  /// fan-out, so a snapshot taken on a laptop resumes unchanged on a
  /// 64-core box. Throws SnapshotError on bad magic, version mismatch,
  /// truncation, checksum failure, a config override that differs in
  /// any other field, or any structural inconsistency (every index is
  /// validated before use; a corrupt snapshot can never yield a swarm
  /// with broken invariants). The one loader behind every resume path;
  /// defined in snapshot.cpp next to save().
  [[nodiscard]] static Swarm resume(snapshot_detail::Reader& r, graph::Rng& rng,
                                    const SwarmConfig* config = nullptr);

  /// Arms periodic crash-safe checkpoints: every `every` rounds,
  /// run_round() serializes the swarm through save() and publishes it
  /// under `dir` via temp-file + atomic rename, keeping the newest
  /// `keep` generations (see autosave.hpp; recover_latest_swarm() in
  /// snapshot.hpp resumes from the newest valid one). Host-side
  /// policy, not simulation state: snapshots don't carry it, and it
  /// never affects results.
  void autosave_every(std::size_t every, const std::filesystem::path& dir, std::size_t keep = 3);

  // --- dynamic overlay ------------------------------------------------

  /// Adds a fresh leecher holding `have` (a possibly partial bitfield;
  /// availability counters pick it up) and announces it to the tracker:
  /// it connects to up to llround(neighbor_degree) live peers chosen
  /// uniformly from the current population, deterministic from the
  /// swarm RNG. Returns the new peer id. Edge slots are recycled from
  /// the free list before the pool grows, and the peer claims a dense
  /// table row. Throws std::invalid_argument for a bitfield of the wrong
  /// size or a non-finite or non-positive capacity.
  core::PeerId join(double upload_kbps, const Bitfield& have);

  /// join() with an empty bitfield (a flash-crowd arrival).
  core::PeerId join(double upload_kbps);

  /// Voluntary (possibly seedless) departure: drops the peer's piece
  /// copies from availability, discards partial/in-flight state,
  /// releases every incident edge slot to the free list, flushes the
  /// affected pairs' mutual-unchoke history, archives the final
  /// PeerStats and compacts the peer's table row away. No-op if
  /// already departed.
  void leave(core::PeerId p);

  /// Tracker re-announce: tops p's degree back up toward
  /// llround(neighbor_degree) with uniform picks from the live
  /// non-neighbor population (deterministic from the swarm RNG).
  /// Returns the number of fresh connections. No-op for departed peers.
  std::size_t reannounce(core::PeerId p);

  /// Externally-driven capacity update: replaces p's upload capacity
  /// before the next round — the hook TrackerSim's cross-swarm
  /// capacity splitting uses when a multi-torrent peer's membership
  /// count changes. Call between rounds only, like save(): capacity
  /// feeds the per-round upload budget and the bandwidth ranks, both
  /// of which are round-scoped. No-op when the capacity is unchanged
  /// (ranks stay clean) or the peer has departed (its archived
  /// capacity stays what it had while present). Throws
  /// std::out_of_range for unknown ids and std::invalid_argument for
  /// non-finite or non-positive capacities.
  void set_upload_capacity(core::PeerId p, double kbps);

  // --- queries --------------------------------------------------------

  /// The construction-time configuration (num_peers reflects the
  /// initial population, not arrivals). Callers that rebuild companion
  /// state after resume() — e.g. TrackerSim re-deriving a ChurnDriver
  /// per restored swarm — read it from here.
  [[nodiscard]] const SwarmConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::size_t rounds_elapsed() const noexcept { return round_; }

  /// Peers ever (initial population + seeds + arrivals) — the external
  /// id space. Backing per-peer storage is O(live), not O(this).
  [[nodiscard]] std::size_t peer_count() const noexcept { return table_.id_space(); }

  /// Final (departed) or current (live) accounting for p. Throws
  /// std::out_of_range for unknown ids.
  [[nodiscard]] const PeerStats& stats(core::PeerId p) const;

  /// True iff p was never a seed (initial leecher or join() arrival).
  [[nodiscard]] bool is_leecher(core::PeerId p) const { return !stats(p).seed; }

  /// Peers currently present (never departed).
  [[nodiscard]] std::size_t live_peer_count() const noexcept { return table_.size(); }

  /// Live external ids in dense row order (the announce sampling
  /// order). Valid until the next join/leave.
  [[nodiscard]] std::span<const core::PeerId> live_ids() const noexcept { return table_.ids(); }

  /// join() arrivals so far (excludes the initial population).
  [[nodiscard]] std::size_t arrivals() const noexcept { return arrivals_; }

  /// Departures so far (voluntary and completion-driven).
  [[nodiscard]] std::size_t departures() const noexcept { return departures_; }

  /// Leechers that hold every piece (live or departed-complete).
  [[nodiscard]] std::size_t completed_leechers() const;

  /// Mean download rate (kbps) of leecher p over its elapsed presence.
  [[nodiscard]] double mean_download_kbps(core::PeerId p) const;

  /// Mean download rate of p over its *leeching* phase only (from join
  /// until it completed or departed, or until now). The per-peer QoS
  /// figure predicted by the §6 efficiency model.
  [[nodiscard]] double leech_download_kbps(core::PeerId p) const;

  /// Stratification metrics accumulated since construction (or the
  /// last reset_stratification()), retired pairs included. Ranks and
  /// the offset normalization cover every leecher that ever joined.
  [[nodiscard]] StratificationReport stratification() const;

  /// Clears the accumulated mutual-unchoke history, so stratification()
  /// reflects a fresh measurement window (e.g. after a burn-in phase).
  void reset_stratification();

  /// Reciprocated TFT pairs of the last round (mutual unchokes between
  /// two leechers), as (better peer, worse peer) by bandwidth.
  [[nodiscard]] std::vector<std::pair<core::PeerId, core::PeerId>> reciprocated_pairs() const;

  /// True iff p left the swarm (leave(), or completion with
  /// stay_as_seed == false). Throws std::out_of_range for unknown ids.
  [[nodiscard]] bool departed(core::PeerId p) const;

  /// Piece-availability dispersion across the swarm. The §6 assumption
  /// ("content availability is not a bottleneck") holds when rarest-
  /// first has equalized block repartition — i.e. when the coefficient
  /// of variation is small.
  struct AvailabilityStats {
    double mean = 0.0;                  // average copies per piece
    std::uint32_t min = 0;
    std::uint32_t max = 0;
    double coefficient_of_variation = 0.0;
  };
  [[nodiscard]] AvailabilityStats availability_stats() const;

  /// Neighbor set (tracker overlay) of peer p, sorted ascending by
  /// external id. Empty for departed peers.
  [[nodiscard]] std::span<const core::PeerId> neighbors(core::PeerId p) const;

  /// Current overlay degree of p (0 once departed).
  [[nodiscard]] std::size_t degree(core::PeerId p) const { return neighbors(p).size(); }

  // --- storage introspection (leak/recycling/scaling invariants) ------

  /// Directed edge-slot pool capacity (live + free).
  [[nodiscard]] std::size_t edge_slot_capacity() const noexcept { return edge_peer_.size(); }

  /// Slots currently carrying an edge.
  [[nodiscard]] std::size_t live_edge_slots() const noexcept {
    return edge_peer_.size() - free_slots_.size();
  }

  /// Slots parked on the free list.
  [[nodiscard]] std::size_t free_edge_slots() const noexcept { return free_slots_.size(); }

  /// Times slot `s` has been released back to the pool.
  [[nodiscard]] std::uint32_t slot_generation(std::size_t s) const { return slot_gen_.at(s); }

  /// The dense peer table (row order, generations) for invariants.
  [[nodiscard]] const PeerTable& peer_table() const noexcept { return table_; }

  /// Where the bytes live. peer_state_bytes + edge_slot_bytes is the
  /// hot data plane and must stay O(live population) under unbounded
  /// churn; id_index_bytes is the O(ids-ever) price of stable external
  /// ids (4-8 bytes per arrival); retired_bytes is the archive
  /// (O(departures)).
  struct MemoryFootprint {
    std::size_t live_peers = 0;
    std::size_t peer_state_bytes = 0;  // row-indexed per-peer containers
    std::size_t edge_slot_bytes = 0;   // directed edge-slot pool
    std::size_t id_index_bytes = 0;    // id->row map + retired index
    std::size_t retired_bytes = 0;     // archived stats + retired pair history
  };
  [[nodiscard]] MemoryFootprint memory_footprint() const;

  /// Cumulative wall-clock seconds per run_round() phase since
  /// construction. The thread-scaling acceptance bar reads the
  /// parallel portion (choke + mutual + transfer compute + fold) from
  /// here, so speedups are measured per phase instead of inferred from
  /// whole-round times that the serial commit stage dilutes.
  struct PhaseProfile {
    double choke_seconds = 0.0;     // parallel: score/select fan-out
    double endgame_seconds = 0.0;   // serial: incoming-unchoke count (endgame mode)
    double mutual_seconds = 0.0;    // parallel: mutual-unchoke recording
    double transfer_seconds = 0.0;  // whole transfer phase (compute + commit)
    double fold_seconds = 0.0;      // parallel: rate smoothing fold
    // Transfer-phase breakdown — sub-timings *inside* transfer_seconds,
    // not additional phases (the five fields above partition the round).
    double transfer_compute_seconds = 0.0;  // parallel: sender plan fan-out
    double transfer_commit_seconds = 0.0;   // serial: validate + apply (repairs included)
    double transfer_rerun_seconds = 0.0;    // serial: stale-lane repairs only
    std::uint64_t transfer_lanes = 0;       // (sender, receiver) lanes carrying >= 1 grant
    std::uint64_t transfer_reruns = 0;      // lanes discarded as stale and re-driven live
    // Serial fault_step (announce retries); zero when outages are off.
    // The fault counters themselves live in fault_state().
    double fault_seconds = 0.0;
    /// Adds `other` field by field, in member order: the one fold
    /// behind every summed profile (TrackerSim::ecosystem_profile(),
    /// the thread-sweep bench).
    PhaseProfile& operator+=(const PhaseProfile& other) noexcept {
      choke_seconds += other.choke_seconds;
      endgame_seconds += other.endgame_seconds;
      mutual_seconds += other.mutual_seconds;
      transfer_seconds += other.transfer_seconds;
      fold_seconds += other.fold_seconds;
      transfer_compute_seconds += other.transfer_compute_seconds;
      transfer_commit_seconds += other.transfer_commit_seconds;
      transfer_rerun_seconds += other.transfer_rerun_seconds;
      transfer_lanes += other.transfer_lanes;
      transfer_reruns += other.transfer_reruns;
      fault_seconds += other.fault_seconds;
      return *this;
    }
    /// Share of planned lanes the commit had to discard and re-drive
    /// serially — the conflict cost of the speculative compute stage.
    [[nodiscard]] double rerun_fraction() const noexcept {
      if (transfer_lanes == 0) return 0.0;
      return static_cast<double>(transfer_reruns) / static_cast<double>(transfer_lanes);
    }
  };
  /// Read-only view of the accumulated per-phase timings. Profiling
  /// output only — the values never feed back into simulation state,
  /// which is why `profile_` carries a strat-lint `not-serialized`
  /// waiver (R4): a resumed run restarts its timers at zero yet stays
  /// bitwise-identical to the uninterrupted one.
  [[nodiscard]] const PhaseProfile& phase_profile() const noexcept { return profile_; }

  /// Live fault state (per-row NAT flags, backoff schedules, lifetime
  /// counters): the one source of every fault count. Row-indexed like
  /// every other per-peer container; all entries are inert when faults
  /// are disabled.
  [[nodiscard]] const FaultState& fault_state() const noexcept { return faults_; }

 private:
  /// Tag ctor for resume(): binds config/rng and sizes the piece
  /// containers, leaving every other member for the snapshot loader
  /// (snapshot.cpp) to fill.
  struct ResumeTag {};
  Swarm(ResumeTag, const SwarmConfig& config, graph::Rng& rng)
      : config_(config),
        rng_(rng),
        picker_(config.num_pieces),
        have_(config.num_pieces) {}
  /// The body of save(), driven through a snapshot_detail::Sizer and
  /// then a Writer; defined in snapshot.cpp.
  template <class Out>
  void save_impl(Out& w) const;

  struct RoundScratch;

  void choke_step();
  /// Score/select for one row, drawing from the row's per-peer stream;
  /// `candidates` is the calling worker's scratch.
  void choke_row(Row r, std::vector<ChokeCandidate>& candidates);
  /// config_.threads with 0 resolved to the hardware concurrency.
  [[nodiscard]] std::size_t fan_out() const noexcept;
  void record_mutual_unchokes();
  void count_incoming_unchokes();
  void transfer_step();
  void fold_rates();
  /// Compute stage: plans sender p's whole round against the immutable
  /// phase-start snapshot (read-only on shared state), appending grants
  /// and the sender plan to the calling worker's `scratch`.
  void plan_transfers(core::PeerId p, RoundScratch& scratch);
  /// Rarest-first pick for the compute stage: endgame reservations come
  /// from the phase-start in-flight snapshot and the lane's local
  /// completions are always excluded (via the chunk-private bitfield).
  [[nodiscard]] std::optional<PieceId> plan_pick(const detail::TransferLane& lane, Row qr,
                                                Row pr, graph::Rng& rng, RoundScratch& scratch);
  /// Fills `scratch.hungry` with sender row pr's active transfers: its
  /// live unchoked neighbors that want data, as (receiver, sender-side
  /// slot). Returns false when there are none.
  bool collect_hungry(Row pr, RoundScratch& scratch) const;
  /// Endgame request discipline: reserves in `scratch` every piece in
  /// flight to receiver row qr from a neighbor other than slot_qp's.
  void reserve_inflight(Row qr, std::size_t slot_qp, RoundScratch& scratch) const;
  /// Commit stage: replays every plan in sender order, validating each
  /// (sender, receiver) lane's grant chain against live state. Valid
  /// lanes apply verbatim; a stale lane (receiver departed, piece
  /// completed by an earlier commit, or partial progress moved since
  /// the snapshot) is discarded whole and its planned KB re-driven
  /// against live state — redistributed across the sender's live
  /// still-hungry receivers (redistribute_upload over send_to), so a
  /// receiver that completed early strands no budget while a sibling
  /// still starves. Lane granularity matters:
  /// rarest-first concentrates fresh picks onto the same small
  /// minimum-availability tie set, so same-receiver pick collisions are
  /// structural — invalidating whole sender plans would amplify a few
  /// percent of stale grants into a majority of plans re-run.
  void commit_transfers(std::size_t chunks);
  /// The per-sender transfer stream (see kTransferStreamSalt).
  [[nodiscard]] graph::Rng transfer_stream(core::PeerId p) const {
    return graph::Rng::stream(choke_key_ ^ kTransferStreamSalt, p, round_);
  }
  /// The per-sender lane-repair stream (see kTransferRerunSalt); one
  /// per sender per round, shared by all of that plan's lane repairs.
  [[nodiscard]] graph::Rng rerun_stream(core::PeerId p) const {
    return graph::Rng::stream(choke_key_ ^ kTransferRerunSalt, p, round_);
  }
  /// Partial progress of (receiver row, piece) in KB; 0 when absent
  /// (entries are created at the first contribution, so absent == 0).
  [[nodiscard]] double partial_progress(Row qr, PieceId piece) const;
  /// Sends up to `budget` KB from p to q against live state (the rerun
  /// path); returns the KB actually transferred (less than `budget`
  /// when q runs out of pickable pieces, or q completed and departed
  /// mid-round). Randomness comes from the caller-supplied stream.
  double send_to(core::PeerId p, core::PeerId q, std::size_t slot_pq, double budget,
                 graph::Rng& rng);
  /// Rarest-first pick for receiver row qr from sender row pr,
  /// honoring the endgame request discipline when configured (slot_qp
  /// is q's slot toward p, exempt from the reservation scan).
  [[nodiscard]] std::optional<PieceId> pick_for(Row qr, Row pr, std::size_t slot_qp,
                                                graph::Rng& rng);
  void complete_piece(core::PeerId q, Row qr, PieceId piece);
  /// Removes a peer from the data plane at round coordinate `when`:
  /// availability counters drop, partial/in-flight state is discarded,
  /// incident edge slots are released and mutual history flushed, the
  /// final stats are archived and the table row is compacted away.
  void depart_peer(core::PeerId p, double when);
  [[nodiscard]] bool wants_from(Row receiver, Row sender) const {
    return have_.interested(receiver, sender);
  }
  /// Edge slot of neighbor q in row pr's sorted adjacency.
  [[nodiscard]] std::size_t slot_of(Row pr, core::PeerId q) const;
  /// Claims a slot (free list first, pool growth second). Throws
  /// std::length_error rather than grow the pool past 32-bit slot ids.
  std::uint32_t claim_slot();
  /// Zeroes a slot's dynamic state, bumps its generation and parks it
  /// on the free list. The pair's mutual count must be flushed first.
  void release_slot(std::uint32_t s);
  /// Connects p and q: claims both directed slots and inserts each into
  /// the other's sorted adjacency row.
  void connect(core::PeerId p, core::PeerId q);
  /// Releases every edge incident to p / row pr (slots freed, mutual
  /// flushed, p removed from each neighbor's row).
  void release_all_edges(core::PeerId p, Row pr);
  /// Moves a live pair's mutual-unchoke count into the retired records.
  void flush_mutual(core::PeerId p, core::PeerId q, std::size_t slot_min);
  /// The tracker announce every caller routes through: connects p to up
  /// to `need` distinct live non-neighbors chosen uniformly
  /// (detail::announce_connect). With connect-level faults on, NAT-ed
  /// candidates reject the dial and each connect runs bounded retry
  /// trials from a per-announce counter stream; with them off, the
  /// announce draws no trials and leaves announce_seq_ untouched.
  std::size_t announce_with_faults(core::PeerId p, std::size_t need);
  /// Serial backoff sweep at the top of run_round: peers whose retry
  /// deadline arrived re-announce (or reschedule if the tracker is
  /// still down). No-op unless outages are configured.
  void fault_step();
  /// Rebuilds bandwidth_rank_ if a join or a capacity change made it
  /// stale.
  void refresh_ranks() const;
  void refresh_ranks_force() const;
  /// Tracker target degree (llround(neighbor_degree)).
  [[nodiscard]] std::size_t target_degree() const;

  SwarmConfig config_;
  // strat-lint: serialized-via(rng_, restore) -- xoshiro words + Box-Muller
  // cache captured in save_impl, restored into the caller's generator.
  graph::Rng& rng_;
  /// Run key for the per-peer choke streams (one structural draw at
  /// construction): peer p's round-r choke randomness is
  /// Rng::stream(choke_key_, p, r), identical in both data planes.
  std::uint64_t choke_key_ = 0;
  PiecePicker picker_;

  // --- dense peer rows -------------------------------------------------
  // External id <-> row indirection; every container below named
  // "row-indexed" compacts in lockstep with table_ removals.
  PeerTable table_;
  std::vector<PeerStats> stats_;    // row-indexed
  BitRows have_;                    // row-indexed piece bitfields, one word arena
  std::vector<TftChoker> chokers_;  // row-indexed
  std::vector<std::vector<core::PeerId>> unchoked_;  // row-indexed, this round
  // Per-peer adjacency (row-indexed): nbr_[r] is the external neighbor
  // ids sorted ascending, nslot_[r] the parallel directed slot carrying
  // (owner -> nbr) state.
  std::vector<std::vector<core::PeerId>> nbr_;
  std::vector<std::vector<std::uint32_t>> nslot_;
  // Partial piece progress (row-indexed): per receiver, (piece, KB
  // accumulated) pairs. At most one entry per active sender, so linear
  // scans win over hashing.
  std::vector<std::vector<std::pair<PieceId, double>>> partial_;
  // Live fault state (row-indexed vectors + lifetime counters),
  // compacted in lockstep with the table like every row container.
  // Maintained even with faults off (push/compact only — no draws), so
  // enabling faults never changes container shapes.
  FaultState faults_;
  // strat-lint: not-serialized -- host-side checkpoint policy
  // (autosave_every), never simulation state; a resumed run re-arms it.
  std::optional<Autosaver> autosaver_;
  // Endgame-mode per-row count of inbound unchokes this round
  // (row-indexed, compacted mid-round with the table).
  // strat-lint: not-serialized -- rebuilt from unchoked_ every round
  std::vector<std::uint32_t> incoming_unchokes_;
  // Sender-order snapshot for transfer_step (externals stay valid
  // while completion departures compact rows mid-round).
  // strat-lint: not-serialized -- rebuilt at the top of every transfer_step
  std::vector<core::PeerId> order_scratch_;
  // One round's working buffers: the choke candidates, the planned
  // grants and sender plans, the hungry/next-hungry redistribution
  // lists, per-receiver lane state and the pick exclusion bitfield
  // (reserved_list tracks its set bits for O(deg) clears).
  struct RoundScratch {
    std::vector<ChokeCandidate> candidates;
    std::vector<std::pair<core::PeerId, std::size_t>> hungry;       // (receiver, sender slot)
    std::vector<std::pair<core::PeerId, std::size_t>> next_hungry;
    std::vector<detail::TransferLane> lanes;
    std::vector<detail::TransferGrant> grants;
    std::vector<detail::SenderPlan> plans;
    Bitfield reserved;  // sized lazily to num_pieces
    std::vector<PieceId> reserved_list;
    std::vector<PieceId> reserved_partials;  // soft tier, released on fallback

    /// Clears every reservation (sizing the bitfield on first use).
    void clear_reserved(std::size_t pieces) {
      if (reserved.size() != pieces) reserved = Bitfield(pieces);
      for (const PieceId piece : reserved_list) reserved.reset(piece);
      reserved_list.clear();
      reserved_partials.clear();
    }
    void reserve(PieceId piece) {
      reserved.set(piece);
      reserved_list.push_back(piece);
    }
  };
  // One instance per chunk of the parallel row phases, indexed by chunk
  // id: choke and transfer compute split the same rows at the same
  // grain, so they share it.
  // strat-lint: not-serialized -- per-chunk scratch, cleared per use
  std::vector<RoundScratch> scratch_;
  // The serial commit stage's instance (repair redistribution lists and
  // the live pick's exclusion bitfield).
  // strat-lint: not-serialized -- commit-stage scratch, cleared per use
  RoundScratch commit_;
  // Per-plan lane table for the commit's validation pass, indexed by
  // the grants' plan-local lane ordinal: receiver, its sender-side
  // slot, its row as resolved at grouping time (rows cannot move
  // during a single plan's grouping pass, so one lookup serves every
  // grant until a completion departure compacts them), the lane's
  // planned KB and its staleness verdict (re-sized per plan).
  struct CommitLane {
    core::PeerId receiver = 0;
    std::size_t slot_pq = 0;
    Row row = 0;
    double kb = 0.0;
    bool used = false;  // lane ordinal actually granted to in this plan
    bool stale = false;
    bool lost = false;  // fault injection dropped this lane's bytes
  };
  // strat-lint: not-serialized -- commit-stage scratch, cleared per plan
  std::vector<CommitLane> commit_lanes_;
  // strat-lint: not-serialized -- wall-clock accounting, never simulation state
  PhaseProfile profile_;

  // --- retired records --------------------------------------------------
  // Final PeerStats of departed peers (departure order) + id -> index.
  std::vector<PeerStats> retired_stats_;
  std::vector<std::uint32_t> retired_ix_;  // external id -> retired index
  std::size_t retired_completed_ = 0;      // departed leechers holding all pieces

  // --- dynamic edge-slot data plane -----------------------------------
  // Slot pool. edge_peer_[s]/mirror_[s] identify the slot's neighbor
  // (by external id) and reverse slot while live; they go stale (not
  // cleared) once the slot is released — slot_gen_[s] is bumped on
  // every release so stale references are detectable. free_slots_
  // holds released ids. Slot ids are 32-bit in memory as on the wire;
  // claim_slot() refuses to grow the pool past them.
  std::vector<core::PeerId> edge_peer_;    // slot -> neighbor (external id)
  std::vector<std::uint32_t> mirror_;      // slot -> reverse slot
  std::vector<std::uint32_t> slot_gen_;    // release count
  std::vector<std::uint32_t> free_slots_;  // recycling free list
  std::vector<double> rate_in_;   // smoothed KB/round received on slot
  // strat-lint: not-serialized -- provably zero between rounds (fold_rates
  // clears it; save() may only run at round boundaries); re-zeroed on load
  std::vector<double> now_in_;    // current round's receipts on slot
  std::vector<double> rate_out_;  // smoothed KB/round sent on slot (seed policy)
  // strat-lint: not-serialized -- provably zero between rounds, like now_in_
  std::vector<double> now_out_;   // current round's sends on slot
  // In-flight target piece per receiver-owned slot (receiver = slot
  // owner, sender = edge_peer_[slot]); kNoPiece when idle.
  std::vector<PieceId> inflight_;
  // Rounds each leecher pair spent mutually unchoked while both were
  // present and downloading, on the lower-endpoint-owned slot. Flushed
  // into retired_mutual_ when the edge is released.
  std::vector<std::uint32_t> mutual_rounds_;
  // Mutual-unchoke history of disconnected pairs: (min<<32|max, rounds).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> retired_mutual_;

  // Leecher bandwidth ranks (external id -> rank), rebuilt lazily:
  // join() only marks them dirty, so churn-heavy rounds never pay the
  // O(L log L) sort — the readers (stratification, reciprocated_pairs)
  // refresh on demand.
  // strat-lint: not-serialized -- derived cache; the loader marks it dirty
  mutable std::vector<std::size_t> bandwidth_rank_;
  // strat-lint: not-serialized -- dirty bit of the derived rank cache
  mutable bool ranks_dirty_ = false;
  std::size_t round_ = 0;
  std::size_t arrivals_ = 0;  // leechers ever = config_.num_peers + arrivals_
  std::size_t departures_ = 0;
};

}  // namespace strat::bt
