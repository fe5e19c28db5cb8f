// Swarm checkpoint serialization: Writer/Reader primitives plus
// Swarm::save()/resume() (members of Swarm, so the loader fills the
// private state directly). See snapshot.hpp for the format contract.
#include "bittorrent/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>

#include "bittorrent/peer_table.hpp"
#include "bittorrent/piece_picker.hpp"

namespace strat::bt {

namespace snapshot_detail {

namespace {

constexpr std::uint64_t kHashBasis = 0xCBF29CE484222325ULL;  // FNV-64 offset

}  // namespace

Writer::Writer(std::string& sink) : sink_(sink), hash_(kHashBasis) {}

void Writer::finish() {
  const std::uint64_t checksum = mix64(hash_);  // footer itself is not folded
  sink_.append(reinterpret_cast<const char*>(&checksum), 8);
}

Reader::Reader(std::string_view bytes)
    : cur_(reinterpret_cast<const unsigned char*>(bytes.data())),
      end_(cur_ + bytes.size()),
      hash_(kHashBasis) {}

Reader::Reader(std::istream& in) : in_(&in), hash_(kHashBasis) {
  // Learn how many bytes remain, so a lying length prefix dies before
  // anything is allocated. A stream that cannot tell (a pipe) has no
  // such bound and is refused.
  const std::istream::pos_type cur = in.tellg();
  if (cur != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(cur);
    if (end != std::istream::pos_type(-1) && end >= cur && in.good()) {
      behind_ = static_cast<std::uint64_t>(end - cur);
      return;
    }
  }
  throw SnapshotError("snapshot: stream is not seekable");
}

void Reader::take_slow(void* data, std::size_t n) {
  // The inline take() already served every read the window holds.
  if (in_ == nullptr) throw SnapshotError("snapshot: truncated stream");
  auto* dst = static_cast<unsigned char*>(data);
  const std::size_t buffered = window();
  if (buffered > 0) {
    std::memcpy(dst, cur_, buffered);
    dst += buffered;
    n -= buffered;
  }
  cur_ = end_ = nullptr;
  const auto consumed = [&](std::streamsize got) {
    behind_ -= std::min<std::uint64_t>(behind_, static_cast<std::uint64_t>(got));
    return static_cast<std::size_t>(got);
  };
  // Large reads go straight through.
  if (n >= kIoBuf) {
    in_->read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (consumed(in_->gcount()) != n) throw SnapshotError("snapshot: truncated stream");
    return;
  }
  if (rbuf_.empty()) rbuf_.resize(kIoBuf);
  in_->read(reinterpret_cast<char*>(rbuf_.data()), static_cast<std::streamsize>(rbuf_.size()));
  const std::size_t got = consumed(in_->gcount());
  if (got < n) throw SnapshotError("snapshot: truncated stream");
  in_->clear();  // a short final refill sets eofbit; the bytes are still good
  std::memcpy(dst, rbuf_.data(), n);
  cur_ = rbuf_.data() + n;
  end_ = rbuf_.data() + got;
}

void Reader::expect_tag(std::uint32_t t, const char* section) {
  if (u32() != t) {
    throw SnapshotError(std::string("snapshot: missing section tag '") + section + "'");
  }
}

void Reader::verify_checksum() {
  const std::uint64_t expected = mix64(hash_);  // section hash before the footer
  std::uint64_t stored;
  take(&stored, 8);
  if (stored != expected) throw SnapshotError("snapshot: checksum mismatch (corrupt stream)");
  hash_ = kHashBasis;  // the next section folds from the start
}

}  // namespace snapshot_detail

namespace {

using snapshot_detail::Reader;
using snapshot_detail::Writer;

constexpr std::uint32_t kNoRetired = std::numeric_limits<std::uint32_t>::max();

/// Section tags, in stream order. Each section below lists the Swarm
/// members it carries — strat-lint R4 (snapshot-complete) cross-checks
/// this file against the member list in swarm.hpp, so this checklist
/// doubles as the format documentation: a member added to the class
/// must show up in one of these sections (or carry a written waiver)
/// before the tree lints clean. R4 also verifies every tag is both
/// written by save_impl and expected by resume.
/// Scenario/config values (SwarmConfig, field-by-field).
constexpr std::uint32_t kTagConfig = 1;
/// RNG: choke_key_ plus the xoshiro word state and the Box-Muller
/// cache of the structural rng_.
constexpr std::uint32_t kTagRng = 2;
/// Peer table: id space, live ids (row order), row generations.
constexpr std::uint32_t kTagTable = 3;
/// Scalar counters: round_, the leecher count (config num_peers +
/// arrivals_, checked on load), arrivals_, departures_,
/// retired_completed_.
constexpr std::uint32_t kTagCounters = 4;
/// Edge-slot pool: edge_peer_, mirror_, slot_gen_, free_slots_,
/// rate_in_, rate_out_, inflight_, mutual_rounds_ (now_in_/now_out_
/// deliberately absent — zeroed at every round boundary).
constexpr std::uint32_t kTagSlots = 5;
/// Per-row hot state in row order: stats_, have_, chokers_, unchoked_,
/// nbr_/nslot_, partial_.
constexpr std::uint32_t kTagPeers = 6;
/// Retired records: retirement-order ids (the inverse of retired_ix_),
/// retired_stats_, retired_mutual_.
constexpr std::uint32_t kTagRetired = 7;
/// Piece-availability cross-check (derived from live have_ bitfields;
/// the loader recomputes and must match).
constexpr std::uint32_t kTagAvail = 8;
/// Live fault state (Swarm::faults_, row order): nat_, retry_round_,
/// retry_count_, announce_seq_, plus the run-total fault counters.
/// Serialized even with faults disabled (row-sized, all-default
/// vectors, zero counters) so the section layout never depends on
/// config.
constexpr std::uint32_t kTagFaults = 9;

// Allocation guards for length-prefixed vectors: generous multiples of
// any real run, tight enough that a corrupt length can't OOM the host.
constexpr std::size_t kMaxPeersEver = std::size_t{1} << 32;
constexpr std::size_t kMaxSlots = std::size_t{1} << 33;
// 2^24 pieces x 256 KB is a 4 TB torrent — anything above is a corrupt
// config, and it must be rejected *before* the piece-sized containers
// (picker, per-row bitfields) are allocated.
constexpr std::size_t kMaxPieces = std::size_t{1} << 24;

// The Swarm's record field lists (see snapshot.hpp); `T` is const on
// the Writer and Sizer sides.

/// SwarmConfig, its FaultSpec last.
template <class Io, class T>
void swarm_config_fields(Io& io, T& c) {
  io.u64(c.num_peers);
  io.u64(c.seeds);
  io.u64(c.num_pieces);
  io.f64(c.piece_kb);
  io.u64(c.tft_slots);
  io.u64(c.optimistic_rounds);
  io.f64(c.round_seconds);
  io.f64(c.neighbor_degree);
  io.flag(c.post_flashcrowd);
  io.f64(c.initial_completion);
  io.flag(c.stay_as_seed);
  io.f64(c.seed_upload_kbps);
  io.f64(c.rate_smoothing);
  io.pod(c.tft_slots_per_peer, kMaxPeersEver, "tft_slots_per_peer");
  io.flag(c.endgame);
  // The retired retain_departed flag keeps its byte, always 1: every
  // departure is archived, and the aggregates-only mode a 0 selected is gone.
  bool archived = true;
  io.flag(archived);
  if (!archived) throw SnapshotError("snapshot: retain_departed=0 (aggregates-only) is retired");
  io.u64(c.threads);
  io.u64(c.faults.outage_period);
  io.u64(c.faults.outage_duration);
  io.u64(c.faults.outage_phase);
  io.f64(c.faults.connect_failure_prob);
  io.u64(c.faults.connect_attempts);
  io.f64(c.faults.nat_fraction);
  io.f64(c.faults.lane_loss_prob);
  io.u64(c.faults.backoff_base);
  io.u64(c.faults.backoff_cap);
}

template <class Io, class T>
void peer_stats_fields(Io& io, T& s) {
  io.f64(s.upload_kbps);
  io.f64(s.uploaded_kb);
  io.f64(s.downloaded_kb);
  io.u64(s.pieces);
  io.f64(s.completion_round);
  io.flag(s.seed);
  io.f64(s.join_round);
  io.f64(s.leave_round);
}

/// TftChoker::State.
template <class Io, class T>
void choker_state_fields(Io& io, T& cs) {
  io.u64(cs.tft_slots);
  io.u64(cs.optimistic_rounds);
  io.u64(cs.rounds_since_rotation);
  io.u32(cs.optimistic);
}

/// The kTagFaults section body, rows in kTagPeers order.
template <class Io, class T>
void fault_state_fields(Io& io, T& fs) {
  io.pod(fs.nat_, kMaxPeersEver, "nat flag");
  io.pod(fs.retry_round_, kMaxPeersEver, "retry round");
  io.pod(fs.retry_count_, kMaxPeersEver, "retry count");
  io.pod(fs.announce_seq_, kMaxPeersEver, "announce sequence");
  io.u64(fs.failed_announces_);
  io.u64(fs.announce_retries_);
  io.u64(fs.connect_failures_);
  io.u64(fs.nat_rejections_);
  io.u64(fs.lost_lanes_);
}

/// One partial piece of a row: (piece, KB accumulated).
template <class Io, class T>
void partial_piece_fields(Io& io, T& e) {
  io.u32(e.first);
  io.f64(e.second);
}

/// One retired pair: (min<<32|max key, mutual rounds).
template <class Io, class T>
void retired_pair_fields(Io& io, T& e) {
  io.u64(e.first);
  io.u32(e.second);
}

// The list element field lists as list() callables.
constexpr auto kPartialPiece = [](auto& io, auto& e) { partial_piece_fields(io, e); };
constexpr auto kRetiredPair = [](auto& io, auto& e) { retired_pair_fields(io, e); };

/// Slots the adjacency walk prefetches its mirror lookups ahead.
constexpr std::size_t kMirrorAhead = 8;

}  // namespace

template <class Out>
void Swarm::save_impl(Out& w) const {
  w.u64(kSnapshotMagic);
  w.u32(kSnapshotVersion);

  w.tag(kTagConfig);
  swarm_config_fields(w, config_);

  w.tag(kTagRng);
  w.u64(choke_key_);
  const graph::Rng::State rng_state = rng_.state();
  snapshot_detail::rng_state_fields(w, rng_state);

  w.tag(kTagTable);
  w.u64(table_.id_space());
  const auto live = table_.ids();
  w.pod_span(live.data(), live.size());
  const auto gens = table_.row_generations();
  w.pod_span(gens.data(), gens.size());

  w.tag(kTagCounters);
  w.u64(round_);
  w.u64(config_.num_peers + arrivals_);
  w.u64(arrivals_);
  w.u64(departures_);
  w.u64(retired_completed_);

  // Edge-slot pool. now_in_/now_out_ are deliberately absent:
  // fold_rates() zeroes them at every round boundary, the only place
  // save() may be called.
  w.tag(kTagSlots);
  w.u64(edge_peer_.size());
  w.pod_span(edge_peer_.data(), edge_peer_.size());
  w.pod_span(mirror_.data(), mirror_.size());
  w.pod_span(slot_gen_.data(), slot_gen_.size());
  w.pod_span(free_slots_.data(), free_slots_.size());
  w.pod_span(rate_in_.data(), rate_in_.size());
  w.pod_span(rate_out_.data(), rate_out_.size());
  w.pod_span(inflight_.data(), inflight_.size());
  w.pod_span(mutual_rounds_.data(), mutual_rounds_.size());

  // Per-row hot state, row order. Every row-indexed container is
  // written in the same order the table serialized its rows, so resume
  // rebuilds the exact iteration order every RNG draw depends on.
  w.tag(kTagPeers);
  const std::size_t rows = table_.size();
  w.u64(rows);
  for (std::size_t r = 0; r < rows; ++r) peer_stats_fields(w, stats_[r]);
  // The bitfield arena in one call: rows are whole 8-byte lanes, so the
  // bytes and the checksum fold equal one write per row.
  const auto bitfields = have_.words();
  w.bytes(bitfields.data(), bitfields.size() * sizeof(std::uint64_t));
  for (std::size_t r = 0; r < rows; ++r) {
    const TftChoker::State cs = chokers_[r].state();
    choker_state_fields(w, cs);
  }
  for (std::size_t r = 0; r < rows; ++r) w.pod_span(unchoked_[r].data(), unchoked_[r].size());
  for (std::size_t r = 0; r < rows; ++r) {
    w.pod_span(nbr_[r].data(), nbr_[r].size());
    w.bytes(nslot_[r].data(), nslot_[r].size() * sizeof(std::uint32_t));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    w.list(partial_[r], config_.num_pieces, "partial piece", kPartialPiece);
  }

  // Retired records, retirement order. The id->index map is stored as
  // its inverse (one id per record), so the snapshot pays 4 bytes per
  // *departure*, not per id-ever.
  w.tag(kTagRetired);
  std::vector<core::PeerId> retired_order(retired_stats_.size(), core::kNoPeer);
  for (std::size_t id = 0; id < retired_ix_.size(); ++id) {
    if (retired_ix_[id] != kNoRetired) retired_order[retired_ix_[id]] = static_cast<core::PeerId>(id);
  }
  w.pod_span(retired_order.data(), retired_order.size());
  for (const PeerStats& s : retired_stats_) peer_stats_fields(w, s);
  w.list(retired_mutual_, kMaxSlots, "retired pair", kRetiredPair);

  // Piece-availability cross-check: derived state (the sum of live
  // bitfields), serialized anyway so the loader can prove the
  // recomputation matches — a stronger-than-checksum consistency gate.
  w.tag(kTagAvail);
  w.u64(config_.num_pieces);
  for (PieceId piece = 0; piece < config_.num_pieces; ++piece) w.u32(picker_.availability(piece));

  w.tag(kTagFaults);
  fault_state_fields(w, faults_);

  w.finish();
}

void Swarm::save(std::string& out) const {
  // Size the snapshot with the same walk that writes it, so the buffer
  // is reserved once: a mid-save doubling would re-copy a 10^5-peer
  // snapshot, which costs more than the serialization itself.
  snapshot_detail::Sizer size;
  save_impl(size);
  out.reserve(out.size() + size.size());
  Writer w(out);
  save_impl(w);
}

Swarm Swarm::resume(Reader& r, graph::Rng& rng, const SwarmConfig* override_config) {
  try {
    if (r.u64() != kSnapshotMagic) throw SnapshotError("snapshot: bad magic");
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion) {
      throw SnapshotError("snapshot: unsupported version " + std::to_string(version) +
                          " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    }

    r.expect_tag(kTagConfig, "config");
    SwarmConfig stored;
    swarm_config_fields(r, stored);
    // The constructor's rules, then the format's allocation limits —
    // both before the config sizes anything.
    detail::validate_config(stored, "snapshot config");
    if (stored.num_pieces > kMaxPieces || stored.num_peers + stored.seeds > kMaxPeersEver) {
      throw SnapshotError("snapshot: config beyond the format limits");
    }
    // The override contract: every simulation-semantic field must equal
    // the checkpointed one; only `threads` (wall clock, never results)
    // may differ.
    if (override_config != nullptr) {
      stored.threads = override_config->threads;
      if (stored != *override_config) {
        throw SnapshotError(
            "snapshot: config override differs from the checkpointed config "
            "in a simulation-semantic field (only `threads` may change)");
      }
    }

    Swarm s(ResumeTag{}, stored, rng);
    const SwarmConfig& cfg = s.config_;

    r.expect_tag(kTagRng, "rng");
    s.choke_key_ = r.u64();
    graph::Rng::State rng_state;
    snapshot_detail::rng_state_fields(r, rng_state);

    r.expect_tag(kTagTable, "table");
    const auto id_space = static_cast<std::size_t>(r.u64());
    if (id_space > kMaxPeersEver) throw SnapshotError("snapshot: implausible id space");
    if (id_space < cfg.num_peers + cfg.seeds) {
      throw SnapshotError("snapshot: id space smaller than the initial population");
    }
    auto live_ids = r.pod_vec<core::PeerId>(id_space, "live id");
    auto row_gens = r.pod_vec<std::uint32_t>(id_space, "row generation");
    const std::size_t rows = live_ids.size();

    r.expect_tag(kTagCounters, "counters");
    s.round_ = static_cast<std::size_t>(r.u64());
    const std::uint64_t leechers = r.u64();
    s.arrivals_ = static_cast<std::size_t>(r.u64());
    s.departures_ = static_cast<std::size_t>(r.u64());
    s.retired_completed_ = static_cast<std::size_t>(r.u64());
    if (s.arrivals_ != id_space - (cfg.num_peers + cfg.seeds)) {
      throw SnapshotError("snapshot: arrival counter inconsistent with id space");
    }
    if (leechers != cfg.num_peers + s.arrivals_) {
      throw SnapshotError("snapshot: leecher counter inconsistent with arrivals");
    }
    if (s.departures_ != id_space - rows) {
      throw SnapshotError("snapshot: departure counter inconsistent with live count");
    }

    r.expect_tag(kTagSlots, "slots");
    const auto pool = static_cast<std::size_t>(r.u64());
    if (pool > kMaxSlots) throw SnapshotError("snapshot: implausible slot-pool size");
    s.edge_peer_ = r.pod_vec<core::PeerId>(pool, "edge slot");
    s.mirror_ = r.pod_vec<std::uint32_t>(pool, "mirror slot");
    s.slot_gen_ = r.pod_vec<std::uint32_t>(pool, "slot generation");
    s.free_slots_ = r.pod_vec<std::uint32_t>(pool, "free slot");
    s.rate_in_ = r.pod_vec<double>(pool, "rate-in");
    s.rate_out_ = r.pod_vec<double>(pool, "rate-out");
    s.inflight_ = r.pod_vec<PieceId>(pool, "in-flight piece");
    s.mutual_rounds_ = r.pod_vec<std::uint32_t>(pool, "mutual rounds");
    // Size checks before the zero-filled allocations below: every
    // array length here is stream-backed (pod_vec only grows by bytes
    // actually delivered), so a lying `pool` scalar must die *before*
    // it can size a multi-GB assign.
    if (s.edge_peer_.size() != pool || s.mirror_.size() != pool || s.slot_gen_.size() != pool ||
        s.rate_in_.size() != pool || s.rate_out_.size() != pool || s.inflight_.size() != pool ||
        s.mutual_rounds_.size() != pool) {
      throw SnapshotError("snapshot: slot-pool array size mismatch");
    }
    s.now_in_.assign(pool, 0.0);
    s.now_out_.assign(pool, 0.0);

    r.expect_tag(kTagPeers, "peers");
    if (static_cast<std::size_t>(r.u64()) != rows) {
      throw SnapshotError("snapshot: per-row state size mismatch");
    }
    // Stored capacities pass the constructor's rule as they are read: a
    // NaN would reach the rank sort's comparator in refresh_ranks_force().
    s.stats_.resize(rows);
    for (PeerStats& st : s.stats_) {
      peer_stats_fields(r, st);
      detail::require_capacity(st.upload_kbps, "snapshot live peer", /*allow_zero=*/true);
    }
    // rows x width words, sized only once the stream can hold them;
    // from_words then checks every row's tail bits and recounts it.
    s.have_ = BitRows::from_words(
        cfg.num_pieces, r.pod_array<std::uint64_t>(rows * s.have_.width()));
    s.chokers_.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      TftChoker::State cs;
      choker_state_fields(r, cs);
      if (cs.optimistic_rounds == 0) throw SnapshotError("snapshot: zero optimistic rounds");
      s.chokers_.push_back(TftChoker::from_state(cs));
    }
    s.unchoked_.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      s.unchoked_.push_back(r.pod_vec<core::PeerId>(id_space, "unchoke target"));
    }
    s.nbr_.reserve(rows);
    s.nslot_.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      auto nbrs = r.pod_vec<core::PeerId>(rows, "neighbor");
      std::vector<std::uint32_t> slots(nbrs.size());
      r.bytes(slots.data(), slots.size() * sizeof(std::uint32_t));
      s.nbr_.push_back(std::move(nbrs));
      s.nslot_.push_back(std::move(slots));
    }
    // One entry per (row, piece), checked as each list is read: the
    // commit erases only the first entry of a piece. The mask is set
    // and then cleared through each list, linear in the entries; an
    // out-of-range piece is left to the range check below.
    s.partial_.resize(rows);
    Bitfield listed(cfg.num_pieces);
    for (auto& partial : s.partial_) {
      r.list(partial, cfg.num_pieces, "partial piece", kPartialPiece);
      for (const auto& entry : partial) {
        if (entry.first >= cfg.num_pieces) continue;
        if (listed.test(entry.first)) {
          throw SnapshotError("snapshot: partial piece listed twice in one row");
        }
        listed.set(entry.first);
      }
      for (const auto& entry : partial) {
        if (entry.first < cfg.num_pieces) listed.reset(entry.first);
      }
    }

    r.expect_tag(kTagRetired, "retired");
    auto retired_order = r.pod_vec<core::PeerId>(id_space, "retired id");
    std::vector<PeerStats> retired_stats(retired_order.size());
    for (PeerStats& st : retired_stats) {
      peer_stats_fields(r, st);
      detail::require_capacity(st.upload_kbps, "snapshot retired peer", /*allow_zero=*/true);
    }
    r.list(s.retired_mutual_, kMaxSlots, "retired pair", kRetiredPair);

    r.expect_tag(kTagAvail, "availability");
    if (static_cast<std::size_t>(r.u64()) != cfg.num_pieces) {
      throw SnapshotError("snapshot: availability size mismatch");
    }
    std::vector<std::uint32_t> stored_avail(cfg.num_pieces);
    // Read per-u32 to mirror save()'s per-piece logical writes — the
    // checksum folds once per logical call, so the partitions must
    // match exactly.
    for (std::uint32_t& avail : stored_avail) avail = r.u32();

    r.expect_tag(kTagFaults, "faults");
    fault_state_fields(r, s.faults_);
    const FaultState& fs = s.faults_;
    if (fs.nat_.size() != rows || fs.retry_round_.size() != rows ||
        fs.retry_count_.size() != rows || fs.announce_seq_.size() != rows) {
      throw SnapshotError("snapshot: fault-state array size mismatch");
    }
    for (const std::uint8_t flag : fs.nat_) {
      if (flag > 1) throw SnapshotError("snapshot: invalid NAT flag");
    }

    r.verify_checksum();

    // --- everything read and checksummed; validate and wire up -------

    s.table_ = PeerTable::restore(std::move(live_ids), std::move(row_gens), id_space);

    if (retired_order.size() != s.departures_) {
      throw SnapshotError("snapshot: retired archive inconsistent with departures");
    }
    if (!retired_order.empty()) s.retired_ix_.assign(id_space, kNoRetired);
    for (std::size_t i = 0; i < retired_order.size(); ++i) {
      const core::PeerId id = retired_order[i];
      if (id >= id_space || s.table_.contains(id)) {
        throw SnapshotError("snapshot: retired id is live or out of range");
      }
      if (s.retired_ix_[id] != kNoRetired) throw SnapshotError("snapshot: duplicate retired id");
      s.retired_ix_[id] = static_cast<std::uint32_t>(i);
    }
    s.retired_stats_ = std::move(retired_stats);

    // Slot pool: free list sane, then adjacency rows sorted, live, and
    // mutually consistent with the pool (slot -> neighbor id, mirror
    // round-trips). After these checks no stale index can survive into
    // the data plane.
    std::vector<bool> is_free(pool, false);
    for (const std::size_t slot : s.free_slots_) {
      if (slot >= pool || is_free[slot]) {
        throw SnapshotError("snapshot: free list slot invalid or duplicated");
      }
      is_free[slot] = true;
    }
    std::size_t adjacency_slots = 0;
    for (std::size_t row = 0; row < rows; ++row) {
      const core::PeerId owner = s.table_.id_at(static_cast<PeerTable::Row>(row));
      const auto& nbrs = s.nbr_[row];
      const auto& slots = s.nslot_[row];
      if (slots.size() != nbrs.size()) {
        throw SnapshotError("snapshot: adjacency slot row size mismatch");
      }
      adjacency_slots += slots.size();
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        // The mirror lookups land at random in the pool: start them a
        // few slots ahead (only for in-range indices).
        if (i + kMirrorAhead < slots.size() && slots[i + kMirrorAhead] < pool) {
          const std::uint32_t ahead = s.mirror_[slots[i + kMirrorAhead]];
          if (ahead < pool) {
            detail::prefetch(s.mirror_.data() + ahead);
            detail::prefetch(s.edge_peer_.data() + ahead);
          }
        }
        if (i > 0 && nbrs[i] <= nbrs[i - 1]) {
          throw SnapshotError("snapshot: adjacency row not strictly sorted");
        }
        if (nbrs[i] == owner || !s.table_.contains(nbrs[i])) {
          throw SnapshotError("snapshot: adjacency names a departed or self peer");
        }
        const std::size_t slot = slots[i];
        if (slot >= pool || is_free[slot]) {
          throw SnapshotError("snapshot: adjacency uses a freed or out-of-range slot");
        }
        if (s.edge_peer_[slot] != nbrs[i]) {
          throw SnapshotError("snapshot: slot neighbor id mismatch");
        }
        const std::size_t mirror = s.mirror_[slot];
        if (mirror >= pool || s.mirror_[mirror] != slot || s.edge_peer_[mirror] != owner) {
          throw SnapshotError("snapshot: mirror slot does not round-trip");
        }
      }
    }
    if (adjacency_slots + s.free_slots_.size() != pool) {
      throw SnapshotError("snapshot: slot pool leaks (live + free != capacity)");
    }
    // Branch-free over 32-bit compares, so the scan vectorizes (~5x the
    // early-exit loop on a 3x10^6-slot pool); num_pieces <= kMaxPieces.
    const auto piece_limit = static_cast<PieceId>(cfg.num_pieces);
    unsigned stray_piece = 0;
    for (const PieceId piece : s.inflight_) {
      stray_piece |=
          static_cast<unsigned>(piece != kNoPiece) & static_cast<unsigned>(piece >= piece_limit);
    }
    if (stray_piece != 0) throw SnapshotError("snapshot: in-flight piece out of range");
    for (std::size_t row = 0; row < rows; ++row) {
      if (s.stats_[row].pieces != s.have_.count(row)) {
        throw SnapshotError("snapshot: piece counter disagrees with bitfield");
      }
      for (const core::PeerId q : s.unchoked_[row]) {
        if (q >= id_space) throw SnapshotError("snapshot: unchoke target out of range");
      }
      for (const auto& [piece, kb] : s.partial_[row]) {
        if (piece >= cfg.num_pieces || s.have_.test(row, piece)) {
          throw SnapshotError("snapshot: partial piece invalid or already held");
        }
        if (!(kb >= 0.0) || kb >= cfg.piece_kb) {
          throw SnapshotError("snapshot: partial piece progress out of range");
        }
      }
      const core::PeerId opt = s.chokers_[row].optimistic();
      if (opt != core::kNoPeer && opt >= id_space) {
        throw SnapshotError("snapshot: optimistic target out of range");
      }
    }

    // Availability: recompute from the live bitfields and prove the
    // stored words match — the derived-state consistency gate.
    s.picker_.add_rows(s.have_.words(), rows);
    for (PieceId piece = 0; piece < cfg.num_pieces; ++piece) {
      if (s.picker_.availability(piece) != stored_avail[piece]) {
        throw SnapshotError("snapshot: availability disagrees with live bitfields");
      }
    }

    // The structural generator resumes the checkpointed sequence; the
    // bandwidth ranks (a derived cache no round phase reads) are left
    // dirty for the first stratification() or reciprocated_pairs().
    rng.restore(rng_state);
    s.ranks_dirty_ = true;
    return s;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw SnapshotError("snapshot: allocation failed (corrupt length field?)");
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot: invalid state: ") + e.what());
  }
}

std::string save_to_string(const Swarm& swarm) {
  std::string out;
  swarm.save(out);  // reserves the exact snapshot size up front
  return out;
}

ResumedSwarm::ResumedSwarm(std::string_view snapshot, const SwarmConfig* config)
    : rng_(std::make_unique<graph::Rng>()) {
  Reader r(snapshot);
  swarm_.emplace(Swarm::resume(r, *rng_, config));
}

ResumedSwarm resume_from_string(const std::string& snapshot) { return ResumedSwarm(snapshot); }

ResumedSwarm resume_from_string(const std::string& snapshot, const SwarmConfig& config) {
  return ResumedSwarm(snapshot, &config);
}

std::vector<ResumedSwarm> fork_snapshot(const std::string& snapshot, std::size_t copies) {
  std::vector<ResumedSwarm> forks;
  forks.reserve(copies);
  for (std::size_t i = 0; i < copies; ++i) forks.push_back(resume_from_string(snapshot));
  return forks;
}

}  // namespace strat::bt
