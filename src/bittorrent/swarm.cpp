#include "bittorrent/swarm.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "sim/parallel.hpp"
#include "sim/stats.hpp"

namespace strat::bt {

namespace {
constexpr std::uint32_t kNoRetired = std::numeric_limits<std::uint32_t>::max();

// Minimum work per chunk before the parallel phases actually spawn
// threads: rows for the per-peer phases, slots for the pool-wide fold.
// Small enough that test-scale swarms (hundreds of peers) exercise the
// threaded paths under TSan, large enough that a chunk amortizes its
// thread.
constexpr std::size_t kRowGrain = 64;
constexpr std::size_t kSlotGrain = 4096;

double seconds_since(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}
}  // namespace

namespace detail {

void require_capacity(double kbps, const char* where, bool allow_zero) {
  if (!std::isfinite(kbps) || kbps < 0.0 || (kbps == 0.0 && !allow_zero)) {
    throw std::invalid_argument(std::string(where) + ": capacity must be finite and " +
                                (allow_zero ? "non-negative" : "positive"));
  }
}

}  // namespace detail

Swarm::Swarm(const SwarmConfig& config, std::vector<double> upload_kbps, graph::Rng& rng)
    : config_(config),
      rng_(rng),
      picker_(config.num_pieces),
      reserved_scratch_(config.num_pieces),
      leechers_(config.num_peers) {
  if (upload_kbps.size() != config.num_peers) {
    throw std::invalid_argument("Swarm: one upload capacity per leecher required");
  }
  for (const double kbps : upload_kbps) {
    detail::require_capacity(kbps, "Swarm", /*allow_zero=*/true);
  }
  if (!std::isfinite(config.seed_upload_kbps)) {
    throw std::invalid_argument("Swarm: seed_upload_kbps must be finite");
  }
  if (config.num_peers < 2) throw std::invalid_argument("Swarm: need at least 2 peers");
  if (config.num_pieces == 0 || config.piece_kb <= 0.0) {
    throw std::invalid_argument("Swarm: pieces must be positive");
  }
  if (config.initial_completion < 0.0 || config.initial_completion >= 1.0) {
    throw std::invalid_argument("Swarm: initial_completion in [0, 1)");
  }
  if (!config.tft_slots_per_peer.empty() &&
      config.tft_slots_per_peer.size() != config.num_peers) {
    throw std::invalid_argument("Swarm: tft_slots_per_peer needs one entry per leecher");
  }
  const FaultSpec& fspec = config.faults;
  if (fspec.connect_failure_prob < 0.0 || fspec.connect_failure_prob > 1.0 ||
      fspec.nat_fraction < 0.0 || fspec.nat_fraction > 1.0 || fspec.lane_loss_prob < 0.0 ||
      fspec.lane_loss_prob > 1.0) {
    throw std::invalid_argument("Swarm: fault probabilities must be in [0, 1]");
  }
  if (fspec.connect_attempts == 0) {
    throw std::invalid_argument("Swarm: faults.connect_attempts must be >= 1");
  }
  if (fspec.backoff_base == 0 || fspec.backoff_cap < fspec.backoff_base) {
    throw std::invalid_argument("Swarm: faults.backoff_cap >= backoff_base >= 1 required");
  }
  // The per-peer choke streams are keyed off one structural draw, made
  // before any other RNG use so both data planes derive the same key.
  choke_key_ = rng();
  const std::size_t total = config.num_peers + config.seeds;
  const graph::Graph overlay = graph::erdos_renyi_gnd(total, config.neighbor_degree, rng);

  // The initial population occupies rows 0..total-1 in id order, so a
  // static (churn-free) run keeps row == external id throughout.
  for (std::size_t p = 0; p < total; ++p) table_.add(static_cast<core::PeerId>(p));

  // Ingest the (finalized, sorted) overlay adjacency into the slot
  // pool, row-contiguous so a static run keeps CSR-like locality.
  nbr_.resize(total);
  nslot_.resize(total);
  std::size_t slot_count = 0;
  for (std::size_t p = 0; p < total; ++p) {
    slot_count += overlay.degree(static_cast<graph::Vertex>(p));
  }
  edge_peer_.reserve(slot_count);
  for (std::size_t p = 0; p < total; ++p) {
    const auto nbrs = overlay.neighbors(static_cast<graph::Vertex>(p));
    nbr_[p].assign(nbrs.begin(), nbrs.end());
    nslot_[p].resize(nbrs.size());
    for (std::size_t i = 0; i < nbr_[p].size(); ++i) {
      nslot_[p][i] = edge_peer_.size();
      edge_peer_.push_back(nbr_[p][i]);
    }
  }
  // The overlay is simple and undirected with sorted rows, so walking p
  // ascending meets each row q's entries in ascending order: the next
  // unmatched entry of q is p itself, and no slot_of() search is needed.
  mirror_.resize(edge_peer_.size());
  std::vector<std::size_t> matched(total, 0);
  for (std::size_t p = 0; p < total; ++p) {
    for (std::size_t i = 0; i < nbr_[p].size(); ++i) {
      const core::PeerId q = nbr_[p][i];
      mirror_[nslot_[p][i]] = nslot_[q][matched[q]++];
    }
  }
  slot_gen_.assign(edge_peer_.size(), 0);
  rate_in_.assign(edge_peer_.size(), 0.0);
  now_in_.assign(edge_peer_.size(), 0.0);
  rate_out_.assign(edge_peer_.size(), 0.0);
  now_out_.assign(edge_peer_.size(), 0.0);
  inflight_.assign(edge_peer_.size(), kNoPiece);
  mutual_rounds_.assign(edge_peer_.size(), 0);

  stats_.resize(total);
  have_.assign(total, Bitfield(config.num_pieces));
  chokers_.reserve(total);
  for (std::size_t p = 0; p < total; ++p) {
    const std::size_t slots = (p < config.num_peers && !config.tft_slots_per_peer.empty())
                                  ? config.tft_slots_per_peer[p]
                                  : config.tft_slots;
    chokers_.emplace_back(slots, config.optimistic_rounds);
  }
  unchoked_.resize(total);
  partial_.resize(total);
  // Fault rows are filled before the init walk below (which can depart
  // Bernoulli-complete leechers, compacting rows). NAT membership is a
  // counter-stream draw keyed by external id — zero draws when the NAT
  // fraction is off, and independent of the structural generator either
  // way. The initial erdos-renyi overlay is NAT-exempt: it models
  // pre-existing connectivity, not fresh announce dials.
  for (std::size_t p = 0; p < total; ++p) {
    const bool nat =
        fspec.nat_fraction > 0.0 &&
        graph::Rng::stream(choke_key_ ^ kFaultNatSalt, static_cast<core::PeerId>(p), 0)
            .bernoulli(fspec.nat_fraction);
    faults_.add_peer(nat);
  }

  double seed_capacity = config.seed_upload_kbps;
  if (seed_capacity <= 0.0) {
    // Default: the median leecher capacity, so seeds neither starve the
    // swarm nor flood a lucky few.
    std::vector<double> sorted = upload_kbps;
    std::sort(sorted.begin(), sorted.end());
    seed_capacity = sorted[sorted.size() / 2];
  }
  // Initialization walks external ids ascending; a Bernoulli-complete
  // leecher can depart (compacting rows) mid-walk, so every access goes
  // through the table.
  for (std::size_t p = 0; p < total; ++p) {
    const auto id = static_cast<core::PeerId>(p);
    const Row r = table_.row_of(id);
    const bool is_seed = p >= config.num_peers;
    stats_[r].seed = is_seed;
    stats_[r].upload_kbps = is_seed ? seed_capacity : upload_kbps[p];
    if (is_seed) {
      for (PieceId piece = 0; piece < config.num_pieces; ++piece) have_[r].set(piece);
      stats_[r].completion_round = 0.0;
    } else if (config.post_flashcrowd) {
      have_[r] = Bitfield::random(config.num_pieces, config.initial_completion, rng);
    }
    picker_.add_bitfield(have_[r]);
    stats_[r].pieces = have_[r].count();
    if (!is_seed && have_[r].complete()) {
      // The Bernoulli draws can complete a leecher outright; treat it
      // like a round-0 completion so it never divides by the full run
      // length in leech_download_kbps() and departs consistently.
      stats_[r].completion_round = 0.0;
      if (!config.stay_as_seed) depart_peer(id, 0.0);
    }
  }
  refresh_ranks_force();
}

std::size_t Swarm::slot_of(Row pr, core::PeerId q) const {
  const auto& row = nbr_[pr];
  const auto it = std::lower_bound(row.begin(), row.end(), q);
  return nslot_[pr][static_cast<std::size_t>(it - row.begin())];
}

std::size_t Swarm::target_degree() const {
  return static_cast<std::size_t>(std::llround(config_.neighbor_degree));
}

std::size_t Swarm::claim_slot() {
  if (free_slots_.empty()) {
    const std::size_t s = edge_peer_.size();
    edge_peer_.push_back(0);
    mirror_.push_back(0);
    slot_gen_.push_back(0);
    rate_in_.push_back(0.0);
    now_in_.push_back(0.0);
    rate_out_.push_back(0.0);
    now_out_.push_back(0.0);
    inflight_.push_back(kNoPiece);
    mutual_rounds_.push_back(0);
    return s;
  }
  const std::size_t s = free_slots_.back();
  free_slots_.pop_back();
  return s;
}

void Swarm::release_slot(std::size_t s) {
  // edge_peer_/mirror_ go stale on purpose; the generation bump marks
  // every outstanding reference to this slot as dead.
  rate_in_[s] = 0.0;
  now_in_[s] = 0.0;
  rate_out_[s] = 0.0;
  now_out_[s] = 0.0;
  inflight_[s] = kNoPiece;
  mutual_rounds_[s] = 0;
  ++slot_gen_[s];
  free_slots_.push_back(s);
}

void Swarm::connect(core::PeerId p, core::PeerId q) {
  const std::size_t spq = claim_slot();
  const std::size_t sqp = claim_slot();
  edge_peer_[spq] = q;
  edge_peer_[sqp] = p;
  mirror_[spq] = sqp;
  mirror_[sqp] = spq;
  const auto insert_row = [this](Row owner, core::PeerId nb, std::size_t slot) {
    auto& row = nbr_[owner];
    const auto it = std::lower_bound(row.begin(), row.end(), nb);
    const auto idx = it - row.begin();
    row.insert(it, nb);
    nslot_[owner].insert(nslot_[owner].begin() + idx, slot);
  };
  insert_row(table_.row_of(p), q, spq);
  insert_row(table_.row_of(q), p, sqp);
}

void Swarm::flush_mutual(core::PeerId p, core::PeerId q, std::size_t slot_min) {
  if (mutual_rounds_[slot_min] == 0) return;
  if (config_.retain_departed) {
    const core::PeerId a = std::min(p, q);
    const core::PeerId b = std::max(p, q);
    retired_mutual_.emplace_back((static_cast<std::uint64_t>(a) << 32) | b,
                                 mutual_rounds_[slot_min]);
  }
  mutual_rounds_[slot_min] = 0;
}

void Swarm::release_all_edges(core::PeerId p, Row pr) {
  for (std::size_t i = 0; i < nbr_[pr].size(); ++i) {
    const core::PeerId q = nbr_[pr][i];
    const std::size_t spq = nslot_[pr][i];
    const std::size_t sqp = mirror_[spq];
    flush_mutual(p, q, p < q ? spq : sqp);
    release_slot(spq);
    release_slot(sqp);
    const Row qr = table_.row_of(q);
    auto& qrow = nbr_[qr];
    const auto it = std::lower_bound(qrow.begin(), qrow.end(), p);
    const auto idx = it - qrow.begin();
    qrow.erase(it);
    nslot_[qr].erase(nslot_[qr].begin() + idx);
  }
  nbr_[pr].clear();
  nslot_[pr].clear();
}

std::size_t Swarm::connect_random_live(core::PeerId p, std::size_t need) {
  const Row pr = table_.row_of(p);
  return detail::announce_connect(
      table_.ids(), p, need, rng_,
      [&](core::PeerId q) {
        return std::binary_search(nbr_[pr].begin(), nbr_[pr].end(), q);
      },
      [&](core::PeerId q) { connect(p, q); });
}

std::size_t Swarm::announce_with_faults(core::PeerId p, std::size_t need) {
  if (!config_.faults.flaky_connects()) return connect_random_live(p, need);
  const Row pr = table_.row_of(p);
  // One trial stream per announce operation, keyed by the per-peer
  // announce sequence number — the draws depend only on (peer, how many
  // announces it made), never on threads or shard layout.
  graph::Rng trials =
      graph::Rng::stream(choke_key_ ^ kFaultConnectSalt, p, faults_.announce_seq_[pr]++);
  const double fail_prob = config_.faults.connect_failure_prob;
  const std::size_t max_attempts = config_.faults.connect_attempts;
  return detail::announce_connect_faulty(
      table_.ids(), p, need, rng_,
      [&](core::PeerId q) {
        return std::binary_search(nbr_[pr].begin(), nbr_[pr].end(), q);
      },
      [&](core::PeerId q) {
        if (!faults_.rejects_inbound(table_.row_of(q))) return false;
        ++faults_.nat_rejections_;
        return true;
      },
      [&](core::PeerId) {
        if (fail_prob <= 0.0) return true;
        for (std::size_t a = 0; a < max_attempts; ++a) {
          if (!trials.bernoulli(fail_prob)) return true;
        }
        ++faults_.connect_failures_;
        return false;
      },
      [&](core::PeerId q) { connect(p, q); });
}

void Swarm::fault_step() {
  const FaultSpec& fspec = config_.faults;
  if (!fspec.outages()) return;
  const bool down = fspec.tracker_down(round_);
  const std::size_t target = target_degree();
  // Serial ascending row walk. No departures happen here, so rows are
  // stable; announces mutate only adjacency and the structural RNG,
  // exactly like the ChurnDriver's reannounce sweep.
  for (Row r = 0; r < table_.size(); ++r) {
    if (!faults_.retry_pending(r) || faults_.retry_round_[r] > round_) continue;
    ++faults_.announce_retries_;
    if (down) {
      // Still down: the failed retry backs off further (capped).
      faults_.fail_announce(r, round_, fspec);
      continue;
    }
    faults_.reset_retry(r);
    if (nbr_[r].size() < target) {
      announce_with_faults(table_.id_at(r), target - nbr_[r].size());
    }
  }
}

core::PeerId Swarm::join(double upload_kbps, const Bitfield& have) {
  if (have.size() != config_.num_pieces) {
    throw std::invalid_argument("Swarm::join: bitfield size mismatch");
  }
  detail::require_capacity(upload_kbps, "Swarm::join");
  const auto p = static_cast<core::PeerId>(table_.id_space());
  const Row r = table_.add(p);
  stats_.emplace_back();
  stats_[r].upload_kbps = upload_kbps;
  stats_[r].join_round = static_cast<double>(round_);
  stats_[r].pieces = have.count();
  have_.push_back(have);
  picker_.add_bitfield(have);
  chokers_.emplace_back(config_.tft_slots, config_.optimistic_rounds);
  unchoked_.emplace_back();
  partial_.emplace_back();
  nbr_.emplace_back();
  nslot_.emplace_back();
  faults_.add_peer(config_.faults.nat_fraction > 0.0 &&
                   graph::Rng::stream(choke_key_ ^ kFaultNatSalt, p, 0)
                       .bernoulli(config_.faults.nat_fraction));
  ++arrivals_;
  if (config_.faults.tracker_down(round_)) {
    // The arrival's announce never reaches the tracker: it enters with
    // no neighbors (degraded from birth) and retries on backoff.
    faults_.fail_announce(r, round_, config_.faults);
  } else {
    // Tracker announce: uniform picks from the live population.
    announce_with_faults(p, target_degree());
  }
  ++leechers_;
  ranks_dirty_ = true;
  if (have_[r].complete()) {
    stats_[r].completion_round = static_cast<double>(round_);
    if (!config_.stay_as_seed) depart_peer(p, static_cast<double>(round_));
  }
  return p;
}

core::PeerId Swarm::join(double upload_kbps) {
  return join(upload_kbps, Bitfield(config_.num_pieces));
}

void Swarm::leave(core::PeerId p) {
  if (p >= table_.id_space()) throw std::out_of_range("Swarm::leave: unknown peer");
  if (!table_.contains(p)) return;
  depart_peer(p, static_cast<double>(round_));
}

std::size_t Swarm::reannounce(core::PeerId p) {
  if (p >= table_.id_space()) throw std::out_of_range("Swarm::reannounce: unknown peer");
  const Row pr = table_.row_of(p);
  if (pr == PeerTable::kNoRow) return 0;
  if (config_.faults.outages()) {
    if (config_.faults.tracker_down(round_)) {
      // A retry already on the books keeps its (longer) schedule; a
      // fresh failure starts the backoff clock.
      if (!faults_.retry_pending(pr)) faults_.fail_announce(pr, round_, config_.faults);
      return 0;
    }
    // Reached the tracker: reset-on-success, whether or not the degree
    // check below makes any new connections.
    faults_.reset_retry(pr);
  }
  const std::size_t target = target_degree();
  if (nbr_[pr].size() >= target) return 0;
  return announce_with_faults(p, target - nbr_[pr].size());
}

void Swarm::set_upload_capacity(core::PeerId p, double kbps) {
  if (p >= table_.id_space()) {
    throw std::out_of_range("Swarm::set_upload_capacity: unknown peer");
  }
  detail::require_capacity(kbps, "Swarm::set_upload_capacity");
  const Row pr = table_.row_of(p);
  if (pr == PeerTable::kNoRow) return;
  if (stats_[pr].upload_kbps == kbps) return;
  stats_[pr].upload_kbps = kbps;
  ranks_dirty_ = true;
}

std::size_t Swarm::fan_out() const noexcept {
  return config_.threads == 0 ? sim::recommended_threads() : config_.threads;
}

void Swarm::choke_row(Row r, std::vector<ChokeCandidate>& candidates) {
  const auto& row = nbr_[r];
  const auto& slots = nslot_[r];
  candidates.clear();
  const bool serve_fastest = stats_[r].seed || have_[r].complete();
  // Adjacency rows never contain departed peers (their edges were
  // released), so every neighbor is a candidate.
  for (std::size_t i = 0; i < row.size(); ++i) {
    const core::PeerId q = row[i];
    ChokeCandidate c;
    c.peer = q;
    c.interested = wants_from(table_.row_of(q), r);
    // Seed policy: serve the fastest downloaders.
    c.score = serve_fastest ? rate_out_[slots[i]] : rate_in_[slots[i]];
    candidates.push_back(c);
  }
  // All randomness from the row's own counter-based stream: the result
  // depends only on (run key, peer, round), never on which worker or in
  // what order the row was processed.
  graph::Rng stream = graph::Rng::stream(choke_key_, table_.id_at(r), round_);
  chokers_[r].select_into(candidates, stream, unchoked_[r]);
}

void Swarm::choke_step() {
  // Score/select fan-out: every read (rates, bitfields, stats, table)
  // is phase-immutable, every write (choker state, unchoke set) is
  // row-owned, so chunks over disjoint row ranges never race.
  const std::size_t n = table_.size();
  const std::size_t threads = fan_out();
  const std::size_t chunks = sim::chunk_count(n, threads, kRowGrain);
  if (choke_scratch_.size() < chunks) choke_scratch_.resize(chunks);
  sim::parallel_for_chunks(n, threads, kRowGrain,
                           [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                             auto& scratch = choke_scratch_[chunk];
                             for (std::size_t r = begin; r < end; ++r) {
                               choke_row(static_cast<Row>(r), scratch);
                             }
                           });
}

void Swarm::count_incoming_unchokes() {
  const std::size_t n = table_.size();
  const std::size_t threads = fan_out();
  const std::size_t chunks = sim::chunk_count(n, threads, kRowGrain);
  if (chunks <= 1) {
    incoming_unchokes_.assign(n, 0);
    for (Row r = 0; r < table_.size(); ++r) {
      for (const core::PeerId q : unchoked_[r]) ++incoming_unchokes_[table_.row_of(q)];
    }
    return;
  }
  // No zero-fill on this path: the merge pass overwrites every element.
  incoming_unchokes_.resize(n);
  // Scatter increments race, so each chunk tallies into its own buffer;
  // the merge is integer addition — associative and commutative, hence
  // bitwise identical to the serial count at any thread count.
  if (incoming_scratch_.size() < chunks) incoming_scratch_.resize(chunks);
  sim::parallel_for_chunks(n, threads, kRowGrain,
                           [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                             auto& local = incoming_scratch_[chunk];
                             local.assign(n, 0);
                             for (std::size_t r = begin; r < end; ++r) {
                               for (const core::PeerId q : unchoked_[r]) {
                                 ++local[table_.row_of(q)];
                               }
                             }
                           });
  sim::parallel_for_chunks(n, threads, kRowGrain,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t r = begin; r < end; ++r) {
                               std::uint32_t sum = 0;
                               for (std::size_t c = 0; c < chunks; ++c) {
                                 sum += incoming_scratch_[c][r];
                               }
                               incoming_unchokes_[r] = sum;
                             }
                           });
}

void Swarm::record_mutual_unchokes() {
  // Mutual unchokes among present, still-downloading leechers: these
  // are the effective TFT collaborations the matching model describes.
  // No departures can occur between the choke step and here, so every
  // unchoked target still owns a live row.
  for (Row r = 0; r < table_.size(); ++r) {
    if (stats_[r].seed || have_[r].complete()) continue;
    const core::PeerId p = table_.id_at(r);
    for (core::PeerId q : unchoked_[r]) {
      if (q <= p) continue;
      const Row qr = table_.row_of(q);
      if (stats_[qr].seed || have_[qr].complete()) continue;
      const auto& back = unchoked_[qr];
      if (std::find(back.begin(), back.end(), p) != back.end()) {
        ++mutual_rounds_[slot_of(r, q)];
      }
    }
  }
}

std::optional<PieceId> Swarm::pick_for(Row qr, Row pr, std::size_t slot_qp, graph::Rng& rng) {
  if (config_.endgame) {
    const std::size_t missing = config_.num_pieces - stats_[qr].pieces;
    if (missing >= incoming_unchokes_[qr]) {
      // Non-endgame phase: each sender gets a distinct missing piece —
      // exclude pieces already in flight to q from other neighbors.
      for (const PieceId piece : reserved_list_) reserved_scratch_.reset(piece);
      reserved_list_.clear();
      const auto& slots = nslot_[qr];
      for (const std::size_t s : slots) {
        if (s == slot_qp) continue;
        const PieceId t = inflight_[s];
        if (t != kNoPiece && !have_[qr].test(t)) {
          reserved_scratch_.set(t);
          reserved_list_.push_back(t);
        }
      }
      return picker_.pick_rarest(have_[qr], have_[pr], reserved_scratch_, rng);
    }
    // Endgame phase: the missing set is smaller than the receiver's
    // inbound unchoke count — duplicate in-flight targets are allowed
    // (first completion cancels the rest via the staleness re-pick).
  }
  return picker_.pick_rarest(have_[qr], have_[pr], rng);
}

std::optional<PieceId> Swarm::plan_pick(const detail::TransferLane& lane, Row qr, Row pr,
                                        graph::Rng& rng, TransferScratch& scratch) {
  bool endgame_dup = false;
  if (config_.endgame) {
    // Endgame discipline against the *local* view: the receiver's
    // snapshot piece count plus what this lane completed for it.
    const std::size_t missing =
        config_.num_pieces - (stats_[qr].pieces + lane.completed.size());
    endgame_dup = missing < incoming_unchokes_[qr];
  }
  if (endgame_dup && lane.completed.empty()) {
    // Endgame phase: duplicate in-flight targets are allowed and there
    // is no lane-local state to hold back — pick over the raw bitfields.
    return picker_.pick_rarest(have_[qr], have_[pr], rng);
  }
  if (scratch.reserved.size() != config_.num_pieces) {
    scratch.reserved = Bitfield(config_.num_pieces);
  }
  for (const PieceId piece : scratch.reserved_list) scratch.reserved.reset(piece);
  scratch.reserved_list.clear();
  scratch.reserved_partials.clear();
  // Locally completed pieces are held in the plan's view even though
  // the snapshot bitfield doesn't know yet. Reserved FIRST so the
  // partial scan below can't classify them into the releasable soft
  // tier (a lane-completed piece usually still has snapshot partial
  // progress) — releasing one would let the lane re-complete it.
  for (const PieceId t : lane.completed) {
    if (scratch.reserved.test(t)) continue;
    scratch.reserved.set(t);
    scratch.reserved_list.push_back(t);
  }
  if (!endgame_dup) {
    if (config_.endgame) {
      // Non-endgame phase of an endgame run: each sender gets a distinct
      // missing piece — hard-exclude pieces already in flight to q from
      // other neighbors. Reservations come from the phase-start
      // in-flight snapshot (the compute stage never mutates it), not the
      // live mid-phase state the serial algorithm used to see.
      for (const std::size_t s : nslot_[qr]) {
        if (s == lane.slot_qp) continue;
        const PieceId t = inflight_[s];
        if (t != kNoPiece && !have_[qr].test(t)) {
          scratch.reserved.set(t);
          scratch.reserved_list.push_back(t);
        }
      }
    }
    // Soft-demote every piece the receiver already has partial progress
    // on: some lane is (or recently was) feeding it, so a speculative
    // fresh pick landing there is nearly guaranteed stale at commit.
    // Unlike the in-flight tier this one is released below if no other
    // candidate exists, so orphaned partials still get adopted.
    for (const auto& entry : partial_[qr]) {
      if (scratch.reserved.test(entry.first)) continue;
      scratch.reserved.set(entry.first);
      scratch.reserved_list.push_back(entry.first);
      scratch.reserved_partials.push_back(entry.first);
    }
  }
  const auto pick = picker_.pick_rarest(have_[qr], have_[pr], scratch.reserved, rng);
  if (pick || scratch.reserved_partials.empty()) return pick;
  // Fallback tier: everything else is reserved or held — let the
  // partially-downloaded pieces back in. The bits stay in
  // reserved_list, so the next call's reset loop remains correct.
  for (const PieceId t : scratch.reserved_partials) scratch.reserved.reset(t);
  return picker_.pick_rarest(have_[qr], have_[pr], scratch.reserved, rng);
}

double Swarm::partial_progress(Row qr, PieceId piece) const {
  for (const auto& entry : partial_[qr]) {
    if (entry.first == piece) return entry.second;
  }
  return 0.0;
}

void Swarm::complete_piece(core::PeerId q, Row qr, PieceId piece) {
  have_[qr].set(piece);
  picker_.add_availability(piece);
  stats_[qr].pieces = have_[qr].count();
  if (have_[qr].complete() && stats_[qr].completion_round < 0.0) {
    stats_[qr].completion_round = static_cast<double>(round_ + 1);
    if (!config_.stay_as_seed && !stats_[qr].seed) {
      depart_peer(q, static_cast<double>(round_ + 1));
    }
  }
}

void Swarm::depart_peer(core::PeerId p, double when) {
  const Row pr = table_.row_of(p);
  stats_[pr].leave_round = when;
  ++departures_;
  // Its copies leave the swarm: rarest-first must stop counting them.
  picker_.remove_bitfield(have_[pr]);
  partial_[pr].clear();
  unchoked_[pr].clear();
  release_all_edges(p, pr);
  if (!stats_[pr].seed && stats_[pr].pieces == config_.num_pieces) ++retired_completed_;
  if (config_.retain_departed) {
    if (retired_ix_.size() < table_.id_space()) {
      retired_ix_.resize(table_.id_space(), kNoRetired);
    }
    retired_ix_[p] = static_cast<std::uint32_t>(retired_stats_.size());
    retired_stats_.push_back(stats_[pr]);
  } else {
    // Live-only bandwidth ranks change when the live set shrinks.
    ranks_dirty_ = true;
  }
  // Compact the row space: the table swaps the last row's occupant into
  // the hole, and every row-indexed container mirrors that move.
  const auto rem = table_.remove(p);
  const auto last = static_cast<Row>(table_.size());  // the old last row
  if (rem.row != last) {
    stats_[rem.row] = stats_[last];
    have_[rem.row] = std::move(have_[last]);
    chokers_[rem.row] = std::move(chokers_[last]);
    unchoked_[rem.row] = std::move(unchoked_[last]);
    nbr_[rem.row] = std::move(nbr_[last]);
    nslot_[rem.row] = std::move(nslot_[last]);
    partial_[rem.row] = std::move(partial_[last]);
    // Mid-round (endgame) the incoming counts are row-aligned too.
    if (incoming_unchokes_.size() == static_cast<std::size_t>(last) + 1) {
      incoming_unchokes_[rem.row] = incoming_unchokes_[last];
    }
  }
  faults_.compact(rem.row, last);
  stats_.pop_back();
  have_.pop_back();
  chokers_.pop_back();
  unchoked_.pop_back();
  nbr_.pop_back();
  nslot_.pop_back();
  partial_.pop_back();
  if (incoming_unchokes_.size() == static_cast<std::size_t>(last) + 1) {
    incoming_unchokes_.pop_back();
  }
}

double Swarm::send_to(core::PeerId p, core::PeerId q, std::size_t slot_pq, double budget,
                      graph::Rng& rng) {
  double remaining = budget;
  // Apply bytes to pieces until the budget is spent or q stops wanting
  // anything p has. Rows are re-resolved every pass: a completion can
  // depart q (or compact p's row) mid-transfer.
  while (remaining > 0.0) {
    const Row qr = table_.row_of(q);
    if (qr == PeerTable::kNoRow) break;  // q completed and departed
    const Row pr = table_.row_of(p);
    const std::size_t slot_qp = mirror_[slot_pq];  // receiver-owned slot
    PieceId target = inflight_[slot_qp];
    if (target == kNoPiece || have_[qr].test(target) || !have_[pr].test(target)) {
      const auto pick = pick_for(qr, pr, slot_qp, rng);
      if (!pick) break;
      target = *pick;
      inflight_[slot_qp] = target;
    }
    auto& partial = partial_[qr];
    auto it = std::find_if(partial.begin(), partial.end(),
                           [&](const auto& entry) { return entry.first == target; });
    if (it == partial.end()) {
      partial.emplace_back(target, 0.0);
      it = partial.end() - 1;
    }
    const double need = config_.piece_kb - it->second;
    const double chunk = std::min(need, remaining);
    it->second += chunk;
    remaining -= chunk;
    stats_[pr].uploaded_kb += chunk;
    stats_[qr].downloaded_kb += chunk;
    now_in_[slot_qp] += chunk;
    now_out_[slot_pq] += chunk;
    if (it->second >= config_.piece_kb - 1e-9) {
      partial.erase(it);
      inflight_[slot_qp] = kNoPiece;
      complete_piece(q, qr, target);
    }
  }
  return budget - remaining;
}

void Swarm::plan_transfers(core::PeerId p, TransferScratch& scratch) {
  const Row pr = table_.row_of(p);
  if (pr == PeerTable::kNoRow) return;
  // Active transfers: unchoked neighbors that actually want data.
  // (receiver, sender-side slot): the slot is loop-invariant per pair,
  // so resolve it once instead of per redistribution pass.
  scratch.hungry.clear();
  for (core::PeerId q : unchoked_[pr]) {
    const Row qr = table_.row_of(q);
    if (qr == PeerTable::kNoRow) continue;  // departed before this phase
    if (wants_from(qr, pr)) scratch.hungry.emplace_back(q, slot_of(pr, q));
  }
  if (scratch.hungry.empty()) return;
  // One lane per receiver: the lane carries the plan-local view of the
  // in-flight target and partial progress so repeated redistribution
  // passes against the same receiver resume where the last one stopped
  // instead of re-reading the (immutable) snapshot.
  const std::size_t lane_count = scratch.hungry.size();
  if (scratch.lanes.size() < lane_count) scratch.lanes.resize(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) {
    const auto [q, slot_pq] = scratch.hungry[i];
    const std::size_t slot_qp = mirror_[slot_pq];
    scratch.lanes[i].reset(q, table_.row_of(q), slot_pq, slot_qp, inflight_[slot_qp]);
    scratch.lanes[i].ordinal = static_cast<std::uint32_t>(i);
    // Repoint the hungry item at its lane: redistribute_upload swaps
    // survivors between its two vectors but never invents items, so
    // the index stays valid for the whole plan.
    scratch.hungry[i].second = i;
  }
  const std::uint32_t grants_begin = static_cast<std::uint32_t>(scratch.grants.size());
  graph::Rng stream = transfer_stream(p);
  // kbps -> KB per round.
  const double budget = stats_[pr].upload_kbps / 8.0 * config_.round_seconds;
  detail::redistribute_upload(
      budget, scratch.hungry, scratch.next_hungry,
      [&](const std::pair<core::PeerId, std::size_t>& item, double share) {
        detail::TransferLane* lane = &scratch.lanes[item.second];
        const Row qr = static_cast<Row>(lane->row);
        return detail::plan_lane_send(
            config_.piece_kb, *lane, scratch.grants, share,
            [&](PieceId t) { return have_[pr].test(t); },
            [&](PieceId t) { return have_[qr].test(t); },
            [&](PieceId t) { return partial_progress(qr, t); },
            [&](const detail::TransferLane& l) { return plan_pick(l, qr, pr, stream, scratch); });
      });
  if (scratch.grants.size() > grants_begin) {
    scratch.plans.push_back({p, grants_begin, static_cast<std::uint32_t>(scratch.grants.size()),
                             static_cast<std::uint32_t>(lane_count)});
  }
}

void Swarm::commit_transfers(std::size_t chunks) {
  // Chunk-major replay: chunks partition the sender order contiguously
  // and ascending, so walking chunk 0's plans, then chunk 1's, ... is
  // exactly the serial sender order regardless of thread count.
  for (std::size_t c = 0; c < chunks; ++c) {
    for (const detail::SenderPlan& plan : transfer_scratch_[c].plans) {
      const std::vector<detail::TransferGrant>& grants = transfer_scratch_[c].grants;
      if (table_.row_of(plan.sender) == PeerTable::kNoRow) continue;  // departed mid-commit
      // Group the plan's grants by lane (receiver) and validate each
      // lane against live state: a grant is stale if its receiver
      // departed, already holds the piece (an earlier commit completed
      // it first), or the piece's partial progress moved since the
      // snapshot (another sender fed it). Staleness discards the
      // *lane*, not the whole plan — lanes are independent receivers,
      // and rarest-first makes same-receiver pick collisions common
      // enough that plan-level invalidation would re-run a majority of
      // senders.
      commit_lanes_.assign(plan.lane_count, CommitLane{});
      std::size_t used_lanes = 0;
      std::size_t stale_lanes = 0;
      for (std::uint32_t g = plan.begin; g != plan.end; ++g) {
        const detail::TransferGrant& grant = grants[g];
        CommitLane& lane = commit_lanes_[grant.lane];
        if (!lane.used) {
          lane.used = true;
          ++used_lanes;
          lane.receiver = grant.receiver;
          lane.slot_pq = grant.slot_pq;
          lane.row = table_.row_of(grant.receiver);  // rows cannot move during grouping
        }
        lane.kb += grant.kb;
        if (lane.stale) continue;
        const Row qr = lane.row;
        if (qr == PeerTable::kNoRow || have_[qr].test(grant.piece) ||
            partial_progress(qr, grant.piece) != grant.base_kb) {
          lane.stale = true;
          ++stale_lanes;
        }
      }
      profile_.transfer_lanes += used_lanes;
      // Fault injection: each used lane may be lost at commit time
      // (transfer timeout). Draws come from the per-sender counter
      // stream in lane-ordinal order — stale lanes draw too, so the
      // sequence is a pure function of the plan's shape and both data
      // planes consume identically. A lost lane forfeits its bytes
      // outright: no verbatim apply, no stale repair; the receivers
      // re-enter the normal redistribute path next round.
      if (config_.faults.lossy_lanes() && used_lanes > 0) {
        graph::Rng loss =
            graph::Rng::stream(choke_key_ ^ kFaultLaneSalt, plan.sender, round_);
        for (CommitLane& lane : commit_lanes_) {
          if (!lane.used) continue;
          if (!loss.bernoulli(config_.faults.lane_loss_prob)) continue;
          lane.lost = true;
          ++faults_.lost_lanes_;
          if (lane.stale) --stale_lanes;  // lost wins: never repaired
        }
      }
      // Apply the valid lanes' grants verbatim, in planned order.
      Row pr = table_.row_of(plan.sender);
      bool moved = false;  // a completion departure compacted rows mid-plan
      for (std::uint32_t g = plan.begin; g != plan.end; ++g) {
        const detail::TransferGrant& grant = grants[g];
        const CommitLane* lane = &commit_lanes_[grant.lane];
        if (lane->stale || lane->lost) continue;
        Row qr = lane->row;
        if (moved) {
          // An earlier grant in this very plan completed a receiver and
          // departed it (slots released and zeroed), compacting rows:
          // the cached lane rows — and the sender's own row — are void,
          // and this grant's receiver may itself be gone. Validation
          // can't see this; it only proves the receiver was live at
          // plan granularity.
          qr = table_.row_of(grant.receiver);
          if (qr == PeerTable::kNoRow) continue;
          pr = table_.row_of(plan.sender);
        }
        stats_[pr].uploaded_kb += grant.kb;
        stats_[qr].downloaded_kb += grant.kb;
        now_in_[grant.slot_qp] += grant.kb;
        now_out_[grant.slot_pq] += grant.kb;
        auto& partial = partial_[qr];
        auto it = std::find_if(partial.begin(), partial.end(),
                               [&](const auto& entry) { return entry.first == grant.piece; });
        if (grant.completes) {
          if (it != partial.end()) partial.erase(it);
          inflight_[grant.slot_qp] = kNoPiece;
          complete_piece(grant.receiver, qr, grant.piece);
          moved = true;
        } else {
          // Committed verbatim (assignment, not +=): the plan accumulated
          // final_kb add-by-add in the serial order, so the stored double
          // is bit-identical to what the serial algorithm would hold.
          if (it != partial.end()) {
            it->second = grant.final_kb;
          } else {
            partial.emplace_back(grant.piece, grant.final_kb);
          }
          inflight_[grant.slot_qp] = grant.piece;
        }
      }
      // Re-drive each stale lane's planned KB against live state on the
      // per-sender repair stream: directly at its own receiver first —
      // usually still live and hungry, so the common repair is one
      // cheap single-lane re-plan. Budget a lane can no longer absorb
      // (receiver complete or departed) falls back to a redistribution
      // round over the sender's live still-hungry receivers, keeping
      // the serial-era contract that an early completion strands no
      // budget while a sibling still starves.
      if (stale_lanes > 0) {
        const auto r0 = std::chrono::steady_clock::now();
        profile_.transfer_reruns += stale_lanes;
        graph::Rng repairs = rerun_stream(plan.sender);
        double leftover = 0.0;
        for (const CommitLane& lane : commit_lanes_) {
          if (!lane.stale || lane.lost) continue;
          leftover +=
              lane.kb - send_to(plan.sender, lane.receiver, lane.slot_pq, lane.kb, repairs);
        }
        if (leftover > kBudgetEpsilon) {
          const Row rpr = table_.row_of(plan.sender);
          hungry_scratch_.clear();
          for (core::PeerId q : unchoked_[rpr]) {
            const Row qr = table_.row_of(q);
            if (qr == PeerTable::kNoRow) continue;  // completed and departed
            if (wants_from(qr, rpr)) hungry_scratch_.emplace_back(q, slot_of(rpr, q));
          }
          if (!hungry_scratch_.empty()) {
            detail::redistribute_upload(leftover, hungry_scratch_, next_hungry_scratch_,
                                        [&](const std::pair<core::PeerId, std::size_t>& item,
                                            double share) {
                                          return send_to(plan.sender, item.first, item.second,
                                                         share, repairs);
                                        });
          }
        }
        profile_.transfer_rerun_seconds += seconds_since(r0, std::chrono::steady_clock::now());
      }
    }
  }
}

void Swarm::transfer_step() {
  const auto t0 = std::chrono::steady_clock::now();
  // Sender order snapshot by external id: completion departures compact
  // rows at commit time, so iterating rows directly would skip or
  // repeat peers. A sender that departed mid-round resolves to no row
  // and is skipped (its unchoke set was cleared anyway).
  order_scratch_.assign(table_.ids().begin(), table_.ids().end());
  const std::size_t n = order_scratch_.size();
  const std::size_t threads = fan_out();
  const std::size_t chunks = sim::chunk_count(n, threads, kRowGrain);
  if (transfer_scratch_.size() < chunks) transfer_scratch_.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    transfer_scratch_[c].grants.clear();
    transfer_scratch_[c].plans.clear();
  }
  // Compute stage: every sender plans against the immutable phase-start
  // snapshot, writing only into its chunk's buffers. No shared state is
  // mutated, so chunks are free to run concurrently; the commit stage
  // below replays the plans in serial sender order.
  sim::parallel_for_chunks(n, threads, kRowGrain,
                           [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                             TransferScratch& scratch = transfer_scratch_[chunk];
                             for (std::size_t i = begin; i < end; ++i) {
                               plan_transfers(order_scratch_[i], scratch);
                             }
                           });
  const auto t1 = std::chrono::steady_clock::now();
  commit_transfers(chunks);
  const auto t2 = std::chrono::steady_clock::now();
  profile_.transfer_compute_seconds += seconds_since(t0, t1);
  profile_.transfer_commit_seconds += seconds_since(t1, t2);
}

void Swarm::fold_rates() {
  // Fold this round's transfers into the smoothed per-neighbor rates:
  // one pass over the whole slot pool, no hashing. Free slots are
  // zeroed at release, so folding them is a no-op. Slots are
  // independent, so the pool maps cleanly over contiguous chunks.
  const double alpha = config_.rate_smoothing;
  sim::parallel_for_chunks(edge_peer_.size(), fan_out(), kSlotGrain,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             for (std::size_t s = begin; s < end; ++s) {
                               rate_in_[s] = alpha * now_in_[s] + (1.0 - alpha) * rate_in_[s];
                               now_in_[s] = 0.0;
                               rate_out_[s] = alpha * now_out_[s] + (1.0 - alpha) * rate_out_[s];
                               now_out_[s] = 0.0;
                             }
                           });
}

void Swarm::run_round() {
  using clock = std::chrono::steady_clock;
  if (config_.faults.outages()) {
    const auto f0 = clock::now();
    fault_step();
    profile_.fault_seconds += seconds_since(f0, clock::now());
  }
  const auto t0 = clock::now();
  choke_step();
  const auto t1 = clock::now();
  if (config_.endgame) count_incoming_unchokes();
  const auto t2 = clock::now();
  record_mutual_unchokes();
  const auto t3 = clock::now();
  transfer_step();
  const auto t4 = clock::now();
  fold_rates();
  const auto t5 = clock::now();
  profile_.choke_seconds += seconds_since(t0, t1);
  profile_.endgame_seconds += seconds_since(t1, t2);
  profile_.mutual_seconds += seconds_since(t2, t3);
  profile_.transfer_seconds += seconds_since(t3, t4);
  profile_.fold_seconds += seconds_since(t4, t5);
  ++round_;
  if (config_.faults.enabled()) {
    profile_.fault_failed_announces = faults_.failed_announces_;
    profile_.fault_retries = faults_.announce_retries_;
    profile_.fault_connect_failures = faults_.connect_failures_;
    profile_.fault_nat_rejections = faults_.nat_rejections_;
    profile_.fault_lost_lanes = faults_.lost_lanes_;
    profile_.fault_degraded_peers = faults_.degraded_count();
  }
  // Round boundary — the valid checkpoint point. The save itself never
  // consumes RNG, so autosave cadence cannot perturb the run.
  if (autosaver_.has_value() && autosaver_->due(round_)) {
    std::string payload;
    save(payload);
    autosaver_->write(round_, payload);
  }
}

void Swarm::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

void Swarm::autosave_every(std::size_t every, const std::filesystem::path& dir,
                           std::size_t keep) {
  autosaver_.emplace(every, dir, keep);
}

void Swarm::reset_stratification() {
  std::fill(mutual_rounds_.begin(), mutual_rounds_.end(), 0);
  retired_mutual_.clear();
}

const PeerStats& Swarm::stats(core::PeerId p) const {
  const Row r = table_.row_of(p);
  if (r != PeerTable::kNoRow) return stats_[r];
  if (p >= table_.id_space()) throw std::out_of_range("Swarm::stats: unknown peer");
  if (!config_.retain_departed || p >= retired_ix_.size() || retired_ix_[p] == kNoRetired) {
    throw std::out_of_range("Swarm::stats: departed peer not retained");
  }
  return retired_stats_[retired_ix_[p]];
}

bool Swarm::departed(core::PeerId p) const {
  if (p >= table_.id_space()) throw std::out_of_range("Swarm::departed: unknown peer");
  return !table_.contains(p);
}

std::span<const core::PeerId> Swarm::neighbors(core::PeerId p) const {
  const Row r = table_.row_of(p);
  if (r == PeerTable::kNoRow) {
    if (p >= table_.id_space()) throw std::out_of_range("Swarm::neighbors: unknown peer");
    return {};
  }
  return {nbr_[r].data(), nbr_[r].size()};
}

std::size_t Swarm::completed_leechers() const {
  // O(live) + the running count of departed-complete leechers — the
  // bitwise equivalent of scanning every bitfield ever.
  std::size_t done = retired_completed_;
  for (Row r = 0; r < table_.size(); ++r) {
    if (!stats_[r].seed && have_[r].complete()) ++done;
  }
  return done;
}

double Swarm::mean_download_kbps(core::PeerId p) const {
  const PeerStats& s = stats(p);
  const double end = s.leave_round >= 0.0 ? s.leave_round : static_cast<double>(round_);
  const double rounds = end - s.join_round;
  if (rounds <= 0.0) return 0.0;
  return s.downloaded_kb * 8.0 / (rounds * config_.round_seconds);
}

double Swarm::leech_download_kbps(core::PeerId p) const {
  const PeerStats& s = stats(p);
  const double end = s.completion_round >= 0.0
                         ? s.completion_round
                         : (s.leave_round >= 0.0 ? s.leave_round : static_cast<double>(round_));
  const double rounds = end - s.join_round;
  if (rounds <= 0.0) return 0.0;
  return s.downloaded_kb * 8.0 / (rounds * config_.round_seconds);
}

Swarm::AvailabilityStats Swarm::availability_stats() const {
  AvailabilityStats out;
  const std::size_t pieces = config_.num_pieces;
  if (pieces == 0) return out;
  out.min = picker_.availability(0);
  out.max = out.min;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (PieceId piece = 0; piece < pieces; ++piece) {
    const std::uint32_t a = picker_.availability(piece);
    out.min = std::min(out.min, a);
    out.max = std::max(out.max, a);
    sum += static_cast<double>(a);
    sum_sq += static_cast<double>(a) * static_cast<double>(a);
  }
  out.mean = sum / static_cast<double>(pieces);
  const double variance = sum_sq / static_cast<double>(pieces) - out.mean * out.mean;
  out.coefficient_of_variation =
      out.mean > 0.0 ? std::sqrt(std::max(0.0, variance)) / out.mean : 0.0;
  return out;
}

void Swarm::refresh_ranks_force() const {
  if (config_.retain_departed) {
    leechers_ranked_ = detail::rebuild_bandwidth_ranks_by(
        table_.id_space(), [&](core::PeerId p) -> const PeerStats& { return stats(p); },
        bandwidth_rank_);
  } else {
    // Without the archive, departed capacities are gone: rank the live
    // leechers only (same shared (capacity desc, id asc) assignment).
    std::vector<core::PeerId> order;
    order.reserve(table_.size());
    for (Row r = 0; r < table_.size(); ++r) {
      if (!stats_[r].seed) order.push_back(table_.id_at(r));
    }
    detail::assign_capacity_ranks(
        order, [&](core::PeerId p) { return stats_[table_.row_of(p)].upload_kbps; },
        table_.id_space(), bandwidth_rank_);
    leechers_ranked_ = order.size();
  }
  ranks_dirty_ = false;
}

void Swarm::refresh_ranks() const {
  if (!ranks_dirty_) return;
  refresh_ranks_force();
}

std::vector<std::pair<core::PeerId, core::PeerId>> Swarm::reciprocated_pairs() const {
  refresh_ranks();
  std::vector<std::pair<core::PeerId, core::PeerId>> pairs;
  for (Row r = 0; r < table_.size(); ++r) {
    if (stats_[r].seed) continue;
    const core::PeerId p = table_.id_at(r);
    for (core::PeerId q : unchoked_[r]) {
      if (q <= p) continue;
      const Row qr = table_.row_of(q);
      if (qr == PeerTable::kNoRow || stats_[qr].seed) continue;
      const auto& back = unchoked_[qr];
      if (std::find(back.begin(), back.end(), p) != back.end()) {
        if (bandwidth_rank_[p] <= bandwidth_rank_[q]) {
          pairs.emplace_back(p, q);
        } else {
          pairs.emplace_back(q, p);
        }
      }
    }
  }
  return pairs;
}

StratificationReport Swarm::stratification() const {
  refresh_ranks();
  StratificationReport report;
  // Collect every pair's accumulated rounds: live slots plus the
  // retired records of released edges, merged per pair so a
  // disconnected-then-reconnected pair counts once — exactly the
  // map-per-pair semantics of ReferenceSwarm.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> records = retired_mutual_;
  for (Row r = 0; r < table_.size(); ++r) {
    if (stats_[r].seed) continue;
    const core::PeerId p = table_.id_at(r);
    const auto& row = nbr_[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      const core::PeerId q = row[i];
      if (q <= p) continue;
      const Row qr = table_.row_of(q);
      if (stats_[qr].seed) continue;
      const std::uint32_t rounds = mutual_rounds_[nslot_[r][i]];
      if (rounds == 0) continue;
      records.emplace_back((static_cast<std::uint64_t>(p) << 32) | q, rounds);
    }
  }
  std::sort(records.begin(), records.end());
  std::size_t merged = 0;
  for (std::size_t i = 0; i < records.size();) {
    std::uint64_t key = records[i].first;
    std::uint32_t rounds = records[i].second;
    for (++i; i < records.size() && records[i].first == key; ++i) rounds += records[i].second;
    records[merged++] = {key, rounds};
  }
  records.resize(merged);

  // Offsets are normalized by the leecher population the ranks cover:
  // leechers-ever with the archive, live leechers without it.
  const std::size_t norm = config_.retain_departed ? leechers_ : leechers_ranked_;
  report.reciprocated_pairs = records.size();
  if (records.empty() || norm < 3) return report;

  double offset_sum = 0.0;
  double weight_sum = 0.0;
  std::vector<double> partner_rank_sum(table_.id_space(), 0.0);
  std::vector<double> partner_weight(table_.id_space(), 0.0);
  // Pair order = (a ascending, b ascending): deterministic accumulation
  // shared with ReferenceSwarm.
  for (const auto& [key, rounds] : records) {
    const auto a = static_cast<core::PeerId>(key >> 32);
    const auto b = static_cast<core::PeerId>(key & 0xFFFFFFFFu);
    const double w = static_cast<double>(rounds);
    const double ra = static_cast<double>(bandwidth_rank_[a]);
    const double rb = static_cast<double>(bandwidth_rank_[b]);
    offset_sum += w * std::abs(ra - rb) / static_cast<double>(norm);
    weight_sum += w;
    partner_rank_sum[a] += w * rb;
    partner_weight[a] += w;
    partner_rank_sum[b] += w * ra;
    partner_weight[b] += w;
  }
  report.mean_normalized_offset = offset_sum / weight_sum;

  std::vector<double> own;
  std::vector<double> partner;
  for (std::size_t p = 0; p < partner_weight.size(); ++p) {
    if (partner_weight[p] == 0.0) continue;
    own.push_back(static_cast<double>(bandwidth_rank_[p]));
    partner.push_back(partner_rank_sum[p] / partner_weight[p]);
  }
  if (own.size() >= 3) {
    report.partner_rank_correlation = sim::spearman(own, partner);
  }
  return report;
}

Swarm::MemoryFootprint Swarm::memory_footprint() const {
  MemoryFootprint out;
  out.live_peers = table_.size();
  const auto flat = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  const auto nested = [&flat](const auto& outer) {
    std::size_t bytes = flat(outer);
    for (const auto& inner : outer) bytes += flat(inner);
    return bytes;
  };
  out.peer_state_bytes = table_.row_bytes() + flat(stats_) + flat(chokers_) +
                         nested(unchoked_) + nested(nbr_) + nested(nslot_) + nested(partial_) +
                         flat(incoming_unchokes_) + flat(order_scratch_) +
                         nested(choke_scratch_) + nested(incoming_scratch_) +
                         flat(commit_lanes_) + flat(transfer_scratch_) +
                         flat(hungry_scratch_) + flat(next_hungry_scratch_) +
                         flat(faults_.nat_) + flat(faults_.retry_round_) +
                         flat(faults_.retry_count_) + flat(faults_.announce_seq_);
  for (const TransferScratch& s : transfer_scratch_) {
    out.peer_state_bytes += flat(s.hungry) + flat(s.next_hungry) + flat(s.lanes) +
                            flat(s.grants) + flat(s.plans) +
                            s.reserved.words().size() * sizeof(std::uint64_t) +
                            flat(s.reserved_list) + flat(s.reserved_partials);
    for (const detail::TransferLane& lane : s.lanes) {
      out.peer_state_bytes += flat(lane.completed);
    }
  }
  for (const Bitfield& b : have_) {
    out.peer_state_bytes += sizeof(Bitfield) + b.words().size() * sizeof(std::uint64_t);
  }
  out.edge_slot_bytes = flat(edge_peer_) + flat(mirror_) + flat(slot_gen_) + flat(free_slots_) +
                        flat(rate_in_) + flat(now_in_) + flat(rate_out_) + flat(now_out_) +
                        flat(inflight_) + flat(mutual_rounds_);
  out.id_index_bytes = table_.id_map_bytes() + flat(retired_ix_) + flat(bandwidth_rank_);
  out.retired_bytes = flat(retired_stats_) + flat(retired_mutual_);
  return out;
}

}  // namespace strat::bt
