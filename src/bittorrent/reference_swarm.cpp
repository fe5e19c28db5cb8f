#include "bittorrent/reference_swarm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/erdos_renyi.hpp"
#include "sim/stats.hpp"

namespace strat::bt {

ReferenceSwarm::ReferenceSwarm(const SwarmConfig& config, std::vector<double> upload_kbps,
                               graph::Rng& rng)
    : config_(config),
      rng_(rng),
      picker_(config.num_pieces),
      reserved_scratch_(config.num_pieces),
      leechers_(config.num_peers) {
  if (upload_kbps.size() != config.num_peers) {
    throw std::invalid_argument("ReferenceSwarm: one upload capacity per leecher required");
  }
  for (const double kbps : upload_kbps) {
    detail::require_capacity(kbps, "ReferenceSwarm", /*allow_zero=*/true);
  }
  if (!std::isfinite(config.seed_upload_kbps)) {
    throw std::invalid_argument("ReferenceSwarm: seed_upload_kbps must be finite");
  }
  if (config.num_peers < 2) throw std::invalid_argument("ReferenceSwarm: need at least 2 peers");
  if (config.num_pieces == 0 || config.piece_kb <= 0.0) {
    throw std::invalid_argument("ReferenceSwarm: pieces must be positive");
  }
  if (config.initial_completion < 0.0 || config.initial_completion >= 1.0) {
    throw std::invalid_argument("ReferenceSwarm: initial_completion in [0, 1)");
  }
  if (!config.tft_slots_per_peer.empty() &&
      config.tft_slots_per_peer.size() != config.num_peers) {
    throw std::invalid_argument("ReferenceSwarm: tft_slots_per_peer needs one entry per leecher");
  }
  if (!config.retain_departed) {
    // The oracle keeps every peer's state forever by design; accepting
    // the flag would silently diverge from the flat plane's
    // aggregates-only semantics (dropped retired pairs, live-only rank
    // normalization) and break the bitwise differential contract.
    throw std::invalid_argument("ReferenceSwarm: retain_departed=false is unsupported");
  }
  const FaultSpec& fspec = config.faults;
  if (fspec.connect_failure_prob < 0.0 || fspec.connect_failure_prob > 1.0 ||
      fspec.nat_fraction < 0.0 || fspec.nat_fraction > 1.0 || fspec.lane_loss_prob < 0.0 ||
      fspec.lane_loss_prob > 1.0) {
    throw std::invalid_argument("ReferenceSwarm: fault probabilities must be in [0, 1]");
  }
  if (fspec.connect_attempts == 0) {
    throw std::invalid_argument("ReferenceSwarm: faults.connect_attempts must be >= 1");
  }
  if (fspec.backoff_base == 0 || fspec.backoff_cap < fspec.backoff_base) {
    throw std::invalid_argument("ReferenceSwarm: faults.backoff_cap >= backoff_base >= 1 required");
  }
  // Same single structural draw as Swarm, at the same point, so both
  // planes key identical per-peer choke streams.
  choke_key_ = rng();
  const std::size_t total = config.num_peers + config.seeds;
  overlay_ = graph::erdos_renyi_gnd(total, config.neighbor_degree, rng);
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
  received_rate_.resize(total);
  received_now_.resize(total);
  sent_rate_.resize(total);
  sent_now_.resize(total);
  partial_.resize(total);
  inflight_.resize(total);
  departed_.assign(total, false);
  for (std::size_t p = 0; p < total; ++p) table_.add(static_cast<core::PeerId>(p));
  // Same NAT membership draws as the flat plane (counter streams keyed
  // by external id; zero draws when the NAT fraction is off). Filled
  // before the init walk below, which can depart complete leechers.
  for (std::size_t p = 0; p < total; ++p) {
    const bool nat =
        fspec.nat_fraction > 0.0 &&
        graph::Rng::stream(choke_key_ ^ kFaultNatSalt, static_cast<core::PeerId>(p), 0)
            .bernoulli(fspec.nat_fraction);
    faults_.add_peer(nat);
  }

  double seed_capacity = config.seed_upload_kbps;
  if (seed_capacity <= 0.0) {
    std::vector<double> sorted = upload_kbps;
    std::sort(sorted.begin(), sorted.end());
    seed_capacity = sorted[sorted.size() / 2];
  }
  for (std::size_t p = 0; p < total; ++p) {
    const bool is_seed = p >= config.num_peers;
    stats_[p].seed = is_seed;
    stats_[p].upload_kbps = is_seed ? seed_capacity : upload_kbps[p];
    if (is_seed) {
      for (PieceId piece = 0; piece < config.num_pieces; ++piece) have_[p].set(piece);
      stats_[p].completion_round = 0.0;
    } else if (config.post_flashcrowd) {
      have_[p] = Bitfield::random(config.num_pieces, config.initial_completion, rng);
    }
    picker_.add_bitfield(have_[p]);
    stats_[p].pieces = have_[p].count();
    if (!is_seed && have_[p].complete()) {
      stats_[p].completion_round = 0.0;
      if (!config.stay_as_seed) depart_peer(static_cast<core::PeerId>(p), 0.0);
    }
  }
  leechers_ = detail::rebuild_bandwidth_ranks(stats_, bandwidth_rank_);
}

std::size_t ReferenceSwarm::target_degree() const {
  return static_cast<std::size_t>(std::llround(config_.neighbor_degree));
}

std::size_t ReferenceSwarm::connect_random_live(core::PeerId p, std::size_t need) {
  const std::size_t made = detail::announce_connect(
      table_.ids(), p, need, rng_,
      [&](core::PeerId q) { return overlay_.has_edge(p, q); },
      [&](core::PeerId q) { overlay_.add_edge(p, q); });
  // finalize() re-sorts every adjacency list, not just the touched
  // rows — O(|V|) per join/re-announce. Acceptable at the oracle scale
  // this plane runs at; the flat plane's sorted inserts are the fast
  // path.
  overlay_.finalize();
  return made;
}

std::size_t ReferenceSwarm::announce_with_faults(core::PeerId p, std::size_t need) {
  if (!config_.faults.flaky_connects()) return connect_random_live(p, need);
  // Same trial stream as the flat plane: keyed by the per-peer announce
  // sequence number (id-indexed here, row-indexed there — same peer,
  // same count, same draws).
  graph::Rng trials =
      graph::Rng::stream(choke_key_ ^ kFaultConnectSalt, p, faults_.announce_seq_[p]++);
  const double fail_prob = config_.faults.connect_failure_prob;
  const std::size_t max_attempts = config_.faults.connect_attempts;
  const std::size_t made = detail::announce_connect_faulty(
      table_.ids(), p, need, rng_,
      [&](core::PeerId q) { return overlay_.has_edge(p, q); },
      [&](core::PeerId q) {
        if (!faults_.rejects_inbound(q)) return false;
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
      [&](core::PeerId q) { overlay_.add_edge(p, q); });
  overlay_.finalize();
  return made;
}

void ReferenceSwarm::fault_step() {
  const FaultSpec& fspec = config_.faults;
  if (!fspec.outages()) return;
  const bool down = fspec.tracker_down(round_);
  const std::size_t target = target_degree();
  // Identical walk to Swarm::fault_step: the shared table's ascending
  // row order, state looked up by external id.
  for (PeerTable::Row r = 0; r < table_.size(); ++r) {
    const core::PeerId p = table_.id_at(r);
    if (!faults_.retry_pending(p) || faults_.retry_round_[p] > round_) continue;
    ++faults_.announce_retries_;
    if (down) {
      faults_.fail_announce(p, round_, fspec);
      continue;
    }
    faults_.reset_retry(p);
    if (overlay_.degree(p) < target) {
      announce_with_faults(p, target - overlay_.degree(p));
    }
  }
}

core::PeerId ReferenceSwarm::join(double upload_kbps, const Bitfield& have) {
  if (have.size() != config_.num_pieces) {
    throw std::invalid_argument("ReferenceSwarm::join: bitfield size mismatch");
  }
  detail::require_capacity(upload_kbps, "ReferenceSwarm::join");
  const core::PeerId p = overlay_.grow(1);
  stats_.emplace_back();
  stats_[p].upload_kbps = upload_kbps;
  stats_[p].join_round = static_cast<double>(round_);
  stats_[p].pieces = have.count();
  have_.push_back(have);
  picker_.add_bitfield(have);
  chokers_.emplace_back(config_.tft_slots, config_.optimistic_rounds);
  unchoked_.emplace_back();
  received_rate_.emplace_back();
  received_now_.emplace_back();
  sent_rate_.emplace_back();
  sent_now_.emplace_back();
  partial_.emplace_back();
  inflight_.emplace_back();
  departed_.push_back(false);
  table_.add(p);
  faults_.add_peer(config_.faults.nat_fraction > 0.0 &&
                   graph::Rng::stream(choke_key_ ^ kFaultNatSalt, p, 0)
                       .bernoulli(config_.faults.nat_fraction));
  ++arrivals_;
  if (config_.faults.tracker_down(round_)) {
    // Announce lost to the outage: the arrival starts with no
    // neighbors and retries on backoff, like the flat plane.
    faults_.fail_announce(p, round_, config_.faults);
  } else {
    announce_with_faults(p, target_degree());
  }
  ++leechers_;
  ranks_dirty_ = true;
  if (have_[p].complete()) {
    stats_[p].completion_round = static_cast<double>(round_);
    if (!config_.stay_as_seed) depart_peer(p, static_cast<double>(round_));
  }
  return p;
}

core::PeerId ReferenceSwarm::join(double upload_kbps) {
  return join(upload_kbps, Bitfield(config_.num_pieces));
}

void ReferenceSwarm::leave(core::PeerId p) {
  if (departed_.at(p)) return;
  depart_peer(p, static_cast<double>(round_));
}

std::size_t ReferenceSwarm::reannounce(core::PeerId p) {
  if (departed_.at(p)) return 0;
  if (config_.faults.outages()) {
    if (config_.faults.tracker_down(round_)) {
      if (!faults_.retry_pending(p)) faults_.fail_announce(p, round_, config_.faults);
      return 0;
    }
    faults_.reset_retry(p);
  }
  const std::size_t target = target_degree();
  if (overlay_.degree(p) >= target) return 0;
  return announce_with_faults(p, target - overlay_.degree(p));
}

void ReferenceSwarm::set_upload_capacity(core::PeerId p, double kbps) {
  if (p >= stats_.size()) {
    throw std::out_of_range("ReferenceSwarm::set_upload_capacity: unknown peer");
  }
  detail::require_capacity(kbps, "ReferenceSwarm::set_upload_capacity");
  if (departed_.at(p)) return;
  if (stats_[p].upload_kbps == kbps) return;
  stats_[p].upload_kbps = kbps;
  ranks_dirty_ = true;
}

bool ReferenceSwarm::wants_from(core::PeerId receiver, core::PeerId sender) const {
  return have_[receiver].interested_in(have_[sender]);
}

void ReferenceSwarm::choke_step() {
  // Table-row order, matching the flat plane's dense iteration.
  // Randomness comes from each peer's own counter-based stream, so the
  // iteration order no longer matters for the draws — but candidate
  // content (sorted neighbor lists, rates) must still match the flat
  // plane exactly. Departed peers have no row and their unchoke sets
  // were cleared at departure.
  for (PeerTable::Row r = 0; r < table_.size(); ++r) {
    const core::PeerId p = table_.id_at(r);
    std::vector<ChokeCandidate> candidates;
    const auto nbrs = overlay_.neighbors(p);
    candidates.reserve(nbrs.size());
    const bool serve_fastest = stats_[p].seed || have_[p].complete();
    // Departed peers are isolated from the overlay, so every neighbor
    // is a candidate (same invariant as the flat plane's rows).
    for (graph::Vertex vq : nbrs) {
      const auto q = static_cast<core::PeerId>(vq);
      ChokeCandidate c;
      c.peer = q;
      c.interested = wants_from(q, p);
      if (serve_fastest) {
        auto it = sent_rate_[p].find(q);
        c.score = it == sent_rate_[p].end() ? 0.0 : it->second;
      } else {
        auto it = received_rate_[p].find(q);
        c.score = it == received_rate_[p].end() ? 0.0 : it->second;
      }
      candidates.push_back(c);
    }
    graph::Rng stream = graph::Rng::stream(choke_key_, p, round_);
    unchoked_[p] = chokers_[p].select(std::move(candidates), stream);
  }
}

void ReferenceSwarm::count_incoming_unchokes() {
  // Departed peers' unchoke sets are empty, so the full id scan counts
  // exactly what the flat plane's row scan counts.
  incoming_unchokes_.assign(unchoked_.size(), 0);
  for (const auto& row : unchoked_) {
    for (const core::PeerId q : row) ++incoming_unchokes_[q];
  }
}

std::optional<PieceId> ReferenceSwarm::pick_for(core::PeerId q, core::PeerId p, graph::Rng& rng) {
  if (config_.endgame) {
    const std::size_t missing = config_.num_pieces - stats_[q].pieces;
    if (missing >= incoming_unchokes_[q]) {
      for (const PieceId piece : reserved_list_) reserved_scratch_.reset(piece);
      reserved_list_.clear();
      // Map iteration order is irrelevant: the exclusion set is a
      // bitfield, identical to the flat plane's slot scan.
      for (const auto& [sender, t] : inflight_[q]) {
        if (sender == p) continue;
        if (t != kNoPiece && !have_[q].test(t)) {
          reserved_scratch_.set(t);
          reserved_list_.push_back(t);
        }
      }
      return picker_.pick_rarest(have_[q], have_[p], reserved_scratch_, rng);
    }
  }
  return picker_.pick_rarest(have_[q], have_[p], rng);
}

std::optional<PieceId> ReferenceSwarm::plan_pick(const detail::TransferLane& lane, core::PeerId q,
                                                core::PeerId p, graph::Rng& rng) {
  bool endgame_dup = false;
  if (config_.endgame) {
    const std::size_t missing =
        config_.num_pieces - (stats_[q].pieces + lane.completed.size());
    endgame_dup = missing < incoming_unchokes_[q];
  }
  if (endgame_dup && lane.completed.empty()) {
    return picker_.pick_rarest(have_[q], have_[p], rng);
  }
  for (const PieceId piece : reserved_list_) reserved_scratch_.reset(piece);
  reserved_list_.clear();
  reserved_partials_.clear();
  // Completed-first like the flat plane: keeps lane-completed pieces
  // out of the releasable soft tier.
  for (const PieceId t : lane.completed) {
    if (reserved_scratch_.test(t)) continue;
    reserved_scratch_.set(t);
    reserved_list_.push_back(t);
  }
  if (!endgame_dup) {
    if (config_.endgame) {
      // Reservations come from the phase-start in-flight snapshot, like
      // the flat plane's plan_pick — not the live mid-phase state the old
      // serial algorithm saw.
      // strat-lint: allow(unordered-iter) -- the exclusion set is a
      // bitfield; set order is commutative, identical to the flat
      // plane's slot scan.
      for (const auto& [sender, t] : inflight_[q]) {
        if (sender == p) continue;
        if (t != kNoPiece && !have_[q].test(t)) {
          reserved_scratch_.set(t);
          reserved_list_.push_back(t);
        }
      }
    }
    // Soft tier mirroring the flat plane: partially-downloaded pieces
    // are held back from fresh picks and released only as a fallback.
    // strat-lint: allow(unordered-iter) -- commutative bitfield sets;
    // the list orders only feed reset loops.
    for (const auto& entry : partial_[q]) {
      if (reserved_scratch_.test(entry.first)) continue;
      reserved_scratch_.set(entry.first);
      reserved_list_.push_back(entry.first);
      reserved_partials_.push_back(entry.first);
    }
  }
  const auto pick = picker_.pick_rarest(have_[q], have_[p], reserved_scratch_, rng);
  if (pick || reserved_partials_.empty()) return pick;
  for (const PieceId t : reserved_partials_) reserved_scratch_.reset(t);
  return picker_.pick_rarest(have_[q], have_[p], reserved_scratch_, rng);
}

double ReferenceSwarm::partial_progress(core::PeerId q, PieceId piece) const {
  const auto it = partial_[q].find(piece);
  return it == partial_[q].end() ? 0.0 : it->second;
}

void ReferenceSwarm::complete_piece(core::PeerId p, PieceId piece) {
  have_[p].set(piece);
  picker_.add_availability(piece);
  stats_[p].pieces = have_[p].count();
  if (have_[p].complete() && stats_[p].completion_round < 0.0) {
    stats_[p].completion_round = static_cast<double>(round_ + 1);
    if (!config_.stay_as_seed && !stats_[p].seed) {
      depart_peer(p, static_cast<double>(round_ + 1));
    }
  }
}

void ReferenceSwarm::depart_peer(core::PeerId p, double when) {
  departed_[p] = true;
  stats_[p].leave_round = when;
  table_.remove(p);  // the same compaction decision as the flat plane
  ++departures_;
  picker_.remove_bitfield(have_[p]);
  partial_[p].clear();
  inflight_[p].clear();
  unchoked_[p].clear();
  // Release per-edge state on both sides, mirroring the flat plane's
  // slot recycling (the mutual_rounds_ map keeps the pair history —
  // that's the retired-record analogue).
  for (graph::Vertex vq : overlay_.neighbors(p)) {
    const auto q = static_cast<core::PeerId>(vq);
    received_rate_[q].erase(p);
    received_now_[q].erase(p);
    sent_rate_[q].erase(p);
    sent_now_[q].erase(p);
    inflight_[q].erase(p);
  }
  received_rate_[p].clear();
  received_now_[p].clear();
  sent_rate_[p].clear();
  sent_now_[p].clear();
  overlay_.isolate(p);
}

double ReferenceSwarm::send_to(core::PeerId p, core::PeerId q, double budget, graph::Rng& rng) {
  double remaining = budget;
  while (remaining > 0.0) {
    PieceId target;
    auto locked = inflight_[q].find(p);
    if (locked != inflight_[q].end() && !have_[q].test(locked->second) &&
        have_[p].test(locked->second)) {
      target = locked->second;
    } else {
      const auto pick = pick_for(q, p, rng);
      if (!pick) break;
      target = *pick;
      inflight_[q][p] = target;
    }
    double& progress = partial_[q][target];
    const double need = config_.piece_kb - progress;
    const double chunk = std::min(need, remaining);
    progress += chunk;
    remaining -= chunk;
    stats_[p].uploaded_kb += chunk;
    stats_[q].downloaded_kb += chunk;
    received_now_[q][p] += chunk;
    sent_now_[p][q] += chunk;
    if (progress >= config_.piece_kb - 1e-9) {
      partial_[q].erase(target);
      inflight_[q].erase(p);
      complete_piece(q, target);
    }
  }
  return budget - remaining;
}

void ReferenceSwarm::plan_transfers(core::PeerId p) {
  if (departed_[p]) return;
  hungry_scratch_.clear();
  for (core::PeerId q : unchoked_[p]) {
    if (departed_[q]) continue;
    if (wants_from(q, p)) hungry_scratch_.push_back(q);
  }
  if (hungry_scratch_.empty()) return;
  const std::size_t lane_count = hungry_scratch_.size();
  if (lanes_.size() < lane_count) lanes_.resize(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) {
    const core::PeerId q = hungry_scratch_[i];
    const auto locked = inflight_[q].find(p);
    const PieceId snapshot_target = locked == inflight_[q].end() ? kNoPiece : locked->second;
    // This plane has no edge slots; the lane is keyed by receiver id.
    lanes_[i].reset(q, q, 0, 0, snapshot_target);
    lanes_[i].ordinal = static_cast<std::uint32_t>(i);
  }
  const std::uint32_t grants_begin = static_cast<std::uint32_t>(grants_.size());
  graph::Rng stream = transfer_stream(p);
  const double budget = stats_[p].upload_kbps / 8.0 * config_.round_seconds;
  detail::redistribute_upload(
      budget, hungry_scratch_, next_hungry_scratch_, [&](core::PeerId q, double share) {
        detail::TransferLane* lane = nullptr;
        for (std::size_t i = 0; i < lane_count; ++i) {
          if (lanes_[i].receiver == q) {
            lane = &lanes_[i];
            break;
          }
        }
        return detail::plan_lane_send(
            config_.piece_kb, *lane, grants_, share,
            [&](PieceId t) { return have_[p].test(t); },
            [&](PieceId t) { return have_[q].test(t); },
            [&](PieceId t) { return partial_progress(q, t); },
            [&](const detail::TransferLane& l) { return plan_pick(l, q, p, stream); });
      });
  if (grants_.size() > grants_begin) {
    plans_.push_back({p, grants_begin, static_cast<std::uint32_t>(grants_.size()),
                      static_cast<std::uint32_t>(lane_count)});
  }
}

void ReferenceSwarm::commit_transfers() {
  // Per-lane validation and repair, exactly like the flat plane's
  // commit: group each plan's grants by plan-local lane ordinal,
  // discard a lane whose receiver departed / piece completed /
  // progress moved, apply the valid lanes' grants verbatim in planned
  // order, then re-drive each stale lane's planned KB live from the
  // per-sender repair stream. Indexing by ordinal (not a receiver
  // lookup) keeps the lane walk order — and therefore the fault
  // injection's lane-loss draw order — bit-identical to the flat
  // plane's commit_lanes_ table.
  struct CommitLane {
    core::PeerId receiver = 0;
    double kb = 0.0;
    bool used = false;
    bool stale = false;
    bool lost = false;
  };
  std::vector<CommitLane> lanes;
  for (const detail::SenderPlan& plan : plans_) {
    if (departed_[plan.sender]) continue;
    const core::PeerId p = plan.sender;
    lanes.assign(plan.lane_count, CommitLane{});
    std::size_t used_lanes = 0;
    for (std::uint32_t g = plan.begin; g != plan.end; ++g) {
      const detail::TransferGrant& grant = grants_[g];
      CommitLane& lane = lanes[grant.lane];
      if (!lane.used) {
        lane.used = true;
        ++used_lanes;
        lane.receiver = grant.receiver;
      }
      lane.kb += grant.kb;
      if (lane.stale) continue;
      lane.stale = departed_[grant.receiver] || have_[grant.receiver].test(grant.piece) ||
                   partial_progress(grant.receiver, grant.piece) != grant.base_kb;
    }
    // Same lane-loss draws as the flat plane: per-sender counter
    // stream, lane-ordinal order, stale lanes draw too.
    if (config_.faults.lossy_lanes() && used_lanes > 0) {
      graph::Rng loss = graph::Rng::stream(choke_key_ ^ kFaultLaneSalt, p, round_);
      for (CommitLane& lane : lanes) {
        if (!lane.used) continue;
        if (!loss.bernoulli(config_.faults.lane_loss_prob)) continue;
        lane.lost = true;
        ++faults_.lost_lanes_;
      }
    }
    for (std::uint32_t g = plan.begin; g != plan.end; ++g) {
      const detail::TransferGrant& grant = grants_[g];
      const core::PeerId q = grant.receiver;
      const CommitLane& lane = lanes[grant.lane];
      if (lane.stale || lane.lost) continue;
      // An earlier grant in this plan can complete and depart q; later
      // grants to it are void (same rule as the flat plane's commit).
      if (departed_[q]) continue;
      stats_[p].uploaded_kb += grant.kb;
      stats_[q].downloaded_kb += grant.kb;
      received_now_[q][p] += grant.kb;
      sent_now_[p][q] += grant.kb;
      if (grant.completes) {
        partial_[q].erase(grant.piece);
        inflight_[q].erase(p);
        complete_piece(q, grant.piece);
      } else {
        partial_[q][grant.piece] = grant.final_kb;
        inflight_[q][p] = grant.piece;
      }
    }
    // Re-drive each stale lane's planned KB against live state on the
    // per-sender repair stream: directly at its own receiver first,
    // then any budget the lane could not absorb (receiver complete or
    // departed) as a redistribution round over the live still-hungry
    // receivers (same repair rule as the flat plane's commit: early
    // completions strand no budget).
    bool any_stale = false;
    for (const CommitLane& lane : lanes) {
      // A lost lane forfeits its bytes outright — no repair (the flat
      // plane decrements its stale count the same way).
      if (lane.stale && !lane.lost) {
        any_stale = true;
        break;
      }
    }
    if (any_stale) {
      graph::Rng repairs = rerun_stream(p);
      double leftover = 0.0;
      for (const CommitLane& lane : lanes) {
        if (!lane.stale || lane.lost) continue;
        leftover += lane.kb - send_to(p, lane.receiver, lane.kb, repairs);
      }
      if (leftover > kBudgetEpsilon) {
        hungry_scratch_.clear();
        for (core::PeerId q : unchoked_[p]) {
          if (departed_[q]) continue;
          if (wants_from(q, p)) hungry_scratch_.push_back(q);
        }
        if (!hungry_scratch_.empty()) {
          detail::redistribute_upload(
              leftover, hungry_scratch_, next_hungry_scratch_,
              [&](core::PeerId q, double share) { return send_to(p, q, share, repairs); });
        }
      }
    }
  }
}

void ReferenceSwarm::transfer_step() {
  // Sender-order snapshot by external id in table-row order, exactly
  // like the flat plane. The planning pass never mutates shared state
  // (the flat plane runs it across worker chunks); the commit pass
  // replays plans in the same sender order and re-runs conflicted
  // senders serially.
  order_scratch_.assign(table_.ids().begin(), table_.ids().end());
  grants_.clear();
  plans_.clear();
  for (const core::PeerId p : order_scratch_) plan_transfers(p);
  commit_transfers();
}

void ReferenceSwarm::run_round() {
  fault_step();
  choke_step();
  if (config_.endgame) count_incoming_unchokes();
  for (PeerTable::Row r = 0; r < table_.size(); ++r) {
    const core::PeerId p = table_.id_at(r);
    if (!is_leecher(p) || have_[p].complete()) continue;
    for (core::PeerId q : unchoked_[p]) {
      if (q <= p || !is_leecher(q) || have_[q].complete()) continue;
      const auto& back = unchoked_[q];
      if (std::find(back.begin(), back.end(), p) != back.end()) {
        const std::uint64_t key = (static_cast<std::uint64_t>(p) << 32) | q;
        ++mutual_rounds_[key];
      }
    }
  }
  transfer_step();
  const double alpha = config_.rate_smoothing;
  auto fold = [&](std::unordered_map<core::PeerId, double>& rate,
                  std::unordered_map<core::PeerId, double>& now) {
    // strat-lint: allow(unordered-iter) -- each key's smoothing update is
    // independent of every other key's, so visit order cannot change any
    // stored value; no RNG is drawn and nothing order-dependent follows.
    for (auto& [peer, kb] : rate) {
      auto it = now.find(peer);
      const double fresh = it == now.end() ? 0.0 : it->second;
      kb = alpha * fresh + (1.0 - alpha) * kb;
      if (it != now.end()) now.erase(it);
    }
    // strat-lint: allow(unordered-iter) -- per-key inserts into a distinct
    // map; the resulting contents are order-independent.
    for (const auto& [peer, kb] : now) rate[peer] = alpha * kb;
    now.clear();
  };
  for (std::size_t p = 0; p < stats_.size(); ++p) {
    fold(received_rate_[p], received_now_[p]);
    fold(sent_rate_[p], sent_now_[p]);
  }
  ++round_;
}

void ReferenceSwarm::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

std::size_t ReferenceSwarm::completed_leechers() const {
  std::size_t done = 0;
  for (core::PeerId p = 0; p < stats_.size(); ++p) {
    if (is_leecher(p) && have_[p].complete()) ++done;
  }
  return done;
}

double ReferenceSwarm::leech_download_kbps(core::PeerId p) const {
  const PeerStats& s = stats_.at(p);
  const double end = s.completion_round >= 0.0
                         ? s.completion_round
                         : (s.leave_round >= 0.0 ? s.leave_round : static_cast<double>(round_));
  const double rounds = end - s.join_round;
  if (rounds <= 0.0) return 0.0;
  return s.downloaded_kb * 8.0 / (rounds * config_.round_seconds);
}

Swarm::AvailabilityStats ReferenceSwarm::availability_stats() const {
  Swarm::AvailabilityStats out;
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

void ReferenceSwarm::refresh_ranks() const {
  if (!ranks_dirty_) return;
  detail::rebuild_bandwidth_ranks(stats_, bandwidth_rank_);
  ranks_dirty_ = false;
}

StratificationReport ReferenceSwarm::stratification() const {
  refresh_ranks();
  StratificationReport report;
  report.reciprocated_pairs = mutual_rounds_.size();
  if (mutual_rounds_.empty() || leechers_ < 3) return report;

  // Iterate pairs in sorted (p, q) order so the floating-point
  // accumulation order matches the flat implementation exactly.
  // strat-lint: allow(unordered-iter) -- copied then sorted on the next
  // line; the FP accumulation below walks the sorted copy only.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(mutual_rounds_.begin(),
                                                              mutual_rounds_.end());
  std::sort(sorted.begin(), sorted.end());

  double offset_sum = 0.0;
  double weight_sum = 0.0;
  std::vector<double> partner_rank_sum(stats_.size(), 0.0);
  std::vector<double> partner_weight(stats_.size(), 0.0);
  for (const auto& [key, rounds] : sorted) {
    const auto a = static_cast<core::PeerId>(key >> 32);
    const auto b = static_cast<core::PeerId>(key & 0xFFFFFFFFu);
    const double w = static_cast<double>(rounds);
    const double ra = static_cast<double>(bandwidth_rank_[a]);
    const double rb = static_cast<double>(bandwidth_rank_[b]);
    offset_sum += w * std::abs(ra - rb) / static_cast<double>(leechers_);
    weight_sum += w;
    partner_rank_sum[a] += w * rb;
    partner_weight[a] += w;
    partner_rank_sum[b] += w * ra;
    partner_weight[b] += w;
  }
  report.mean_normalized_offset = offset_sum / weight_sum;

  std::vector<double> own;
  std::vector<double> partner;
  for (std::size_t p = 0; p < stats_.size(); ++p) {
    if (partner_weight[p] == 0.0) continue;
    own.push_back(static_cast<double>(bandwidth_rank_[p]));
    partner.push_back(partner_rank_sum[p] / partner_weight[p]);
  }
  if (own.size() >= 3) {
    report.partner_rank_correlation = sim::spearman(own, partner);
  }
  return report;
}

}  // namespace strat::bt
