#include "bittorrent/tracker_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "bittorrent/snapshot.hpp"
#include "sim/parallel.hpp"

namespace strat::bt {

namespace {

// Tracker header section tags (the per-swarm sections carry their own).
constexpr std::uint32_t kTagTrackerMeta = 1;
constexpr std::uint32_t kTagTrackerRegistry = 2;

constexpr std::size_t kMaxSwarms = std::size_t{1} << 20;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

void PeerRegistry::restore(std::vector<Record> records, GlobalPeerId id_space) {
  std::unordered_map<GlobalPeerId, std::uint32_t> index;
  index.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& rec = records[i];
    if (rec.id >= id_space) {
      throw std::invalid_argument("PeerRegistry::restore: id beyond id space");
    }
    if (!index.emplace(rec.id, static_cast<std::uint32_t>(i)).second) {
      throw std::invalid_argument("PeerRegistry::restore: duplicate id");
    }
    if (rec.memberships.empty()) {
      throw std::invalid_argument("PeerRegistry::restore: record without memberships");
    }
    if (!(rec.upload_kbps > 0.0)) {
      throw std::invalid_argument("PeerRegistry::restore: non-positive capacity");
    }
  }
  records_ = std::move(records);
  index_ = std::move(index);
  next_id_ = id_space;
}

void TrackerSim::validate_config(const TrackerConfig& cfg) {
  if (cfg.arrival_rate < 0.0) {
    throw std::invalid_argument("TrackerConfig: arrival_rate must be >= 0");
  }
  if (cfg.arrival_rate > 0.0 && !cfg.arrival_model.has_value()) {
    throw std::invalid_argument("TrackerConfig: arrival_model required when arrival_rate > 0");
  }
  if (cfg.zipf_exponent < 0.0) {
    throw std::invalid_argument("TrackerConfig: zipf_exponent must be >= 0");
  }
  if (cfg.multi_torrent_fraction < 0.0 || cfg.multi_torrent_fraction > 1.0) {
    throw std::invalid_argument("TrackerConfig: multi_torrent_fraction in [0, 1]");
  }
  if (cfg.swarm_churn.arrivals != ChurnSpec::Arrivals::kNone ||
      cfg.swarm_churn.replacement_rate > 0.0) {
    throw std::invalid_argument(
        "TrackerConfig: swarm_churn must not generate arrivals — the tracker owns the "
        "ecosystem arrival process (lifetime/re-announce churn is fine)");
  }
}

TrackerSim::TrackerSim(const TrackerConfig& cfg) : cfg_(cfg) { validate_config(cfg_); }

TrackerSim::TrackerSim(const TrackerConfig& cfg, std::vector<TrackerSwarmSeed> seeds,
                       const std::vector<double>& member_upload_kbps, std::uint64_t seed)
    : cfg_(cfg) {
  validate_config(cfg_);
  if (seeds.empty()) throw std::invalid_argument("TrackerSim: need at least one swarm");
  if (seeds.size() > kMaxSwarms) throw std::invalid_argument("TrackerSim: too many swarms");
  for (const double kbps : member_upload_kbps) detail::require_capacity(kbps, "TrackerSim");

  // Membership count per global id, with per-swarm duplicate detection.
  std::vector<std::uint32_t> member_count(member_upload_kbps.size(), 0);
  std::vector<std::uint32_t> last_swarm(member_upload_kbps.size(),
                                        std::numeric_limits<std::uint32_t>::max());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (const GlobalPeerId g : seeds[k].members) {
      if (g >= member_upload_kbps.size()) {
        throw std::invalid_argument("TrackerSim: member id beyond the capacity list");
      }
      if (last_swarm[g] == static_cast<std::uint32_t>(k)) {
        throw std::invalid_argument("TrackerSim: peer listed twice in one swarm");
      }
      last_swarm[g] = static_cast<std::uint32_t>(k);
      ++member_count[g];
    }
  }
  for (const std::uint32_t count : member_count) {
    if (count == 0) {
      throw std::invalid_argument("TrackerSim: every listed peer must join at least one swarm");
    }
  }

  tracker_rng_ = graph::Rng(seed);
  tracker_key_ = tracker_rng_();

  for (GlobalPeerId g = 0; g < member_upload_kbps.size(); ++g) {
    registry_.add(member_upload_kbps[g]);
  }

  // Capacity-share cursor per global id: membership j of m gets share
  // j, in swarm order — the same order the registry records them.
  std::vector<std::uint32_t> seen(member_upload_kbps.size(), 0);
  swarms_.reserve(seeds.size());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    TrackerSwarmSeed& sd = seeds[k];
    SwarmConfig scfg = sd.config;
    scfg.num_peers = sd.members.size();
    scfg.threads = 1;  // the shard loop owns the parallelism
    if (!scfg.retain_departed) {
      throw std::invalid_argument(
          "TrackerSim: retain_departed=false is unsupported (ecosystem reports cover "
          "departed peers)");
    }
    std::vector<double> capacities(sd.members.size());
    for (std::size_t local = 0; local < sd.members.size(); ++local) {
      const GlobalPeerId g = sd.members[local];
      capacities[local] =
          membership_capacity_share(member_upload_kbps[g], member_count[g], seen[g]++);
    }
    auto slot = std::make_unique<SwarmSlot>();
    slot->rng = graph::Rng(seed + kTrackerSwarmSeedStride * (static_cast<std::uint64_t>(k) + 1));
    slot->swarm.emplace(scfg, std::move(capacities), slot->rng);
    slot->driver.emplace(cfg_.swarm_churn, scfg, std::vector<double>{}, slot->rng);
    slot->driver->attach(*slot->swarm);
    swarms_.push_back(std::move(slot));
    for (std::size_t local = 0; local < sd.members.size(); ++local) {
      registry_.add_membership(sd.members[local], static_cast<std::uint32_t>(k),
                               static_cast<core::PeerId>(local));
    }
  }
  build_zipf();
}

void TrackerSim::build_zipf() {
  zipf_cdf_.resize(swarms_.size());
  double total = 0.0;
  for (std::size_t k = 0; k < swarms_.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -cfg_.zipf_exponent);
  }
  double acc = 0.0;
  for (std::size_t k = 0; k < swarms_.size(); ++k) {
    acc += std::pow(static_cast<double>(k + 1), -cfg_.zipf_exponent) / total;
    zipf_cdf_[k] = acc;
  }
  zipf_cdf_.back() = 1.0;  // guard the cumulative rounding tail
}

std::uint32_t TrackerSim::zipf_pick(graph::Rng& stream) const {
  const double u = stream.uniform();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto ix = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return static_cast<std::uint32_t>(std::min(ix, zipf_cdf_.size() - 1));
}

std::size_t TrackerSim::resolve_shards() const {
  const std::size_t requested = cfg_.shards == 0 ? sim::recommended_threads() : cfg_.shards;
  return std::max<std::size_t>(1, std::min(requested, swarms_.size()));
}

const Swarm& TrackerSim::swarm(std::size_t k) const {
  if (k >= swarms_.size()) throw std::out_of_range("TrackerSim::swarm: index out of range");
  return *swarms_[k]->swarm;
}

std::size_t TrackerSim::live_membership_count() const {
  std::size_t live = 0;
  for (const auto& slot : swarms_) live += slot->swarm->live_peer_count();
  return live;
}

void TrackerSim::maintain_registry() {
  registry_.prune([&](PeerRegistry::Record& rec) {
    std::erase_if(rec.memberships, [&](const PeerRegistry::Membership& m) {
      return swarms_[m.swarm]->swarm->departed(m.local);
    });
    return rec.memberships.empty();
  });
  if (!cfg_.dynamic_capacity_split) return;
  for (const PeerRegistry::Record& rec : registry_.records()) {
    const std::size_t m = rec.memberships.size();
    for (std::size_t j = 0; j < m; ++j) {
      const PeerRegistry::Membership& mem = rec.memberships[j];
      swarms_[mem.swarm]->swarm->set_upload_capacity(
          mem.local, membership_capacity_share(rec.upload_kbps, m, j));
    }
  }
}

void TrackerSim::admit_arrivals() {
  if (cfg_.arrival_rate <= 0.0) return;
  const std::uint64_t n = tracker_rng_.poisson(cfg_.arrival_rate);
  for (std::uint64_t i = 0; i < n; ++i) admit_one();
}

void TrackerSim::admit_one() {
  // Counter-based stream keyed by (tracker key, global id, round): the
  // arrival's capacity and swarm choices are a pure function of who it
  // is and when it arrives, independent of its siblings' draws.
  const GlobalPeerId g = registry_.id_space();
  graph::Rng stream = graph::Rng::stream(tracker_key_, g, round_);
  const double kbps = cfg_.arrival_model->sample(stream);
  std::size_t m = 1;
  if (swarms_.size() > 1 && cfg_.multi_torrent_fraction > 0.0 &&
      stream.bernoulli(cfg_.multi_torrent_fraction)) {
    m = 2;
  }
  std::array<std::uint32_t, 2> chosen{};
  chosen[0] = zipf_pick(stream);
  if (m == 2) {
    do {
      chosen[1] = zipf_pick(stream);
    } while (chosen[1] == chosen[0]);
  }
  registry_.add(kbps);
  for (std::size_t j = 0; j < m; ++j) {
    SwarmSlot& slot = *swarms_[chosen[j]];
    const double share = membership_capacity_share(kbps, m, j);
    const core::PeerId local = slot.driver->join_injected(*slot.swarm, share);
    registry_.add_membership(g, chosen[j], local);
  }
}

void TrackerSim::run_round() {
  const auto barrier_start = std::chrono::steady_clock::now();
  maintain_registry();
  admit_arrivals();
  const auto barrier_end = std::chrono::steady_clock::now();
  barrier_seconds_ += seconds_between(barrier_start, barrier_end);

  const std::size_t shards = resolve_shards();
  shard_wall_.assign(shards, 0.0);
  // Shard s owns swarms {k : k % shards == s}, run in ascending k —
  // the deterministic key. Each task touches only its own slots
  // (swarm + driver + rng) and its own shard_wall_ entry.
  sim::parallel_for(shards, shards, [this, shards](std::size_t s) {
    const auto shard_start = std::chrono::steady_clock::now();
    for (std::size_t k = s; k < swarms_.size(); k += shards) {
      SwarmSlot& slot = *swarms_[k];
      slot.driver->before_round(*slot.swarm);
      slot.swarm->run_round();
    }
    shard_wall_[s] = seconds_between(shard_start, std::chrono::steady_clock::now());
  });
  const auto [mn, mx] = std::minmax_element(shard_wall_.begin(), shard_wall_.end());
  shard_seconds_ += *mx;
  shard_imbalance_seconds_ += *mx - *mn;
  ++round_;
  // Round boundary — the valid checkpoint point; save() consumes no
  // RNG, so autosave cadence cannot perturb the run.
  if (autosaver_.has_value() && autosaver_->due(round_)) {
    std::ostringstream payload;
    save(payload);
    autosaver_->write(round_, payload.view());
  }
}

void TrackerSim::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

void TrackerSim::autosave_every(std::size_t every, const std::filesystem::path& dir,
                                std::size_t keep) {
  autosaver_.emplace(every, dir, keep);
}

void TrackerSim::reset_stratification() {
  for (const auto& slot : swarms_) slot->swarm->reset_stratification();
}

EcosystemReport TrackerSim::ecosystem_report() const {
  EcosystemReport out;
  out.per_swarm.reserve(swarms_.size());
  double corr_weighted = 0.0;
  std::size_t corr_weight = 0;
  std::vector<double> completions;
  for (const auto& slot : swarms_) {
    const Swarm& s = *slot->swarm;
    const StratificationReport strat = s.stratification();
    EcosystemReport::SwarmSummary sum;
    sum.live_peers = s.live_peer_count();
    sum.arrivals = s.arrivals();
    sum.departures = s.departures();
    sum.completed_leechers = s.completed_leechers();
    sum.partner_rank_correlation = strat.partner_rank_correlation;
    sum.reciprocated_pairs = strat.reciprocated_pairs;
    const FaultState& fs = s.fault_state();
    sum.degraded_peers = fs.degraded_count();
    out.fault_failed_announces += fs.failed_announces_;
    out.fault_retries += fs.announce_retries_;
    out.fault_connect_failures += fs.connect_failures_;
    out.fault_nat_rejections += fs.nat_rejections_;
    out.fault_lost_lanes += fs.lost_lanes_;
    out.degraded_peers += sum.degraded_peers;
    out.per_swarm.push_back(sum);
    corr_weighted +=
        strat.partner_rank_correlation * static_cast<double>(strat.reciprocated_pairs);
    corr_weight += strat.reciprocated_pairs;
    for (core::PeerId p = 0; p < s.peer_count(); ++p) {
      if (!s.is_leecher(p)) continue;
      const double done = s.stats(p).completion_round;
      if (done >= 0.0) completions.push_back(done);
    }
  }
  out.mean_partner_rank_correlation =
      corr_weight == 0 ? 0.0 : corr_weighted / static_cast<double>(corr_weight);
  out.live_memberships = live_membership_count();
  out.live_registry_peers = registry_.size();

  out.completed_leechers = completions.size();
  std::sort(completions.begin(), completions.end());
  if (!completions.empty()) {
    for (std::size_t i = 0; i < out.completion_round_deciles.size(); ++i) {
      const std::size_t ix =
          std::min(completions.size() - 1, ((i + 1) * completions.size()) / 10);
      out.completion_round_deciles[i] = completions[ix];
    }
  }

  // Stratification vs the *global* capacity distribution: rank live
  // registry peers by ecosystem capacity, then average each decile's
  // per-membership leech rate.
  const auto records = registry_.records();
  if (!records.empty()) {
    std::vector<std::size_t> order(records.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (records[a].upload_kbps != records[b].upload_kbps) {
        return records[a].upload_kbps > records[b].upload_kbps;
      }
      return records[a].id < records[b].id;
    });
    std::array<double, 10> decile_sum{};
    std::array<std::size_t, 10> decile_count{};
    for (std::size_t r = 0; r < order.size(); ++r) {
      const PeerRegistry::Record& rec = records[order[r]];
      double rate = 0.0;
      for (const PeerRegistry::Membership& m : rec.memberships) {
        rate += swarms_[m.swarm]->swarm->leech_download_kbps(m.local);
      }
      rate /= static_cast<double>(rec.memberships.size());
      const std::size_t d = std::min<std::size_t>(9, (r * 10) / order.size());
      decile_sum[d] += rate;
      ++decile_count[d];
    }
    for (std::size_t d = 0; d < 10; ++d) {
      out.decile_leech_kbps[d] =
          decile_count[d] == 0 ? 0.0 : decile_sum[d] / static_cast<double>(decile_count[d]);
    }
  }
  return out;
}

EcosystemProfile TrackerSim::ecosystem_profile() const {
  EcosystemProfile out;
  for (const auto& slot : swarms_) {
    const Swarm::PhaseProfile& p = slot->swarm->phase_profile();
    out.swarms.choke_seconds += p.choke_seconds;
    out.swarms.endgame_seconds += p.endgame_seconds;
    out.swarms.mutual_seconds += p.mutual_seconds;
    out.swarms.transfer_seconds += p.transfer_seconds;
    out.swarms.fold_seconds += p.fold_seconds;
    out.swarms.transfer_compute_seconds += p.transfer_compute_seconds;
    out.swarms.transfer_commit_seconds += p.transfer_commit_seconds;
    out.swarms.transfer_rerun_seconds += p.transfer_rerun_seconds;
    out.swarms.transfer_lanes += p.transfer_lanes;
    out.swarms.transfer_reruns += p.transfer_reruns;
    out.swarms.fault_seconds += p.fault_seconds;
    out.swarms.fault_failed_announces += p.fault_failed_announces;
    out.swarms.fault_retries += p.fault_retries;
    out.swarms.fault_connect_failures += p.fault_connect_failures;
    out.swarms.fault_nat_rejections += p.fault_nat_rejections;
    out.swarms.fault_lost_lanes += p.fault_lost_lanes;
    out.swarms.fault_degraded_peers += p.fault_degraded_peers;
  }
  out.barrier_seconds = barrier_seconds_;
  out.shard_seconds = shard_seconds_;
  out.shard_imbalance_seconds = shard_imbalance_seconds_;
  out.rounds = round_;
  return out;
}

void TrackerSim::save(std::ostream& out) const {
  {
    snapshot_detail::Writer w(out);
    w.u64(kTrackerMagic);
    w.u32(kSnapshotVersion);

    w.tag(kTagTrackerMeta);
    w.u64(swarms_.size());
    w.u64(round_);
    w.u64(tracker_key_);
    const graph::Rng::State st = tracker_rng_.state();
    for (const std::uint64_t word : st.s) w.u64(word);
    w.f64(st.cached_normal);
    w.u8(st.has_cached_normal ? 1 : 0);

    w.tag(kTagTrackerRegistry);
    w.u64(registry_.id_space());
    w.u64(registry_.size());
    for (const PeerRegistry::Record& rec : registry_.records()) {
      w.u32(rec.id);
      w.f64(rec.upload_kbps);
      w.u64(rec.memberships.size());
      for (const PeerRegistry::Membership& m : rec.memberships) {
        w.u32(m.swarm);
        w.u32(m.local);
      }
    }
    w.finish();
  }
  if (!out) throw SnapshotError("tracker snapshot: stream write failed");
  for (const auto& slot : swarms_) {
    slot->swarm->save(out);
    save_churn_driver(out, *slot->driver);
  }
}

TrackerSim TrackerSim::resume(std::istream& in, const TrackerConfig& cfg) {
  TrackerSim t(cfg);
  std::size_t num_swarms = 0;
  std::vector<PeerRegistry::Record> records;
  GlobalPeerId id_space = 0;
  {
    snapshot_detail::Reader r(in);
    if (r.u64() != kTrackerMagic) throw SnapshotError("tracker snapshot: bad magic");
    const std::uint32_t version = r.u32();
    if (version != kSnapshotVersion) {
      throw SnapshotError("tracker snapshot: unsupported version " + std::to_string(version));
    }

    r.expect_tag(kTagTrackerMeta, "tracker meta");
    const std::uint64_t swarm_count = r.u64();
    if (swarm_count == 0 || swarm_count > kMaxSwarms) {
      throw SnapshotError("tracker snapshot: implausible swarm count");
    }
    num_swarms = static_cast<std::size_t>(swarm_count);
    t.round_ = static_cast<std::size_t>(r.u64());
    t.tracker_key_ = r.u64();
    graph::Rng::State st;
    for (std::uint64_t& word : st.s) word = r.u64();
    st.cached_normal = r.f64();
    st.has_cached_normal = r.u8() != 0;
    try {
      t.tracker_rng_.restore(st);
    } catch (const std::invalid_argument&) {
      throw SnapshotError("tracker snapshot: invalid generator state");
    }

    r.expect_tag(kTagTrackerRegistry, "tracker registry");
    const std::uint64_t space = r.u64();
    if (space > std::numeric_limits<GlobalPeerId>::max()) {
      throw SnapshotError("tracker snapshot: implausible id space");
    }
    id_space = static_cast<GlobalPeerId>(space);
    const std::uint64_t count = r.u64();
    if (count > space) throw SnapshotError("tracker snapshot: more records than ids");
    records.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      PeerRegistry::Record rec;
      rec.id = r.u32();
      rec.upload_kbps = r.f64();
      const std::uint64_t memberships = r.u64();
      if (memberships == 0 || memberships > swarm_count) {
        throw SnapshotError("tracker snapshot: implausible membership count");
      }
      rec.memberships.reserve(static_cast<std::size_t>(memberships));
      for (std::uint64_t j = 0; j < memberships; ++j) {
        PeerRegistry::Membership m;
        m.swarm = r.u32();
        m.local = r.u32();
        if (m.swarm >= swarm_count) {
          throw SnapshotError("tracker snapshot: membership names an unknown swarm");
        }
        rec.memberships.push_back(m);
      }
      records.push_back(std::move(rec));
    }
    r.verify_checksum();
  }

  t.swarms_.reserve(num_swarms);
  for (std::size_t k = 0; k < num_swarms; ++k) {
    auto slot = std::make_unique<SwarmSlot>();
    slot->swarm.emplace(Swarm::resume(in, slot->rng));
    slot->driver.emplace(t.cfg_.swarm_churn, slot->swarm->config(), std::vector<double>{},
                         slot->rng);
    restore_churn_driver(in, *slot->driver);
    t.swarms_.push_back(std::move(slot));
  }

  for (const PeerRegistry::Record& rec : records) {
    for (const PeerRegistry::Membership& m : rec.memberships) {
      if (m.local >= t.swarms_[m.swarm]->swarm->peer_count()) {
        throw SnapshotError("tracker snapshot: membership names an unknown peer");
      }
    }
  }
  try {
    t.registry_.restore(std::move(records), id_space);
  } catch (const std::invalid_argument& e) {
    throw SnapshotError(std::string("tracker snapshot: ") + e.what());
  }
  t.build_zipf();
  return t;
}

}  // namespace strat::bt
