#include <string>

#include "workloads.hpp"

namespace perfbench {

void PhaseTotals::add(const bt::Swarm::PhaseProfile& p, std::size_t n) {
  sum.choke_seconds += p.choke_seconds;
  sum.endgame_seconds += p.endgame_seconds;
  sum.mutual_seconds += p.mutual_seconds;
  sum.transfer_seconds += p.transfer_seconds;
  sum.fold_seconds += p.fold_seconds;
  sum.transfer_compute_seconds += p.transfer_compute_seconds;
  sum.transfer_commit_seconds += p.transfer_commit_seconds;
  sum.transfer_rerun_seconds += p.transfer_rerun_seconds;
  sum.transfer_lanes += p.transfer_lanes;
  sum.transfer_reruns += p.transfer_reruns;
  sum.fault_seconds += p.fault_seconds;
  rounds += n;
}

void PhaseTotals::report(Run& run) const {
  const double per_round = rounds == 0 ? 0.0 : 1e3 / static_cast<double>(rounds);
  const Tail t = tail(round_ms);
  run.layer("swarm.round_ms_p50", median(round_ms));
  run.layer("swarm.round_ms_tail", t.value);
  run.note("swarm.round_ms_tail is " + describe(t));
  run.layer("swarm.choke_ms", sum.choke_seconds * per_round);
  run.layer("swarm.mutual_ms", sum.mutual_seconds * per_round);
  run.layer("swarm.transfer_compute_ms", sum.transfer_compute_seconds * per_round);
  run.layer("swarm.transfer_commit_ms", sum.transfer_commit_seconds * per_round);
  run.layer("swarm.transfer_rerun_ms", sum.transfer_rerun_seconds * per_round);
  run.layer("swarm.fold_ms", sum.fold_seconds * per_round);
  run.layer("faults.step_ms", sum.fault_seconds * per_round);
  // The five round phases partition a round; the fault step precedes them.
  const double phases = sum.choke_seconds + sum.endgame_seconds + sum.mutual_seconds +
                        sum.transfer_seconds + sum.fold_seconds + sum.fault_seconds;
  const double serial = sum.mutual_seconds + sum.transfer_commit_seconds + sum.fault_seconds;
  run.layer("swarm.serial_share", phases > 0.0 ? serial / phases : 0.0);
  run.layer("swarm.lanes_per_round",
            rounds == 0 ? 0.0
                        : static_cast<double>(sum.transfer_lanes) / static_cast<double>(rounds));
  run.layer("swarm.rerun_fraction", sum.rerun_fraction());
  run.layer("swarm.cpu_per_wall", wall_s > 0.0 ? cpu_s / wall_s : 0.0);
}

void Checkpoints::report(Run& run) const {
  run.layer("snapshot.save_ms", median(save_ms));
  run.layer("snapshot.load_ms", median(load_ms));
  run.layer("snapshot.bytes", static_cast<double>(bytes));
  run.layer("snapshot.load_minor_faults", median(load_minor_faults));
}

void save_swarm(const bt::ResumedSwarm& s, std::string& bytes) { s.swarm().save(bytes); }

bt::ResumedSwarm resume_swarm(std::string&& bytes) { return bt::resume_from_string(bytes); }

void digest_result(Digest& d, const bt::ScenarioResult& r) {
  d.u64(r.seed);
  d.u64(r.completed_leechers);
  d.f64(r.mean_completion_round);
  d.f64(r.mean_leech_kbps);
  d.f64(r.top_decile_kbps);
  d.f64(r.bottom_decile_kbps);
  d.f64(r.strat.partner_rank_correlation);
  d.f64(r.strat.mean_normalized_offset);
  d.u64(r.strat.reciprocated_pairs);
  d.f64(r.availability_cv);
  d.f64(r.total_uploaded_kb);
  d.f64(r.total_downloaded_kb);
  d.u64(r.arrivals);
  d.u64(r.departures);
  d.u64(r.live_peers);
  d.u64(r.fault_failed_announces);
  d.u64(r.fault_retries);
  d.u64(r.fault_connect_failures);
  d.u64(r.fault_nat_rejections);
  d.u64(r.fault_lost_lanes);
}

}  // namespace perfbench
