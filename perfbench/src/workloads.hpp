// The three benchmark workloads and the measurement helpers they share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/scenario.hpp"
#include "bittorrent/snapshot.hpp"
#include "bittorrent/swarm.hpp"
#include "harness.hpp"

namespace perfbench {

namespace bt = strat::bt;

/// One closed 10^5-leecher swarm at 2 threads: the ROADMAP scale point.
void run_swarm_1e5(Run& run);
/// The churn x fault grid of the swarm_churn/swarm_faults drivers.
void run_scenario_sweep(Run& run);
/// 300 churned member swarms under one tracker, 2 shards.
void run_tracker_ecosystem(Run& run);

/// Phase-profile totals of the traced repetitions of a workload.
struct PhaseTotals {
  bt::Swarm::PhaseProfile sum;
  std::size_t rounds = 0;
  std::vector<double> round_ms;  // one entry per swarm round (or ecosystem round)
  double cpu_s = 0.0;
  double wall_s = 0.0;

  /// Adds a profile accumulated over `rounds` rounds: its timers and
  /// lane counters (the fault counters are lifetime totals, not added).
  void add(const bt::Swarm::PhaseProfile& p, std::size_t rounds);
  /// Reports the swarm.* phase metrics and faults.step_ms per round.
  void report(Run& run) const;
};

/// Checkpoint repetitions of one run, which are spread over the run (a
/// few after every window or sweep) so that one slow spell of the host
/// does not hit all of them.
struct Checkpoints {
  Samples total_ms;  // save + resume: the checkpoint_ms samples
  std::size_t reps = 0;
  // Traced repetitions only:
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<double> load_minor_faults;
  std::size_t bytes = 0;

  /// Reports the snapshot.* metrics.
  void report(Run& run) const;
};

/// Checkpoints `live` `reps` times in a chain: save the state, release
/// it, resume from the bytes, and continue from the resumed state.
/// Each save must reproduce the previous bytes (`expect` is the digest
/// of the state `live` holds on entry), and one last save checks the
/// final resume. The first repetition of a run is dropped from the
/// samples: the first loads in a process fault in fresh pages.
/// `save(state, bytes)` appends the snapshot; `resume(std::move(bytes))`
/// returns a State.
template <typename State, typename SaveFn, typename ResumeFn>
void checkpoint_chain(Run& run, std::optional<State>& live, std::uint64_t expect, std::size_t reps,
                      Checkpoints& out, SaveFn&& save, ResumeFn&& resume) {
  Tracer& tracer = run.tracer();
  for (std::size_t i = 0; i < reps && live.has_value(); ++i) {
    const std::size_t k = out.reps++;
    const bool traced = run.begin_rep(k);
    run.attempt("checkpoint " + std::to_string(k) + " saves the bytes it resumed from", [&] {
      std::string bytes;
      const auto t0 = Clock::now();
      {
        const Tracer::Span span(tracer, "save", "snapshot");
        save(*live, bytes);
      }
      const double save_s = seconds_since(t0);
      const bool same = digest_of(bytes) == expect;
      const std::size_t size = bytes.size();
      live.reset();  // one live simulation at a time
      release_free_memory();
      const std::uint64_t faults0 = minor_faults();
      const auto t1 = Clock::now();
      {
        const Tracer::Span span(tracer, "resume", "snapshot");
        live.emplace(resume(std::move(bytes)));
      }
      const double load_s = seconds_since(t1);
      const auto faults = static_cast<double>(minor_faults() - faults0);
      if (k > 0) {
        out.total_ms.add(traced, (save_s + load_s) * 1e3);
        if (traced) {
          out.save_ms.push_back(save_s * 1e3);
          out.load_ms.push_back(load_s * 1e3);
          out.load_minor_faults.push_back(faults);
          out.bytes = size;
        }
      }
      return same;
    });
  }
  tracer.set_enabled(false);
  run.attempt("last checkpoint saves the bytes it resumed from", [&] {
    if (!live.has_value()) return false;
    std::string bytes;
    save(*live, bytes);
    return digest_of(bytes) == expect;
  });
}

/// checkpoint_chain() callbacks for swarms: Swarm::save(std::string&)
/// and resume_from_string.
void save_swarm(const bt::ResumedSwarm& s, std::string& bytes);
[[nodiscard]] bt::ResumedSwarm resume_swarm(std::string&& bytes);

/// Every ScenarioResult field, bitwise.
void digest_result(Digest& d, const bt::ScenarioResult& r);

}  // namespace perfbench
