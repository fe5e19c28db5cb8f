#!/usr/bin/env bash
# Runs every figure/table reproduction bench and saves its CSV output.
#
# Usage: scripts/bench_all.sh [build-dir] [out-dir]
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench-results}"

if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: ${build_dir}/bench not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

mkdir -p "${out_dir}"

for bin in "${build_dir}"/bench/*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  case "${name}" in
    micro_*) continue ;;  # Google Benchmark harnesses: run them directly
    CMakeFiles|Makefile|*.cmake) continue ;;
  esac
  echo "== ${name}"
  "${bin}" --csv > "${out_dir}/${name}.csv"
done

# Swarm data-plane timing baseline: flat edge-slot rounds at
# 10^2..10^4 peers, the retained map-based plane at the same sizes,
# churned rounds at 5000 peers (dynamic-overlay cost), the static +
# churned replication throughput, the long-churn scale gate
# (BM_SwarmLongChurn: end-state round time, data-plane MB and RSS at
# 10^5 and 10^6 cumulative arrivals over a fixed 5000-peer live
# population — flat across the two args is the peer-table compaction
# working; the 10^6 point takes ~30 s), and the intra-round
# thread-scaling sweep (BM_SwarmRoundThreads at 10^5 peers x threads
# 1/2/4/8: choke_fold_ms + transfer_compute_ms across the sweep is
# the parallel-phase speedup, serial_ms = mutual + transfer commit is
# the Amdahl remainder, and rerun_frac — the speculative-plan conflict
# rate — is thread-count invariant; bitwise-identical results per
# seed), and the checkpoint
# cost (BM_SwarmSnapshot at 10^4/10^5 peers: snapshot_mb plus save/
# load ms, with save_load_vs_round < 1.0 as the affordability bar),
# the fault-injection pair (BM_SwarmFaults arg 0/1: faults-off must
# stay within noise of BM_SwarmChurnRound — the zero-cost-when-off
# gate — and arg 1 prices the combined outage + flaky-connect + NAT +
# lane-loss regime),
# as one JSON snapshot (BENCH_swarm.json) for regression comparisons
# across PRs. The tracker tier rides along: BM_TrackerSimShards
# (shards 1/2/4/8 x 10/100/1000 churned swarms — swarm-round
# throughput plus barrier/shard/imbalance ms) and the shards=1
# overhead gate pair BM_TrackerClosedRounds vs
# BM_SerialSwarmLoopRounds (tracker layer within 10% of a plain
# serial Swarm loop on the same closed 100-swarm workload). The set-up
# path rides along too: BM_RepresentativeSample (the capacity sample at
# 10^3 and 10^5 peers) and BM_SwarmConstruct/100000 (the constructor it
# feeds), a micro-level before/after for set-up outside perfbench.
micro_swarm="${build_dir}/bench/micro_swarm"
if [[ -x "${micro_swarm}" ]]; then
  echo "== micro_swarm -> BENCH_swarm.json"
  "${micro_swarm}" \
    --benchmark_filter='BM_SwarmRound/.*|BM_SwarmRoundThreads/.*|BM_SwarmChurnRound/.*|BM_SwarmFaults/.*|BM_SwarmLongChurn/.*|BM_SwarmSnapshot/.*|BM_ReferenceSwarmRound/.*|BM_ScenarioReplications/.*|BM_ChurnScenarioReplications/.*|BM_TrackerSimShards/.*|BM_TrackerClosedRounds.*|BM_SerialSwarmLoopRounds.*|BM_RepresentativeSample/.*|BM_SwarmConstruct/.*' \
    --benchmark_min_time=0.05 \
    --benchmark_out="${out_dir}/BENCH_swarm.json" \
    --benchmark_out_format=json > /dev/null
else
  echo "(micro_swarm not built — Google Benchmark missing — skipping BENCH_swarm.json)"
fi

echo "wrote $(ls "${out_dir}" | wc -l) result files to ${out_dir}/"
