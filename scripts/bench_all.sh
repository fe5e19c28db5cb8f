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
# (BM_SwarmLongChurn: two swarms with a fixed 5000-peer live population
# that absorbed 10^5 and 10^6 cumulative arrivals, one run of ~30 s;
# end-state round time and data-plane MB per swarm, with `flatness`, the
# median ratio of 15 alternating 10^6/10^5 probe-round pairs, near 1.0
# when the peer-table compaction works, plus id_index_mb and retired_mb,
# which grow with the departed-peer archive), and the intra-round
# thread-scaling sweep (BM_SwarmRoundThreads at 10^5 peers x threads
# 1/2/4/8, each repetition a 3-round window resumed from one post-warm-up
# snapshot, as perfbench's swarm_1e5 windows are:
# choke_fold_ms + mutual_ms + transfer_compute_ms across the
# sweep is the parallel-phase speedup, transfer_commit_ms (the serial
# commit) is the Amdahl remainder, and rerun_frac — the
# speculative-plan conflict rate — is thread-count invariant;
# bitwise-identical results per seed), and the checkpoint
# cost (BM_SwarmSnapshot at 10^4/10^5 peers: snapshot_mb plus save/
# load ms, with save_load_vs_round < 1.0 as the affordability bar; the
# bar failed until the loader read in-memory snapshots in place — on a
# 4-vCPU Xeon host it read 1.26-1.54 at 10^4 and 1.12-1.50 at 10^5
# peers before, 0.70-0.84 and 0.67-0.78 after),
# the fault-injection pair (BM_SwarmFaults arg 0/1: faults-off must
# stay within noise of BM_SwarmChurnRound — the zero-cost-when-off
# gate — and arg 1 prices the combined outage + flaky-connect + NAT +
# lane-loss regime),
# as one JSON snapshot (BENCH_swarm.json) for regression comparisons
# across PRs. The tracker tier rides along: BM_TrackerSimShards
# (shards 1/2/4/8 x 10/100/1000 churned swarms — swarm-round
# throughput plus barrier/shard/imbalance ms) and the shards=1
# overhead gate BM_TrackerOverhead (the same closed 100-swarm workload
# through the tracker layer and a plain serial Swarm loop, one round of
# each per iteration in alternating order; its `overhead` counter, the
# median per-round tracker/loop ratio, must stay <= 1.10). The set-up
# path rides along too: BM_RepresentativeSample (the capacity sample at
# 10^3 and 10^5 peers) and BM_SwarmConstruct/100000 (the constructor it
# feeds), a micro-level before/after for set-up outside perfbench. The
# rarest-first kernel rides along as BM_RarestFirstPick (ns per pick in
# the dense, swarm_1e5 plan-pick and sparse tracker-member shapes, with
# a pick_checksum that must not move between kernels).
micro_swarm="${build_dir}/bench/micro_swarm"
if [[ -x "${micro_swarm}" ]]; then
  echo "== micro_swarm -> BENCH_swarm.json"
  "${micro_swarm}" \
    --benchmark_filter='BM_SwarmRound/.*|BM_SwarmRoundThreads/.*|BM_SwarmChurnRound/.*|BM_SwarmFaults/.*|BM_SwarmLongChurn.*|BM_SwarmSnapshot/.*|BM_ReferenceSwarmRound/.*|BM_ScenarioReplications/.*|BM_ChurnScenarioReplications/.*|BM_TrackerSimShards/.*|BM_TrackerOverhead.*|BM_RepresentativeSample/.*|BM_SwarmConstruct/.*|BM_RarestFirstPick/.*' \
    --benchmark_min_time=0.05 \
    --benchmark_out="${out_dir}/BENCH_swarm.json" \
    --benchmark_out_format=json > /dev/null
else
  echo "(micro_swarm not built — Google Benchmark missing — skipping BENCH_swarm.json)"
fi

echo "wrote $(ls "${out_dir}" | wc -l) result files to ${out_dir}/"
