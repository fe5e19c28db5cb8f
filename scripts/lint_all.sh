#!/usr/bin/env bash
# Runs the whole static-analysis pass with one command, mirroring
# scripts/bench_all.sh:
#
#   1. strat-lint        repo-specific contract rules R1-R6 (always)
#   2. its self-tests    seeded-violation fixtures + clean-tree gate
#   3. clang-tidy        bugprone/performance/concurrency/nodiscard
#   4. cppcheck          warning/performance/portability
#
# 3 and 4 read the exported compile_commands.json and are graceful-
# skipped when the tool (or the compilation database) is absent — the
# same pattern the bench harness uses for Google Benchmark — so the
# script always works locally and is strict in the CI lint job, where
# both analyzers are installed.
#
# Usage: scripts/lint_all.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${root}"
cc_json="${build_dir}/compile_commands.json"

strat_lint_args=(--root "${root}")
if [[ -f "${cc_json}" ]]; then
  strat_lint_args+=(--compile-commands "${cc_json}")
else
  echo "note: ${cc_json} not found — configure first for glob-coverage checking:" >&2
  echo "  cmake -B ${build_dir} -S .   (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default)" >&2
fi

echo "== strat-lint (contract rules R1-R6)"
python3 tools/strat_lint/strat_lint.py "${strat_lint_args[@]}"

echo "== strat-lint self-tests"
python3 tools/strat_lint/tests/test_strat_lint.py

# First-party translation units from the compilation database; the
# FetchContent dependencies under _deps are not ours to lint.
list_sources() {
  python3 - "${cc_json}" <<'PY'
import json, sys
from pathlib import Path
for entry in json.load(open(sys.argv[1])):
    src = str(Path(entry.get("directory", ""), entry["file"]).resolve())
    if "_deps" not in src:
        print(src)
PY
}

if [[ ! -f "${cc_json}" ]]; then
  echo "(no compile_commands.json — skipping clang-tidy and cppcheck)"
  exit 0
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy ($(clang-tidy --version | head -1))"
  list_sources | xargs -P "$(nproc)" -n 8 clang-tidy -p "${build_dir}" --quiet
else
  echo "(clang-tidy not installed — skipping; the CI lint job runs it)"
fi

if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck ($(cppcheck --version))"
  cppcheck \
    --project="${cc_json}" \
    --enable=warning,performance,portability \
    --inline-suppr \
    --suppress='*:*_deps/*' \
    --suppress=missingIncludeSystem \
    --inconclusive \
    --error-exitcode=1 \
    --quiet
else
  echo "(cppcheck not installed — skipping; the CI lint job runs it)"
fi

echo "lint pass complete"
