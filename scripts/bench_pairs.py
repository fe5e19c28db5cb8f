#!/usr/bin/env python3
"""Paired A/B runner for the repository benchmark (perfbench).

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--seed S] [--pairs N] [--trace] [--jsonl PATH]

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each tree, N pairs, alternating which side runs first (pair 1 runs
the parent first, pair 2 the change, and so on), so drift of the host
between runs falls on both sides alike. T is the `run_seconds` of the
parent's BENCHMARK.json: the benchmark fixes the run length, and both
sides run equally long. Each tree builds its own perfbench under its
own .bench_build/ on the first run.

For every end-to-end metric of the parent's BENCHMARK.json it prints
each side's median and interquartile range, the change of the median
in %, how many pairs the change won, whether the median gain exceeds
the parent's IQR, and a flag where the change is worse than the parent
by more than the metric's bound. With --trace the runs pass `--trace 1`
and the table covers the parent's `per_layer` metrics instead, which
show where a change of an end-to-end metric sits; they have no bound,
so none is ever flagged. It exits 1 if any run did not print
`correct: true` with zero failed operations (or printed nothing), and
2 on a usage error. --jsonl PATH appends one JSON line per pair with
both raw results. Standard library only; it reads BENCHMARK.json and
writes nothing under perfbench/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1200


# --- statistics helpers (unit-tested in scripts/test_bench_pairs.py) -------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) with linear interpolation between order statistics; one
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def iqr(values):
    q1, q3 = quartiles(values)
    return q3 - q1


def change_pct(parent, change):
    """Change of `change` relative to `parent`, in %."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    return (change - parent) / abs(parent) * 100.0


def worse_fraction(parent, change, better):
    """How much worse the change is than the parent, as a fraction of
    the parent (negative when it is better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def wins(pairs, better):
    """Pairs (parent, change) in which the change is strictly better."""
    if better == "lower":
        return sum(1 for p, c in pairs if c < p)
    return sum(1 for p, c in pairs if c > p)


def summarize(name, better, bound, pairs):
    """One metric's verdict over (parent, change) value pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    mp, mc = median(parent), median(change)
    gain = (mp - mc) if better == "lower" else (mc - mp)
    return {
        "metric": name,
        "better": better,
        "parent_median": mp,
        "parent_iqr": iqr(parent),
        "change_median": mc,
        "change_iqr": iqr(change),
        "change_pct": change_pct(mp, mc),
        "won": wins(pairs, better),
        "pairs": len(pairs),
        "gain_beats_iqr": gain > iqr(parent),
        "over_bound": bound is not None and worse_fraction(mp, mc, better) > bound,
    }


# --- running ---------------------------------------------------------------


def run_command(workload, seed, seconds, trace):
    """The perfbench command line of one run."""
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "1" if trace else "0"]


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`: (result dict or None, problem or None)."""
    cmd = run_command(workload, seed, seconds, trace)
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        return None, f"could not run: {e}"
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        return None, f"exit code {proc.returncode}, no result\n{tail}"
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        return result, (f"correct={result.get('correct')} "
                        f"failed={result.get('failed')} of {result.get('attempted')}")
    return result, None


def load_spec(tree):
    """The tree's BENCHMARK.json: `run_seconds` and the `end_to_end` metrics."""
    return json.loads((Path(tree) / "BENCHMARK.json").read_text())


def metrics_for(spec, trace):
    """The metrics a run reports: `end_to_end`, or with `trace` the
    `per_layer` ones, which carry no bound."""
    if not trace:
        return spec["end_to_end"]
    return [{**m, "bound": None} for m in spec["per_layer"]]


def fmt(v):
    return f"{v:.4g}"


def print_table(workload, seed, rows):
    print(f"{workload} seed {seed}: {rows[0]['pairs'] if rows else 0} pairs, parent | change")
    width = max([18] + [len(r["metric"]) for r in rows])
    head = (f"{'metric':<{width}} {'parent median [IQR]':>24} {'change median [IQR]':>24} "
            f"{'change':>8} {'won':>6} {'>IQR':>5}  flag")
    print(head)
    for r in rows:
        flag = "WORSE THAN BOUND" if r["over_bound"] else ""
        print(f"{r['metric']:<{width}} "
              f"{fmt(r['parent_median']) + ' [' + fmt(r['parent_iqr']) + ']':>24} "
              f"{fmt(r['change_median']) + ' [' + fmt(r['change_iqr']) + ']':>24} "
              f"{r['change_pct']:>+7.1f}% {str(r['won']) + '/' + str(r['pairs']):>6} "
              f"{'yes' if r['gain_beats_iqr'] else 'no':>5}  {flag}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="tree of the parent commit")
    ap.add_argument("--change", required=True, help="tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--trace", action="store_true",
                    help="run traced and compare the per-layer metrics")
    ap.add_argument("--jsonl", help="append the raw pairs here, one JSON line each")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not (Path(tree) / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")

    spec = load_spec(args.parent)
    seconds, metrics = spec["run_seconds"], metrics_for(spec, args.trace)
    values = {m["name"]: [] for m in metrics}
    bad = 0
    sink = open(args.jsonl, "a", encoding="utf-8") if args.jsonl else None
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                tree = args.parent if side == "parent" else args.change
                result, problem = run_once(tree, args.workload, args.seed, seconds, args.trace)
                results[side] = result
                if problem is not None:
                    bad += 1
                    print(f"pair {i + 1} {side}: {problem}", file=sys.stderr)
            if sink is not None:
                sink.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                       "trace": args.trace, "pair": i + 1, "first": order[0],
                                       **results}) + "\n")
                sink.flush()
            line = [f"pair {i + 1} ({order[0]} first)"]
            if results["parent"] is not None and results["change"] is not None:
                for m in metrics:
                    p = results["parent"]["metrics"][m["name"]]["value"]
                    c = results["change"]["metrics"][m["name"]]["value"]
                    values[m["name"]].append((p, c))
                    line.append(f"{m['name']} {fmt(p)} -> {fmt(c)}")
            print("  ".join(line), file=sys.stderr)
    finally:
        if sink is not None:
            sink.close()

    rows = [summarize(m["name"], m["better"], m.get("bound"), values[m["name"]])
            for m in metrics if values[m["name"]]]
    if rows:
        print_table(args.workload, args.seed, rows)
    if bad:
        print(f"{bad} run(s) without correct: true and zero failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
