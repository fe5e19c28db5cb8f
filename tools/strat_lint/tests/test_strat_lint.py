#!/usr/bin/env python3
"""Self-tests for strat-lint.

Three layers:

  * fixture detection — every seeded violation in
    ``tests/fixtures/r*.cpp`` is found by its rule, and ``clean.cpp``
    (which walks right up to each rule's edge, the conforming way)
    produces nothing;
  * repo regression — the real tree under ``src/``, ``bench/``,
    ``tests/`` is clean, so any new violation fails tier-1;
  * deletion demos — deleting a serialized ``Swarm`` member's save line
    from a copy of ``snapshot.cpp`` makes R4 fire, and putting a
    ``std::thread`` worker back into a copy of ``monte_carlo.cpp`` makes
    R6 fire, without running a single simulation.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
TOOL_DIR = TESTS_DIR.parent
REPO_ROOT = TOOL_DIR.parents[1]
FIXTURES = TESTS_DIR / "fixtures"

sys.path.insert(0, str(TOOL_DIR))

import strat_lint  # noqa: E402
from strat_lint import (  # noqa: E402
    R1, R2, R3, R4, R5, R6,
    LintConfig, SnapshotContract,
    check_snapshot_complete, lint_file, run_lint,
)


def fixture_cfg() -> LintConfig:
    """Config rooted at the fixture directory so R1's hot-path scoping
    covers the fixture files themselves."""
    return LintConfig(root=FIXTURES, unordered_roots=(".",))


def rules_of(findings) -> set:
    return {f.rule for f in findings}


class FixtureDetectionTest(unittest.TestCase):
    """Each seeded violation is caught by exactly the right rule."""

    def lint_fixture(self, name: str):
        return lint_file(FIXTURES / name, fixture_cfg())

    def test_r1_unordered_iteration(self):
        findings = self.lint_fixture("r1_unordered_iter.cpp")
        self.assertEqual(rules_of(findings), {R1})
        self.assertEqual(len(findings), 2)  # range-for + .begin() walk
        messages = " ".join(f.message for f in findings)
        self.assertIn("rates_by_peer", messages)
        self.assertIn("banned_names", messages)

    def test_r2_parallel_rng(self):
        findings = self.lint_fixture("r2_parallel_rng.cpp")
        self.assertEqual(rules_of(findings), {R2})
        messages = [f.message for f in findings]
        self.assertTrue(any("shared sequential rng_" in m for m in messages))
        self.assertTrue(any("draw_helper()" in m for m in messages))
        self.assertTrue(any("inside a parallel_for lambda" in m for m in messages))

    def test_r3_banned_randomness(self):
        findings = self.lint_fixture("r3_banned_randomness.cpp")
        self.assertEqual(rules_of(findings), {R3})
        messages = " ".join(f.message for f in findings)
        for source in ("random_device", "srand", "rand()", "time()",
                       "system_clock", "mt19937"):
            self.assertIn(source, messages)

    def test_r4_incomplete_snapshot(self):
        contract = SnapshotContract(
            class_name="MiniState",
            header="r4_state.hpp",
            serializers=["r4_snapshot.cpp"],
            save_fns=["save_mini"],
            load_fns=["load_mini"],
            check_tags=False,
        )
        findings = check_snapshot_complete(FIXTURES, [contract])
        self.assertEqual(rules_of(findings), {R4})
        # dropped_ is missing from both sections; every covered, waived,
        # or via-annotated member stays silent.
        self.assertEqual(len(findings), 2)
        for f in findings:
            self.assertIn("MiniState::dropped_", f.message)

    def test_r5_shared_accumulation(self):
        findings = self.lint_fixture("r5_float_reduction.cpp")
        self.assertEqual(rules_of(findings), {R5})
        lhs = {f.message.split("'")[1].split(" ")[0] for f in findings}
        self.assertEqual(lhs, {"total", "touched"})

    def test_r6_raw_thread(self):
        findings = self.lint_fixture("r6_raw_thread.cpp")
        self.assertEqual(rules_of(findings), {R6})
        self.assertEqual(len(findings), 3)  # thread vector, jthread, async
        messages = " ".join(f.message for f in findings)
        for spawner in ("std::thread", "std::jthread", "std::async"):
            self.assertIn(spawner + " outside", messages)

    def test_clean_fixture_is_silent(self):
        findings = self.lint_fixture("clean.cpp")
        self.assertEqual(findings, [],
                         "clean fixture must lint clean: " +
                         "; ".join(f.render(FIXTURES) for f in findings))


class SuppressionTest(unittest.TestCase):
    """The waiver grammar reaches across multi-line comment blocks."""

    def test_unwaived_copy_of_clean_fixture_fires(self):
        raw = (FIXTURES / "clean.cpp").read_text()
        stripped_waiver = raw.replace("strat-lint: allow(unordered-iter)",
                                      "waiver removed")
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "clean.cpp"
            target.write_text(stripped_waiver)
            findings = lint_file(target, LintConfig(root=Path(tmp),
                                                    unordered_roots=(".",)))
        self.assertEqual(rules_of(findings), {R1})


class RepoRegressionTest(unittest.TestCase):
    """The real tree is clean — new violations fail tier-1."""

    def test_repo_tree_is_clean(self):
        compile_commands = REPO_ROOT / "build" / "compile_commands.json"
        cfg = LintConfig(
            root=REPO_ROOT,
            compile_commands=compile_commands if compile_commands.is_file() else None,
        )
        findings = run_lint(cfg)
        self.assertEqual(findings, [],
                         "repo tree must lint clean:\n" +
                         "\n".join(f.render(REPO_ROOT) for f in findings))


class SnapshotDeletionDemoTest(unittest.TestCase):
    """Acceptance demo: removing a serialized Swarm member's save line
    makes R4 fail locally, before any simulation runs."""

    CONTRACT_FILES = [
        "src/bittorrent/swarm.hpp",
        "src/bittorrent/faults.hpp",
        "src/bittorrent/scenario.hpp",
        "src/bittorrent/snapshot.cpp",
        "src/bittorrent/snapshot.hpp",
        "src/bittorrent/tracker_sim.hpp",
        "src/bittorrent/tracker_sim.cpp",
    ]

    def copy_contract_tree(self, tmp: Path) -> None:
        for rel in self.CONTRACT_FILES:
            dst = tmp / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(REPO_ROOT / rel, dst)

    def test_pristine_copy_is_clean(self):
        with tempfile.TemporaryDirectory() as tmpdir:
            tmp = Path(tmpdir)
            self.copy_contract_tree(tmp)
            findings = check_snapshot_complete(tmp, strat_lint.DEFAULT_CONTRACTS)
        self.assertEqual(findings, [],
                         "\n".join(f.render(tmp) for f in findings))

    def test_deleting_save_line_fires_r4(self):
        with tempfile.TemporaryDirectory() as tmpdir:
            tmp = Path(tmpdir)
            self.copy_contract_tree(tmp)
            serializer = tmp / "src/bittorrent/snapshot.cpp"
            lines = serializer.read_text().splitlines(keepends=True)
            pruned = [ln for ln in lines if "w.pod_span(rate_in_" not in ln]
            self.assertEqual(len(lines) - len(pruned), 1,
                             "expected exactly one rate_in_ save line to prune")
            serializer.write_text("".join(pruned))
            findings = check_snapshot_complete(tmp, strat_lint.DEFAULT_CONTRACTS)
        self.assertTrue(
            any(f.rule == R4 and "Swarm::rate_in_" in f.message
                and "not written" in f.message for f in findings),
            "R4 must flag the dropped rate_in_ save line: " +
            "; ".join(f.message for f in findings))

    def test_deleting_fault_save_line_fires_r4(self):
        # Same demo for the FaultState contract: its field list must
        # cover every member of faults.hpp, so dropping the
        # retry_round_ span makes R4 fail before any simulation runs.
        with tempfile.TemporaryDirectory() as tmpdir:
            tmp = Path(tmpdir)
            self.copy_contract_tree(tmp)
            serializer = tmp / "src/bittorrent/snapshot.cpp"
            lines = serializer.read_text().splitlines(keepends=True)
            pruned = [ln for ln in lines
                      if "io.pod(fs.retry_round_" not in ln]
            self.assertEqual(len(lines) - len(pruned), 1,
                             "expected exactly one retry_round_ save line to prune")
            serializer.write_text("".join(pruned))
            findings = check_snapshot_complete(tmp, strat_lint.DEFAULT_CONTRACTS)
        self.assertTrue(
            any(f.rule == R4 and "FaultState::retry_round_" in f.message
                and "not written" in f.message for f in findings),
            "R4 must flag the dropped fault save line: " +
            "; ".join(f.message for f in findings))


class RawThreadDemoTest(unittest.TestCase):
    """Acceptance demo: putting a std::thread worker back into a copy of
    the Monte-Carlo estimator makes R6 fail locally, while the copied
    worker pool, the one home of raw threads, stays clean."""

    FILES = [
        "src/analysis/monte_carlo.cpp",
        "src/sim/worker_pool.hpp",
        "src/sim/worker_pool.cpp",
    ]

    def test_thread_worker_in_estimator_fires_r6(self):
        anchor = "namespace strat::analysis {\n"
        with tempfile.TemporaryDirectory() as tmpdir:
            tmp = Path(tmpdir)
            for rel in self.FILES:
                dst = tmp / rel
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(REPO_ROOT / rel, dst)
            estimator = tmp / "src/analysis/monte_carlo.cpp"
            text = estimator.read_text()
            self.assertIn(anchor, text)
            estimator.write_text(text.replace(
                anchor,
                anchor + "\nvoid spawn_worker() {\n"
                "  std::thread worker([] {});\n"
                "  worker.join();\n"
                "}\n", 1))
            cfg = LintConfig(root=tmp, rules={R6})
            findings = [f for rel in self.FILES for f in lint_file(tmp / rel, cfg)]
        self.assertEqual(
            {f.path.name for f in findings}, {"monte_carlo.cpp"},
            "R6 must flag the std::thread worker and nothing in the pool: " +
            "; ".join(f.message for f in findings))


if __name__ == "__main__":
    unittest.main(verbosity=2)
