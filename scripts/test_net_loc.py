#!/usr/bin/env python3
"""Self-tests for net_loc.py: the counting rules, and a run on a temporary git repository."""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import net_loc  # noqa: E402


class CountingRules(unittest.TestCase):
    def test_languages_and_their_comment_prefix(self):
        self.assertEqual(net_loc.comment_prefix("src/core/solver.cpp"), "//")
        self.assertEqual(net_loc.comment_prefix("src/core/solver.hpp"), "//")
        self.assertEqual(net_loc.comment_prefix("scripts/bench_pairs.py"), "#")
        self.assertEqual(net_loc.comment_prefix("scripts/bench_all.sh"), "#")
        self.assertEqual(net_loc.comment_prefix("cmake/StratLint.cmake"), "#")
        self.assertEqual(net_loc.comment_prefix("bench/CMakeLists.txt"), "#")
        self.assertIsNone(net_loc.comment_prefix("README.md"))
        self.assertIsNone(net_loc.comment_prefix("BENCHMARK.json"))

    def test_blank_and_comment_only_lines_do_not_count(self):
        cpp = "// header\n\n#include <x>\n  // indented comment\nint a;  // trailing\n/* block */\n"
        self.assertEqual(net_loc.count_lines(cpp, "//"), 3)
        py = "#!/usr/bin/env python3\n# comment\n\nx = 1  # trailing\n    # indented\n"
        self.assertEqual(net_loc.count_lines(py, "#"), 1)

    def test_tally_groups_by_top_level_directory(self):
        files = {
            "src/a.cpp": b"int a;\n// c\n",
            "src/sub/b.hpp": b"int b;\nint c;\n",
            "CMakeLists.txt": b"project(x)\n# c\n",
            "docs/notes.md": b"text\n",
        }
        self.assertEqual(net_loc.tally(files), {"src": 3, ".": 1})


@unittest.skipIf(shutil.which("git") is None, "git not installed")
class AgainstARevision(unittest.TestCase):
    def git(self, repo: Path, *args: str) -> None:
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def test_rows_compare_the_revision_with_the_working_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            repo = Path(tmp)
            self.git(repo, "init", "-q")
            (repo / "src").mkdir()
            (repo / "src" / "a.cpp").write_text("int a;\nint b;\n// note\n")
            (repo / "src" / "gone.cpp").write_text("int g;\n")
            (repo / "tools").mkdir()
            (repo / "tools" / "t.py").write_text("x = 1\n")
            self.git(repo, "add", "-A")
            self.git(repo, "commit", "-q", "-m", "base")
            # Working tree: one line less in src/, a deleted file, a new
            # untracked file, and an ignored one that must not count.
            (repo / "src" / "a.cpp").write_text("int a;\n\n// note\n")
            (repo / "src" / "gone.cpp").unlink()
            (repo / "tools" / "new.sh").write_text("#!/bin/sh\necho hi\necho bye\n")
            (repo / ".gitignore").write_text("build/\n")
            (repo / "build").mkdir()
            (repo / "build" / "gen.cpp").write_text("int ignored;\n")

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(net_loc.main(["HEAD", "--repo", str(repo)]), 0)
            rows = {line.split()[0]: line.split()[1:] for line in out.getvalue().splitlines()}
            self.assertEqual(rows["src"], ["3", "1", "-2"])
            self.assertEqual(rows["tools"], ["1", "3", "+2"])
            self.assertEqual(rows["total"], ["4", "4", "+0"])
            self.assertNotIn("build", rows)


if __name__ == "__main__":
    unittest.main()
