#!/usr/bin/env python3
"""Net lines of code per top-level directory: a git revision against the working tree.

    python3 scripts/net_loc.py REV [--repo DIR]

A line counts when it is neither blank nor comment-only. In C++ files a
comment-only line starts with `//` (after leading whitespace); in
Python, shell and CMake files it starts with `#`. Block comments and
trailing comments count as code. Other files are not counted.

The REV side reads the files of REV through `git archive`. The working
tree side reads the tracked files and the untracked ones git does not
ignore, from disk. Files at the repository root are grouped under `.`.
It prints one row per top-level directory, with the count at REV, the
count in the working tree and the delta, then the total. Standard
library and git only.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
from pathlib import Path, PurePosixPath

CPP_SUFFIXES = {".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp", ".hxx", ".ipp"}
HASH_SUFFIXES = {".py", ".sh", ".cmake"}
HASH_NAMES = {"CMakeLists.txt"}


def comment_prefix(path: str) -> str | None:
    """The comment-only line prefix for `path`, or None if it is not counted."""
    p = PurePosixPath(path)
    if p.suffix in CPP_SUFFIXES:
        return "//"
    if p.suffix in HASH_SUFFIXES or p.name in HASH_NAMES:
        return "#"
    return None


def count_lines(text: str, prefix: str) -> int:
    """Lines of `text` that are neither blank nor comment-only."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(prefix):
            count += 1
    return count


def top_dir(path: str) -> str:
    head, sep, _ = path.partition("/")
    return head if sep else "."


def tally(files: dict[str, bytes]) -> dict[str, int]:
    """Counted lines per top-level directory over {path: contents}."""
    out: dict[str, int] = {}
    for path, data in files.items():
        prefix = comment_prefix(path)
        if prefix is None:
            continue
        lines = count_lines(data.decode("utf-8", errors="replace"), prefix)
        out[top_dir(path)] = out.get(top_dir(path), 0) + lines
    return out


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def files_at(repo: Path, rev: str) -> dict[str, bytes]:
    archive = git(repo, "archive", "--format=tar", rev)
    files: dict[str, bytes] = {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile() and comment_prefix(member.name) is not None:
                files[member.name] = tar.extractfile(member).read()
    return files


def files_in_worktree(repo: Path) -> dict[str, bytes]:
    listing = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    files: dict[str, bytes] = {}
    for name in sorted(set(listing.decode().split("\0")) - {""}):
        path = repo / name
        if comment_prefix(name) is not None and path.is_file():
            files[name] = path.read_bytes()
    return files


def report(rev: str, before: dict[str, int], after: dict[str, int]) -> str:
    rows = [(d, before.get(d, 0), after.get(d, 0)) for d in sorted(set(before) | set(after))]
    rows.append(("total", sum(before.values()), sum(after.values())))
    width = max(len(d) for d, _, _ in rows)
    lines = [f"{'dir':<{width}}  {rev:>10}  {'worktree':>10}  {'delta':>8}"]
    for d, b, a in rows:
        lines.append(f"{d:<{width}}  {b:>10}  {a:>10}  {a - b:>+8}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--repo", type=Path, default=Path("."), help="repository (default: .)")
    args = parser.parse_args(argv)
    repo = Path(git(args.repo, "rev-parse", "--show-toplevel").decode().strip())
    before = tally(files_at(repo, args.rev))
    after = tally(files_in_worktree(repo))
    print(report(args.rev, before, after))
    return 0


if __name__ == "__main__":
    sys.exit(main())
