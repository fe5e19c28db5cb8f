#!/usr/bin/env python3
"""strat-lint: repo-specific static analysis for the stratification codebase.

The swarm simulator's differential-test tiers rest on three contracts
that, before this tool, were enforced only dynamically:

  * bitwise determinism at any thread count (per-peer counter-based RNG
    streams, no iteration-order-dependent state mutation),
  * the parallel-phase discipline (no shared sequential RNG inside
    ``sim::parallel_for`` / ``parallel_for_chunks`` lambdas, FP
    reductions merged serially, every thread owned by the one
    ``sim::WorkerPool``),
  * snapshot completeness (every ``Swarm``/``ChurnDriver`` state member
    is serialized, or carries a written waiver).

strat-lint pins each contract with one rule:

  R1  unordered-iter     no iteration over ``std::unordered_map`` /
                         ``std::unordered_set`` (bucket order is
                         nondeterministic across implementations and
                         runs; anything order-dependent downstream —
                         FP accumulation, RNG draws, container mutation
                         order — silently breaks bitwise lockstep).
  R2  parallel-rng       no use of the shared sequential ``rng_``
                         inside a ``sim::parallel_for`` or
                         ``sim::parallel_for_chunks`` lambda body, nor
                         in same-file functions the lambda calls
                         (parallel draws come from ``Rng::stream``).
  R3  banned-randomness  no ``std::random_device``, ``std::rand`` /
                         ``srand``, C ``time()``, or
                         ``std::chrono::system_clock`` anywhere —
                         every draw must come from the seeded
                         ``graph::Rng`` (``steady_clock`` is allowed:
                         it feeds wall-clock profiling, never state).
  R4  snapshot-complete  every data member of the snapshot-contract
                         classes (``Swarm``, ``ChurnDriver``) appears
                         in both the save and the load sections of
                         their serializer, or carries an explicit
                         waiver; section tags must round-trip too.
  R5  float-reduction    no compound floating-point/integer
                         accumulation into shared (captured,
                         unindexed) variables inside a
                         ``parallel_for_chunks`` lambda — cross-chunk
                         FP reductions must use per-chunk scratch
                         merged in a deterministic serial commit.
  R6  raw-thread         no ``std::thread`` / ``std::jthread`` object
                         and no ``std::async`` outside
                         ``src/sim/worker_pool.*`` (``std::thread::id``,
                         ``std::thread::hardware_concurrency()`` and
                         ``std::this_thread`` stay legal): a hand-rolled
                         pool splits work by its thread count, so every
                         fan-out goes through ``sim::parallel_for`` or
                         ``parallel_for_chunks`` on the shared pool.

Suppressions (same line or the line directly above the finding)::

    // strat-lint: allow(unordered-iter) -- <why this is order-independent>

R4 member annotations (on the member's declaration line or the line
directly above)::

    // strat-lint: not-serialized -- <why resume can rebuild/ignore it>
    // strat-lint: serialized-via(<save-token>, <load-token>)

``serialized-via`` names the accessor/helper tokens that must appear in
the serializer's save and load sections respectively, for members that
travel through an accessor (e.g. ``ChurnDriver::deadline_snapshot``)
rather than by name.

The tool is Python 3 stdlib-only and does lightweight lexical C++
parsing (comment stripping, brace matching, declaration scans) — it is
deliberately not a compiler front end. ``compile_commands.json`` (when
present) is cross-checked so no compiled source under the scanned roots
escapes the glob. Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------------
# Rule identifiers
# --------------------------------------------------------------------------

R1 = "unordered-iter"
R2 = "parallel-rng"
R3 = "banned-randomness"
R4 = "snapshot-complete"
R5 = "float-reduction"
R6 = "raw-thread"

RULE_IDS = {R1: "R1", R2: "R2", R3: "R3", R4: "R4", R5: "R5", R6: "R6"}

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}


@dataclass
class Finding:
    path: Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: {RULE_IDS[self.rule]} [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexical helpers
# --------------------------------------------------------------------------


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string/char literals, keeping
    byte offsets and line numbers identical so findings point at real
    source lines. Suppression comments are read from the *raw* text."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j = j + 2 if text[j] == "\\" else j + 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_brace(text: str, open_ix: int) -> int:
    """Index of the '}' matching the '{' at open_ix (comment-stripped
    text). Returns len(text) - 1 when unbalanced."""
    depth = 0
    for i in range(open_ix, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def match_angle(text: str, open_ix: int) -> int:
    """Index of the '>' closing the '<' at open_ix (handles nesting and
    '>>' closes)."""
    depth = 0
    for i in range(open_ix, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


SUPPRESS_RE = re.compile(r"strat-lint:\s*allow\(([\w,\s-]+)\)\s*--\s*\S")


def suppressed_lines(raw_text: str) -> dict[int, set[str]]:
    """Maps line number -> rule names allowed there. A suppression
    covers its own line and — when it sits in a comment block — every
    following comment line plus the first code line below the block, so
    a multi-line waiver justification still reaches the code it waives."""
    allowed: dict[int, set[str]] = {}
    lines = raw_text.splitlines()
    for ix, line in enumerate(lines):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allowed.setdefault(ix + 1, set()).update(rules)
        j = ix + 1
        while j < len(lines) and lines[j].lstrip().startswith("//"):
            allowed.setdefault(j + 1, set()).update(rules)
            j += 1
        if j < len(lines):
            allowed.setdefault(j + 1, set()).update(rules)
    return allowed


# --------------------------------------------------------------------------
# R1: iteration over unordered containers
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")
IDENT_AFTER_TYPE_RE = re.compile(r"\s*[&*]*\s*(\w+)")


def unordered_names(stripped: str) -> set[str]:
    """Variable/member/parameter names declared with an unordered type
    in this translation unit (its header's declarations are merged in by
    the caller)."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        open_ix = m.end() - 1
        close_ix = match_angle(stripped, open_ix)
        im = IDENT_AFTER_TYPE_RE.match(stripped, close_ix + 1)
        if im:
            names.add(im.group(1))
    return names


RANGE_FOR_RE = re.compile(r"\bfor\s*\([^();]*:\s*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")


def check_unordered_iter(path: Path, stripped: str, extra_decls: set[str]) -> list[Finding]:
    names = unordered_names(stripped) | extra_decls
    if not names:
        return []
    findings = []
    for m in RANGE_FOR_RE.finditer(stripped):
        if m.group(1) in names:
            findings.append(Finding(
                path, line_of(stripped, m.start()), R1,
                f"range-for over unordered container '{m.group(1)}': bucket order is "
                "nondeterministic; iterate a sorted copy or an ordered structure, or "
                "waive with a written order-independence argument"))
    for m in BEGIN_CALL_RE.finditer(stripped):
        if m.group(1) in names:
            findings.append(Finding(
                path, line_of(stripped, m.start()), R1,
                f"iterator walk of unordered container '{m.group(1)}' (.begin()): "
                "bucket order is nondeterministic; sort before use or waive with a "
                "written order-independence argument"))
    return findings


# --------------------------------------------------------------------------
# R2 + R5: parallel loop lambda discipline
# --------------------------------------------------------------------------

PARALLEL_CALL_RE = re.compile(r"\b(parallel_for(?:_chunks)?)\s*(?:<[^;{>]*>)?\s*\(")
PARALLEL_LOOPS = {"parallel_for", "parallel_for_chunks"}
LAMBDA_INTRO_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:noexcept\s*)?(?:->[^{]*)?\{")
SHARED_RNG_RE = re.compile(r"\brng_\b")
CALLEE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CXX_KEYWORDS = {
    "for", "if", "while", "switch", "return", "sizeof", "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast", "catch", "assert",
    "decltype", "alignof", "noexcept", "throw",
}
COMPOUND_ACCUM_RE = re.compile(r"(?:^|[;{}()])\s*([A-Za-z_][\w.]*(?:->\w+)?)\s*([+\-*/]=|\+\+|--)")
LOCAL_DECL_RE = re.compile(
    r"\b(?:auto|double|float|bool|char|int|unsigned|long|short|std::(?:u?int\d+_t|size_t|ptrdiff_t)|size_t)"
    r"\s*[&*]?\s+(\w+)\s*(?:=|;|\{|\[)")


def lambda_bodies(stripped: str) -> list[tuple[str, int, str]]:
    """(loop name, body start offset, body text) of every lambda passed
    to a parallel_for or parallel_for_chunks call."""
    bodies = []
    for call in PARALLEL_CALL_RE.finditer(stripped):
        close = match_brace_like(stripped, call.end() - 1, "(", ")")
        args = stripped[call.end():close]
        for lam in LAMBDA_INTRO_RE.finditer(args):
            body_open = call.end() + lam.end() - 1
            body_close = match_brace(stripped, body_open)
            bodies.append((call.group(1), body_open + 1, stripped[body_open + 1:body_close]))
    return bodies


def match_brace_like(text: str, open_ix: int, opener: str, closer: str) -> int:
    depth = 0
    for i in range(open_ix, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def function_body(stripped: str, name: str) -> str | None:
    """Body of the first function *definition* named `name` in this
    file (free, member, or qualified), or None."""
    for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", stripped):
        close = match_brace_like(stripped, m.end() - 1, "(", ")")
        after = stripped[close + 1:close + 160]
        bm = re.match(r"\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>,\s&*]+)?\s*\{", after)
        if bm:
            body_open = close + 1 + bm.end() - 1
            return stripped[body_open + 1:match_brace(stripped, body_open)]
    return None


def check_parallel_lambdas(path: Path, stripped: str) -> list[Finding]:
    findings = []
    for loop, body_start, body in lambda_bodies(stripped):
        # R2: the shared sequential generator must never be touched
        # from a parallel worker.
        for m in SHARED_RNG_RE.finditer(body):
            findings.append(Finding(
                path, line_of(stripped, body_start + m.start()), R2,
                f"shared sequential rng_ used inside a {loop} lambda: "
                "draws become schedule-dependent; use a counter-based per-item "
                "stream (Rng::stream(key, id, round)) instead"))
        # R2, one level deep: same-file functions the lambda calls.
        reported: set[str] = set()
        for m in CALLEE_RE.finditer(body):
            callee = m.group(1)
            if callee in CXX_KEYWORDS or callee in reported or callee in PARALLEL_LOOPS:
                continue
            callee_body = function_body(stripped, callee)
            if callee_body and SHARED_RNG_RE.search(callee_body):
                reported.add(callee)
                findings.append(Finding(
                    path, line_of(stripped, body_start + m.start()), R2,
                    f"{loop} lambda calls {callee}(), which uses the "
                    "shared sequential rng_; route its randomness through "
                    "Rng::stream or hoist the call out of the parallel phase"))
        if loop != "parallel_for_chunks":
            continue
        # R5: compound accumulation into shared unindexed captures.
        locals_ = {d.group(1) for d in LOCAL_DECL_RE.finditer(body)}
        for m in COMPOUND_ACCUM_RE.finditer(body):
            lhs, op = m.group(1), m.group(2)
            base = re.split(r"[.\[]|->", lhs)[0]
            if "[" in lhs or base in locals_:
                continue  # element-indexed (chunk-owned) or chunk-local
            findings.append(Finding(
                path, line_of(stripped, body_start + m.start(1)), R5,
                f"'{lhs} {op}' accumulates into a shared captured variable inside a "
                "parallel_for_chunks lambda: cross-chunk reduction order (and FP "
                "rounding) becomes schedule-dependent; accumulate into per-chunk "
                "scratch and merge in a deterministic serial commit"))
    return findings


# --------------------------------------------------------------------------
# R3: banned randomness / wall-clock sources
# --------------------------------------------------------------------------

BANNED_PATTERNS = [
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; seed a graph::Rng explicitly"),
    (re.compile(r"\bsrand\s*\("),
     "srand() seeds hidden global state; use an explicit graph::Rng"),
    (re.compile(r"(?:\bstd::|[^:.\w])rand\s*\("),
     "rand() draws from hidden global state; use an explicit graph::Rng"),
    (re.compile(r"(?:\bstd::|[^:.\w])time\s*\("),
     "time() makes runs unreproducible; seeds and schedules must be explicit"),
    (re.compile(r"\bsystem_clock\b"),
     "system_clock is wall-clock (non-monotonic, machine-dependent); use "
     "steady_clock for profiling and never a clock for simulation state"),
    (re.compile(r"\bmt19937(?:_64)?\b"),
     "std::mt19937 bypasses graph::Rng (distribution implementations vary "
     "across standard libraries, breaking cross-toolchain reproducibility)"),
]


def check_banned_randomness(path: Path, stripped: str) -> list[Finding]:
    findings = []
    for pattern, why in BANNED_PATTERNS:
        for m in pattern.finditer(stripped):
            findings.append(Finding(path, line_of(stripped, m.start()), R3, why))
    return findings


# --------------------------------------------------------------------------
# R6: threads outside the worker pool
# --------------------------------------------------------------------------

# A thread object is `std::thread` / `std::jthread` not followed by `::`
# (std::thread::id and std::thread::hardware_concurrency() name no
# thread; std::this_thread never matches).
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")
ASYNC_RE = re.compile(r"\bstd\s*::\s*async\s*\(")
# The one file stem allowed to own threads, repo-relative.
THREAD_HOME = "src/sim/worker_pool"


def check_raw_thread(path: Path, stripped: str) -> list[Finding]:
    findings = []
    for m in RAW_THREAD_RE.finditer(stripped):
        findings.append(Finding(
            path, line_of(stripped, m.start()), R6,
            f"{m.group(0)} outside {THREAD_HOME}.*: a hand-rolled pool splits work "
            "by its thread count; fan out through sim::parallel_for or "
            "parallel_for_chunks on the shared sim::WorkerPool"))
    for m in ASYNC_RE.finditer(stripped):
        findings.append(Finding(
            path, line_of(stripped, m.start()), R6,
            f"std::async outside {THREAD_HOME}.*: it spawns threads the worker pool "
            "does not own; fan out through sim::parallel_for instead"))
    return findings


def is_thread_home(path: Path, root: Path) -> bool:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return False
    return rel.with_suffix("").as_posix() == THREAD_HOME


# --------------------------------------------------------------------------
# R4: snapshot completeness
# --------------------------------------------------------------------------


@dataclass
class SnapshotContract:
    class_name: str
    header: str  # repo-relative path holding the class definition
    serializers: list[str]  # repo-relative paths holding save/load code
    save_fns: list[str]  # function names forming the save section
    load_fns: list[str]  # function names forming the load section
    check_tags: bool = True  # require kTag* constants in both sections


DEFAULT_CONTRACTS = [
    # Records serialize through one field list each (snapshot.cpp:
    # <record>_fields), which is both the save and the load section of
    # its record. Every list has its own name: function_body() returns
    # the first definition of a name only.
    SnapshotContract(
        class_name="Swarm",
        header="src/bittorrent/swarm.hpp",
        serializers=["src/bittorrent/snapshot.cpp"],
        save_fns=["save_impl", "swarm_config_fields", "peer_stats_fields", "fault_state_fields"],
        load_fns=["resume_impl", "swarm_config_fields", "peer_stats_fields", "fault_state_fields"],
    ),
    SnapshotContract(
        class_name="FaultState",
        header="src/bittorrent/faults.hpp",
        serializers=["src/bittorrent/snapshot.cpp"],
        save_fns=["fault_state_fields"],
        load_fns=["fault_state_fields"],
        check_tags=False,  # kTagFaults is owned by the Swarm contract
    ),
    SnapshotContract(
        class_name="ChurnDriver",
        header="src/bittorrent/scenario.hpp",
        serializers=["src/bittorrent/snapshot.hpp"],
        save_fns=["save_churn_driver"],
        load_fns=["restore_churn_driver"],
        check_tags=False,  # the companion section is tagged by magic only
    ),
    SnapshotContract(
        class_name="TrackerSim",
        header="src/bittorrent/tracker_sim.hpp",
        serializers=["src/bittorrent/tracker_sim.cpp"],
        save_fns=["save"],
        load_fns=["resume"],
    ),
]

MEMBER_DECL_RE = re.compile(r"(\w+_)\s*(?:=[^;]*)?;\s*$")
NOT_SERIALIZED_RE = re.compile(r"strat-lint:\s*not-serialized\s*--\s*\S")
SERIALIZED_VIA_RE = re.compile(r"strat-lint:\s*serialized-via\(\s*(\w+)\s*,\s*(\w+)\s*\)")
TAG_CONST_RE = re.compile(r"constexpr\s+std::uint32_t\s+(kTag\w+)")


def class_members(stripped: str, class_name: str) -> list[tuple[str, int]]:
    """(member name, line) for every data member (trailing-underscore
    convention) declared at the top level of `class_name`'s body.
    Nested types and inline method bodies are skipped by brace depth."""
    m = re.search(r"\bclass\s+" + re.escape(class_name) + r"\b[^;{]*\{", stripped)
    if not m:
        return []
    body_open = m.end() - 1
    body_close = match_brace(stripped, body_open)
    members = []
    depth = 0
    stmt_start = body_open + 1
    for i in range(body_open + 1, body_close):
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1  # end of an inline body / nested type
        elif c == ";" and depth == 0:
            stmt = stripped[stmt_start:i + 1]
            dm = MEMBER_DECL_RE.search(stmt)
            # `= default;`-style declarations and using-aliases don't
            # declare state; the trailing-underscore match filters them.
            if dm and "using " not in stmt:
                members.append((dm.group(1), line_of(stripped, stmt_start + dm.start(1))))
            stmt_start = i + 1
    return members


def member_annotations(raw: str, line: int) -> tuple[bool, tuple[str, str] | None]:
    """R4 annotations on the member's declaration line or anywhere in
    the contiguous comment block directly above it:
    (waived as not-serialized, serialized-via tokens or None)."""
    lines = raw.splitlines()
    block = [lines[line - 1]] if line - 1 < len(lines) else []
    ix = line - 2
    while ix >= 0 and lines[ix].lstrip().startswith("//"):
        block.append(lines[ix])
        ix -= 1
    context = "\n".join(block)
    waived = NOT_SERIALIZED_RE.search(context) is not None
    via = SERIALIZED_VIA_RE.search(context)
    return waived, (via.group(1), via.group(2)) if via else None


def check_snapshot_complete(root: Path, contracts: list[SnapshotContract]) -> list[Finding]:
    findings = []
    for contract in contracts:
        header_path = root / contract.header
        if not header_path.is_file():
            findings.append(Finding(header_path, 1, R4,
                                    f"snapshot contract header missing for {contract.class_name}"))
            continue
        raw = header_path.read_text()
        stripped = strip_comments(raw)

        save_text, load_text = "", ""
        for ser in contract.serializers:
            ser_path = root / ser
            if not ser_path.is_file():
                findings.append(Finding(ser_path, 1, R4,
                                        f"serializer file missing for {contract.class_name}"))
                continue
            ser_stripped = strip_comments(ser_path.read_text())
            for fn in contract.save_fns:
                save_text += function_body(ser_stripped, fn) or ""
            for fn in contract.load_fns:
                load_text += function_body(ser_stripped, fn) or ""

        def has_token(text: str, token: str) -> bool:
            return re.search(r"\b" + re.escape(token) + r"\b", text) is not None

        members = class_members(stripped, contract.class_name)
        if not members:
            findings.append(Finding(header_path, 1, R4,
                                    f"no members found for snapshot class {contract.class_name} "
                                    "(class definition missing or unparseable)"))
            continue
        for name, line in members:
            waived, via = member_annotations(raw, line)
            if waived:
                continue
            if via:
                save_tok, load_tok = via
                if not has_token(save_text, save_tok):
                    findings.append(Finding(
                        header_path, line, R4,
                        f"{contract.class_name}::{name} is marked serialized-via({save_tok}, "
                        f"{load_tok}) but '{save_tok}' does not appear in the save sections "
                        f"({', '.join(contract.save_fns)})"))
                if not has_token(load_text, load_tok):
                    findings.append(Finding(
                        header_path, line, R4,
                        f"{contract.class_name}::{name} is marked serialized-via({save_tok}, "
                        f"{load_tok}) but '{load_tok}' does not appear in the load sections "
                        f"({', '.join(contract.load_fns)})"))
                continue
            if not has_token(save_text, name):
                findings.append(Finding(
                    header_path, line, R4,
                    f"{contract.class_name}::{name} is not written in any save section "
                    f"({', '.join(contract.save_fns)}); serialize it, or annotate the "
                    "declaration with '// strat-lint: not-serialized -- <reason>' or "
                    "'// strat-lint: serialized-via(<save>, <load>)'"))
            if not has_token(load_text, name):
                findings.append(Finding(
                    header_path, line, R4,
                    f"{contract.class_name}::{name} is not restored in any load section "
                    f"({', '.join(contract.load_fns)}); a snapshot would silently drop it"))

        # Section tags must round-trip: every kTag* constant declared in a
        # serializer has to be both written and expected.
        if contract.check_tags:
            for ser in contract.serializers:
                ser_path = root / ser
                if not ser_path.is_file():
                    continue
                ser_raw = ser_path.read_text()
                ser_stripped = strip_comments(ser_raw)
                for m in TAG_CONST_RE.finditer(ser_stripped):
                    tag = m.group(1)
                    if not has_token(save_text, tag):
                        findings.append(Finding(ser_path, line_of(ser_stripped, m.start()), R4,
                                                f"section tag {tag} is never written in the save sections"))
                    if not has_token(load_text, tag):
                        findings.append(Finding(ser_path, line_of(ser_stripped, m.start()), R4,
                                                f"section tag {tag} is never expected in the load sections"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


@dataclass
class LintConfig:
    root: Path
    compile_commands: Path | None = None
    rules: set[str] = field(default_factory=lambda: set(RULE_IDS))
    contracts: list[SnapshotContract] = field(default_factory=lambda: list(DEFAULT_CONTRACTS))
    # Directory roots (repo-relative) scanned per rule. R4 uses the
    # contract file lists instead.
    scan_roots: tuple[str, ...] = ("src", "bench", "tests", "examples", "tools")
    unordered_roots: tuple[str, ...] = ("src",)


def companion_header_decls(path: Path) -> set[str]:
    """Unordered-container declarations from the same-stem header, so a
    member declared in foo.hpp is recognized when foo.cpp iterates it."""
    if path.suffix not in {".cpp", ".cc", ".cxx"}:
        return set()
    for suffix in (".hpp", ".hh", ".h"):
        header = path.with_suffix(suffix)
        if header.is_file():
            return unordered_names(strip_comments(header.read_text()))
    return set()


def lint_file(path: Path, cfg: LintConfig) -> list[Finding]:
    raw = path.read_text()
    stripped = strip_comments(raw)
    findings: list[Finding] = []
    rel = path.resolve()
    under_unordered_scope = any(
        (cfg.root / r).resolve() in rel.parents for r in cfg.unordered_roots)
    if R1 in cfg.rules and under_unordered_scope:
        findings += check_unordered_iter(path, stripped, companion_header_decls(path))
    if R2 in cfg.rules or R5 in cfg.rules:
        lamb = check_parallel_lambdas(path, stripped)
        findings += [f for f in lamb if f.rule in cfg.rules]
    if R3 in cfg.rules:
        findings += check_banned_randomness(path, stripped)
    if R6 in cfg.rules and not is_thread_home(path, cfg.root):
        findings += check_raw_thread(path, stripped)
    allowed = suppressed_lines(raw)
    return [f for f in findings if f.rule not in allowed.get(f.line, set())]


def gather_files(cfg: LintConfig) -> list[Path]:
    files: set[Path] = set()
    for rel in cfg.scan_roots:
        base = cfg.root / rel
        if not base.is_dir():
            continue
        for p in base.rglob("*"):
            if p.suffix in CXX_SUFFIXES and p.is_file() and "fixtures" not in p.parts:
                files.add(p)
    return sorted(files)


def compile_commands_coverage(cfg: LintConfig, scanned: list[Path]) -> list[Finding]:
    """Cross-checks compile_commands.json: every compiled file under the
    scanned roots must be in the scanned set (a glob gap would silently
    exempt a new source file from the contracts)."""
    if cfg.compile_commands is None or not cfg.compile_commands.is_file():
        return []
    try:
        entries = json.loads(cfg.compile_commands.read_text())
    except (json.JSONDecodeError, OSError):
        return [Finding(cfg.compile_commands, 1, R4, "compile_commands.json unreadable")]
    scanned_set = {p.resolve() for p in scanned}
    root = cfg.root.resolve()
    findings = []
    for entry in entries:
        src = Path(entry.get("directory", ""), entry.get("file", "")).resolve()
        if not src.is_relative_to(root) or src.suffix not in CXX_SUFFIXES:
            continue
        if any(src.is_relative_to(root / r) for r in cfg.scan_roots) and src not in scanned_set:
            findings.append(Finding(src, 1, R4,
                                    "compiled source escaped the lint file glob "
                                    "(strat-lint would silently skip it)"))
    return findings


def run_lint(cfg: LintConfig, files: list[Path] | None = None) -> list[Finding]:
    scanned = files if files is not None else gather_files(cfg)
    findings: list[Finding] = []
    for path in scanned:
        findings += lint_file(path, cfg)
    if R4 in cfg.rules:
        findings += check_snapshot_complete(cfg.root, cfg.contracts)
        if files is None:
            findings += compile_commands_coverage(cfg, scanned)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="strat-lint",
        description="static analysis for the determinism/parallelism/snapshot contracts")
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json for file-coverage cross-checking")
    parser.add_argument("--rules", type=str, default=None,
                        help="comma-separated rule subset (names or R numbers)")
    parser.add_argument("files", nargs="*", type=Path,
                        help="explicit files to lint (default: scan the tree)")
    args = parser.parse_args(argv)

    rules = set(RULE_IDS)
    if args.rules:
        by_id = {v: k for k, v in RULE_IDS.items()}
        rules = set()
        for token in args.rules.split(","):
            token = token.strip()
            if token in RULE_IDS:
                rules.add(token)
            elif token.upper() in by_id:
                rules.add(by_id[token.upper()])
            else:
                print(f"strat-lint: unknown rule '{token}'", file=sys.stderr)
                return 2
    root = args.root.resolve()
    if not root.is_dir():
        print(f"strat-lint: root {root} is not a directory", file=sys.stderr)
        return 2
    compile_commands = args.compile_commands
    if compile_commands is None and (root / "build" / "compile_commands.json").is_file():
        compile_commands = root / "build" / "compile_commands.json"
    cfg = LintConfig(root=root, compile_commands=compile_commands, rules=rules)
    findings = run_lint(cfg, files=args.files or None)
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"strat-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
