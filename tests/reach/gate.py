"""Reach gate: every function under ``src/`` is reached by a platform surface,
or it is listed in ``keep.txt`` with a reason and a test.

Run from the repository root::

    python -m tests.reach.gate

The gate installs ``sys.setprofile`` and ``threading.setprofile`` before any
federation or transport pool thread exists, drives every platform surface
(the golden-digest rows, the examples, the ladder workloads, the CLI verbs
and the fault corpus) and records each code object that starts to run,
keyed by file and ``co_qualname``.  A ``@udf`` body runs as generated code,
so it counts as reached when its spec is handed to
``generate_udf_application``: the hook reads the ``spec`` argument of that
entry frame.  ``@abstractmethod`` bodies are exempt.  A function nested in
an unreached function is accounted to its enclosing one.

The gate exits non-zero on a function that is unreached and not listed, on
a listed function that is now reached (a stale entry, so the file only
shrinks), on a listed function that no longer exists, and on a named test
that does not exist.  It uses the standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
KEEP = Path(__file__).resolve().parent / "keep.txt"
UDF_ENTRY = (SRC / "repro" / "udfgen" / "generator.py", "generate_udf_application")

#: Why an unreached function may stay.
REASONS = {
    "fault": "a fault, degrade or crash path",
    "figure2": "the share_to_locals / broadcast API",
    "operator": "a CLI or service operator tool that no surface exercises",
    "param": "only a non-default parameter reaches it",
    "ladder": "benchmarks/ladder/tracing.py wraps it by name",
    "paper": "a section 2 operation kept for fidelity",
    "grammar": "the filter_sql expression grammar, or the E7 SQL shapes",
    "reference": "a test oracle",
    "inspect": "an accessor a test of still-present behaviour observes through",
}


# ----------------------------------------------------------------- functions


@dataclass(frozen=True)
class Function:
    """One ``def`` under the source root, keyed like its code object."""

    path: str
    qualname: str
    lines: int
    #: Key of the nearest enclosing function, or None for a module-level
    #: function or a method.
    parent: tuple[str, str] | None
    udf: bool
    abstract: bool

    @property
    def key(self) -> tuple[str, str]:
        return self.path, self.qualname


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def functions(src: Path = SRC) -> dict[tuple[str, str], Function]:
    """Every function under ``src``, keyed by (path relative to ``src``'s
    parent, ``co_qualname``).  Two defs with one qualname (a property and
    its setter) share a key and add their lines."""
    found: dict[tuple[str, str], Function] = {}

    def visit(node: ast.AST, path: str, prefix: str, parent: tuple[str, str] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {_decorator_name(d) for d in child.decorator_list}
                qualname = prefix + child.name
                key = (path, qualname)
                lines = child.end_lineno - child.lineno + 1
                if key in found:
                    lines += found[key].lines
                found[key] = Function(
                    path, qualname, lines, parent, "udf" in names, "abstractmethod" in names
                )
                visit(child, path, f"{qualname}.<locals>.", key)
            else:
                visit(child, path, prefix, parent)

    for file in sorted(src.rglob("*.py")):
        path = file.relative_to(src.parent).as_posix()
        visit(ast.parse(file.read_text(), str(file)), path, "", None)
    return found


# --------------------------------------------------------------------- reach


class Reach:
    """Records every code object that starts to run while installed.

    ``udf_entry`` is the file and name of the generator's entry function,
    which takes the ``spec`` of the UDF it applies; on each call of it the
    hook records the code of ``spec.func``.  Install it before the code
    under test is imported, so that module-level calls count.

    Codes are held by identity: code objects compare by value, and two
    functions with the same body on the same line of two files (the
    ``n_parties`` properties of ``additive.py`` and ``shamir.py``) are
    equal, so a set of codes would keep only the first of them to run.
    """

    def __init__(self, udf_entry: tuple[Path, str] = UDF_ENTRY) -> None:
        self.codes: dict[int, CodeType] = {}
        self.udf_codes: dict[int, CodeType] = {}
        self._entry_file = str(udf_entry[0])
        self._entry_name = udf_entry[1]

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code
            if code.co_name == self._entry_name and code.co_filename == self._entry_file:
                udf_code = frame.f_locals["spec"].func.__code__
                self.udf_codes[id(udf_code)] = udf_code

    def __enter__(self) -> "Reach":
        self._previous = sys.getprofile(), threading.getprofile()
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous[0])
        threading.setprofile(self._previous[1])

    def reached(self, src: Path = SRC) -> set[tuple[str, str]]:
        """Keys, as :func:`functions` makes them, of every code that ran."""
        prefix = str(src.resolve()) + "/"
        base = src.parent.resolve()
        keys = set()
        for code in [*self.codes.values(), *self.udf_codes.values()]:
            filename = code.co_filename
            if filename.startswith(prefix):
                path = Path(filename).resolve().relative_to(base).as_posix()
                # Before Python 3.11 a code object has no qualname; top-level
                # functions still key right, methods do not (see main).
                keys.add((path, getattr(code, "co_qualname", code.co_name)))
        return keys


# ----------------------------------------------------------------- keep-file


@dataclass(frozen=True)
class Entry:
    """One ``path::qualname  reason  test`` line of the keep-file."""

    line: int
    path: str
    qualname: str
    reason: str
    test: str

    @property
    def key(self) -> tuple[str, str]:
        return self.path, self.qualname


def read_keep(keep: Path = KEEP) -> tuple[list[Entry], list[str]]:
    """The keep-file's entries, and a problem per malformed line."""
    entries: list[Entry] = []
    problems: list[str] = []
    for number, text in enumerate(keep.read_text().splitlines(), 1):
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 3 or "::" not in fields[0]:
            problems.append(f"{keep.name}:{number}: expected 'path::qualname  reason  test'")
            continue
        path, qualname = fields[0].split("::", 1)
        entries.append(Entry(number, path, qualname, fields[1], fields[2]))
    return entries, problems


def test_exists(test_id: str, root: Path = ROOT) -> bool:
    """Whether ``path::[Class::]test`` names a test function in a file."""
    path, _, names = test_id.partition("::")
    file = root / path
    if not names or not file.is_file():
        return False
    node: ast.AST = ast.parse(file.read_text(), str(file))
    for name in names.split("[", 1)[0].split("::"):
        node = next(
            (
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name == name
            ),
            None,
        )
        if node is None:
            return False
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def check_entries(
    entries: Iterable[Entry], found: dict[tuple[str, str], Function], root: Path = ROOT
) -> list[str]:
    """Problems with entries that need no run: an unknown function, reason
    or test, or a repeated key."""
    problems = []
    seen: set[tuple[str, str]] = set()
    for entry in entries:
        where = f"keep.txt:{entry.line}: {entry.path}::{entry.qualname}"
        if entry.key in seen:
            problems.append(f"{where} is listed twice")
        seen.add(entry.key)
        if entry.key not in found:
            problems.append(f"{where} names no function")
        if entry.reason not in REASONS:
            problems.append(f"{where} has reason {entry.reason!r}, not one of {sorted(REASONS)}")
        if not test_exists(entry.test, root):
            problems.append(f"{where} names a test that does not exist: {entry.test}")
    return problems


# ------------------------------------------------------------------- verdict


@dataclass
class Verdict:
    """The functions the gate judged, by outcome, and what fails it."""

    reached: list[Function]
    kept: list[Function]
    unreached: list[Function]
    problems: list[str]


def judge(
    found: dict[tuple[str, str], Function],
    reached: set[tuple[str, str]],
    entries: list[Entry],
    root: Path = ROOT,
) -> Verdict:
    """Compare what ran with what the keep-file lists."""
    effective = set(reached)
    # A function nested in a @udf body runs inside the generated code.
    for function in found.values():
        ancestor = function.parent
        while ancestor is not None and not found[ancestor].udf:
            ancestor = found[ancestor].parent
        if ancestor in reached:
            effective.add(function.key)
    required = [
        function
        for function in found.values()
        if not function.abstract and (function.parent is None or function.parent in effective)
    ]
    listed = {entry.key: entry for entry in entries}
    problems = check_entries(entries, found, root)
    kept, unreached, hit = [], [], []
    for function in required:
        if function.key in effective:
            hit.append(function)
        elif function.key in listed:
            kept.append(function)
        else:
            unreached.append(function)
            problems.append(f"unreached and not listed: {function.path}::{function.qualname}")
    kept_keys = {function.key for function in kept}
    for entry in entries:
        if entry.key in found and entry.key not in kept_keys:
            state = "reached" if entry.key in effective else "inside an unreached function"
            problems.append(
                f"keep.txt:{entry.line}: {entry.path}::{entry.qualname} is {state}; "
                "delete the stale entry"
            )
    return Verdict(hit, kept, unreached, problems)


# ------------------------------------------------------------------ surfaces


def _golden_rows() -> None:
    from tests.core.test_golden_digests import ROWS, row_digests

    for row in sorted(ROWS):
        row_digests(*ROWS[row])


def _examples() -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def _ladder(out: Path) -> None:
    from benchmarks.ladder import driver
    from benchmarks.ladder.workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (False, True):
            result = driver.run(workload, 7, 2.0, trace, quick=True, out_dir=out)
            if not result["correct"]:
                raise AssertionError(f"ladder {workload} trace={trace} is not correct")


def _cli(out: Path) -> None:
    from repro.cli import main

    small = ["--rows", "60", "--seed", "3"]
    linreg = ["--algorithm", "linear_regression", "-y", "lefthippocampus", "-x", "agevalue"]
    state = out / "state"
    results = out / "results"
    shutil.copytree(ROOT / "benchmarks" / "results", results)
    export = out / "export.csv"
    export.write_text(
        "dataset,p_tau,lefthippocampus\n"
        + "".join(f"csvsite,{50 + i % 20},{2.5 + i % 10 / 10}\n" for i in range(40))
    )
    invocations = [
        ["catalogue"],
        ["algorithms"],
        ["run", *linreg, *small],
        ["run", *linreg, "--aggregation", "plain", "--filter", "agevalue > 65", *small],
        ["run", "--algorithm", "kmeans", "-y", "ab_42", "-y", "p_tau", "--param", "k=3",
         "--smpc-scheme", "full_threshold", *small],
        ["run", *linreg, "--state-dir", str(state), *small],
        ["run", "--algorithm", "pearson_correlation", "-y", "p_tau", "-y", "lefthippocampus",
         "--csv", f"site_a={export}", "--aggregation", "plain"],
        ["trace", *linreg, *small],
        ["trace", *linreg, "--format", "json", "--audit", *small],
        ["trace", *linreg, "--format", "tree", "--min-ms", "0.1", "--top", "3",
         "--out", str(out / "trace.txt"), *small],
        ["metrics", *linreg, *small],
        ["metrics", *linreg, "--format", "json", *small],
        ["submit", *linreg, "--priority", "1", *small],
        ["submit", *linreg, "--no-wait", *small],
        ["jobs", *linreg, "--repeat", "3", "--state-dir", str(state), *small],
        ["cancel", *linreg, "--repeat", "3", *small],
        ["resume", "--state-dir", str(state), *small],
        ["profile", *linreg, "--aggregation", "plain", "--out-dir", str(out / "profile"),
         *small],
        ["profile", *linreg, "--clock", "sim", "--hz", "199",
         "--out-dir", str(out / "profile-sim"), *small],
        ["plan", "linear_regression"],
        ["plan", "descriptive_stats", "--format", "json"],
        ["plan", "logistic_regression", "--format", "dot", "--out", str(out / "plan.dot")],
        ["health", "--results-dir", str(results)],
        ["health", "--results-dir", str(results), "--update-baselines", "--format", "json"],
        ["health", "--results-dir", str(results), "--strict", "--fail-pct", "20"],
        ["fuzz", "--replay", "seed=3;par=2;jobs=2;faults=delay@4:hospital_a=0.05,reorder@6"],
        ["fuzz", "--runs", "2", "--seed", "1", "--write-corpus", str(out / "corpus.txt")],
    ]
    for argv in invocations:
        code = main(argv)
        if code != 0:
            raise AssertionError(f"repro {' '.join(argv)} exited {code}")


def _fault_corpus() -> None:
    from repro.simtest import fuzz

    for spec in fuzz.read_corpus(str(ROOT / "tests" / "simtest" / "corpus.txt")):
        outcome = fuzz.run_one(spec)
        failures = outcome.failures() + [f"fault {f} never fired" for f in outcome.unfired]
        if failures:
            raise AssertionError(f"corpus {spec.spec()}: {failures}")


def surfaces(out: Path) -> list[tuple[str, Callable[[], None]]]:
    """The platform surfaces, in the order the gate drives them."""
    return [
        ("golden digest rows", _golden_rows),
        ("examples", _examples),
        ("ladder workloads", lambda: _ladder(out / "ladder")),
        ("cli verbs", lambda: _cli(out)),
        ("fault corpus", _fault_corpus),
    ]


# ---------------------------------------------------------------------- main


def main() -> int:
    if sys.version_info < (3, 11):
        print("reach: needs Python 3.11 or later to key methods by co_qualname")
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    found = functions()
    entries, problems = read_keep()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch, Reach() as reach:
        for name, surface in surfaces(Path(scratch)):
            begun = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                surface()
            print(f"  {name}: {time.perf_counter() - begun:.1f}s", flush=True)
    verdict = judge(found, reach.reached(), entries)
    problems += verdict.problems
    lines = sum(function.lines for function in verdict.kept)
    print(
        f"reach: {len(verdict.reached)} reached, {len(verdict.kept)} kept "
        f"({lines} lines), {len(verdict.unreached)} unreached "
        f"of {len(found)} functions in {time.perf_counter() - started:.1f}s"
    )
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
