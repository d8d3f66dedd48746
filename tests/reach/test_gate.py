"""The reach gate's verdicts, on a tiny synthetic package, and a static check
of the committed keep-file (the gate's full run is ``python -m
tests.reach.gate``, outside tier-1)."""

import importlib.util
import uuid

import pytest

from repro.udfgen.decorators import get_spec
from repro.udfgen.generator import UDFPlanCache, generate_udf_application
from tests.reach import gate

MODULE = '''
import abc

from repro.udfgen import literal, transfer, udf


def used():
    return helper()


def helper():
    return 1


def unused():
    def inner():
        return 2

    return inner()


class Base(abc.ABC):
    @abc.abstractmethod
    def run(self):
        ...


@udf(x=literal(), return_type=transfer())
def step(x):
    return {"x": x}
'''


@pytest.fixture()
def root(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "class TestMod:\n    def test_unused(self):\n        pass\n"
    )
    return tmp_path


def judge(root, keep_text, run_udf=True):
    """Import and drive the synthetic module under the hook, then judge it
    against ``keep_text``; returns the verdict and every problem."""
    spec = importlib.util.spec_from_file_location(
        f"reach_fixture_{uuid.uuid4().hex}", root / "src" / "pkg" / "mod.py"
    )
    module = importlib.util.module_from_spec(spec)
    with gate.Reach() as reach:
        spec.loader.exec_module(module)
        module.used()
        if run_udf:
            generate_udf_application(get_spec(module.step), "job", {"x": 1}, UDFPlanCache())
    keep = root / "keep.txt"
    keep.write_text(keep_text)
    entries, problems = gate.read_keep(keep)
    verdict = gate.judge(gate.functions(root / "src"), reach.reached(root / "src"), entries, root)
    return verdict, problems + verdict.problems


KEEP_UNUSED = "src/pkg/mod.py::unused  operator  tests/test_mod.py::TestMod::test_unused\n"


def names(functions):
    return sorted(function.qualname for function in functions)


def test_an_unreached_unlisted_function_fails(root):
    verdict, problems = judge(root, "")
    assert names(verdict.unreached) == ["unused"]
    assert problems == ["unreached and not listed: src/pkg/mod.py::unused"]


def test_a_listed_function_passes(root):
    verdict, problems = judge(root, KEEP_UNUSED)
    assert problems == []
    assert names(verdict.kept) == ["unused"]
    # The abstract body is exempt; the nested function goes with its parent.
    assert names(verdict.reached) == ["helper", "step", "used"]


def test_a_udf_body_counts_as_reached_when_its_spec_runs(root):
    verdict, _ = judge(root, KEEP_UNUSED, run_udf=False)
    assert names(verdict.unreached) == ["step"]


def test_a_stale_entry_fails(root):
    stale = "src/pkg/mod.py::used  operator  tests/test_mod.py::TestMod::test_unused\n"
    _, problems = judge(root, KEEP_UNUSED + stale)
    assert problems == [
        "keep.txt:2: src/pkg/mod.py::used is reached; delete the stale entry"
    ]


def test_an_entry_for_a_missing_function_fails(root):
    gone = "src/pkg/mod.py::gone  operator  tests/test_mod.py::TestMod::test_unused\n"
    _, problems = judge(root, KEEP_UNUSED + gone)
    assert problems == ["keep.txt:2: src/pkg/mod.py::gone names no function"]


def test_an_entry_whose_test_does_not_exist_fails(root):
    _, problems = judge(root, KEEP_UNUSED.replace("test_unused", "test_missing"))
    assert problems == [
        "keep.txt:1: src/pkg/mod.py::unused names a test that does not exist: "
        "tests/test_mod.py::TestMod::test_missing"
    ]


def test_an_entry_with_an_unknown_reason_fails(root):
    _, problems = judge(root, KEEP_UNUSED.replace("operator", "someday"))
    assert len(problems) == 1 and "has reason 'someday'" in problems[0]


def test_every_keep_entry_names_a_function_a_reason_and_a_test():
    entries, problems = gate.read_keep()
    assert entries
    assert problems + gate.check_entries(entries, gate.functions()) == []
