"""Dataset-aware shipping plans."""

import pytest

from repro.errors import DatasetUnavailableError
from repro.federation.scheduler import plan_shipping


class TestPlanShipping:
    def test_each_dataset_assigned_once(self):
        availability = {"a": ["w1"], "b": ["w2"], "c": ["w1"]}
        plan = plan_shipping(availability, ["a", "b", "c"])
        assigned = [code for codes in plan.assignments.values() for code in codes]
        assert sorted(assigned) == ["a", "b", "c"]

    def test_replicated_dataset_not_double_counted(self):
        availability = {"a": ["w1", "w2"]}
        plan = plan_shipping(availability, ["a"])
        assert sum(len(c) for c in plan.assignments.values()) == 1

    def test_load_balancing(self):
        availability = {
            "a": ["w1"], "b": ["w1"], "c": ["w1", "w2"], "d": ["w1", "w2"],
        }
        plan = plan_shipping(availability, ["a", "b", "c", "d"])
        # the replicated datasets should go to the less-loaded worker
        assert len(plan.assignments["w2"]) == 2

    def test_missing_dataset_raises(self):
        with pytest.raises(DatasetUnavailableError, match="missing"):
            plan_shipping({"a": ["w1"]}, ["a", "missing"])

    def test_subset_of_workers_only(self):
        availability = {"a": ["w1"], "b": ["w1"]}
        plan = plan_shipping(availability, ["a"])
        assert plan.workers == ["w1"]

    def test_empty_request(self):
        plan = plan_shipping({"a": ["w1"]}, [])
        assert plan.assignments == {}


class TestDeterminism:
    """Satellite: tie-breaks must not depend on dict insertion order."""

    def test_tie_break_is_insertion_order_independent(self):
        forward = {"a": ["w2", "w1", "w3"], "b": ["w3", "w2", "w1"]}
        backward = {"b": ["w1", "w3", "w2"], "a": ["w3", "w1", "w2"]}
        assert (
            plan_shipping(forward, ["a", "b"]).assignments
            == plan_shipping(backward, ["b", "a"]).assignments
        )

    def test_tie_goes_to_lowest_worker_id(self):
        plan = plan_shipping({"a": ["w9", "w2", "w5"]}, ["a"])
        assert plan.assignments == {"w2": ["a"]}

    def test_load_aware_choice(self):
        availability = {"a": ["w1", "w2"]}
        plan = plan_shipping(availability, ["a"], current_load={"w1": 3})
        assert plan.assignments == {"w2": ["a"]}

    def test_load_aware_tie_still_deterministic(self):
        availability = {"a": ["w1", "w2"]}
        plan = plan_shipping(availability, ["a"], current_load={"w1": 1, "w2": 1})
        assert plan.assignments == {"w1": ["a"]}


class TestWorkerLoad:
    def test_acquire_release_roundtrip(self):
        from repro.federation.scheduler import WorkerLoad

        load = WorkerLoad()
        load.acquire({"w1": ["a", "b"], "w2": ["c"]})
        assert load.snapshot() == {"w1": 2, "w2": 1}
        load.acquire({"w1": ["d"]})
        assert load.snapshot() == {"w1": 3, "w2": 1}
        load.release({"w1": ["a", "b"], "w2": ["c"]})
        assert load.snapshot() == {"w1": 1}
        load.release({"w1": ["d"]})
        assert load.snapshot() == {}

    def test_release_never_goes_negative(self):
        from repro.federation.scheduler import WorkerLoad

        load = WorkerLoad()
        load.release({"w1": ["a"]})
        assert load.snapshot() == {}


class TestExactlyOnceProperty:
    """Satellite: replicated datasets are counted exactly once under the
    load-aware planner, for any availability map and any in-flight load."""

    def test_property_exactly_once_under_load(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        workers = st.sampled_from([f"w{i}" for i in range(6)])
        codes = st.sampled_from([f"ds{i}" for i in range(8)])
        availability_st = st.dictionaries(
            codes, st.lists(workers, min_size=1, max_size=6, unique=True),
            min_size=1, max_size=8,
        )
        load_st = st.dictionaries(
            workers, st.integers(min_value=0, max_value=20), max_size=6
        )

        @settings(max_examples=200, deadline=None)
        @given(availability=availability_st, load=load_st)
        def check(availability, load):
            requested = sorted(availability)
            plan = plan_shipping(availability, requested, current_load=load)
            assigned = [c for codes in plan.assignments.values() for c in codes]
            # exactly once: no dataset dropped, none double-counted
            assert sorted(assigned) == requested
            # every assignment respects availability
            for worker, worker_codes in plan.assignments.items():
                for code in worker_codes:
                    assert worker in availability[code]

        check()
