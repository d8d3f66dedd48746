"""The UDF application plan cache: memoized SQL generation.

The optimisation's contract: generation is deterministic (a cached and an
uncached application are byte-identical), iterative flows stop re-emitting
definition SQL after their first iteration, and jobs that share a
definition never share output tables or results.
"""

import pytest

from repro import (
    CohortSpec,
    FederationConfig,
    MIPService,
    create_federation,
    generate_cohort,
)
from repro.engine.database import Database
from repro.udfgen.decorators import get_spec, udf
from repro.udfgen.generator import (
    generate_udf_application,
    plan_cache,
    run_udf_application,
)
from repro.udfgen.iotypes import literal, relation, transfer
from repro.udfgen.runtime import deserialize_transfer


@udf(data=relation(), factor=literal(), return_type=[transfer()])
def plan_fit(data, factor):
    total = float(data.to_matrix().sum())
    return {"scaled": total * factor}


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE numbers (a REAL, b REAL)")
    database.execute("INSERT INTO numbers VALUES (1.0, 2.0), (3.0, 4.0)")
    return database


@pytest.fixture(autouse=True)
def fresh_cache():
    plan_cache.clear()
    yield
    plan_cache.clear()


def build_service(seed=5):
    federation = create_federation(
        {
            "h1": {"dementia": generate_cohort(CohortSpec("edsd", 120, seed=1))},
            "h2": {"dementia": generate_cohort(CohortSpec("adni", 120, seed=2))},
        },
        FederationConfig(seed=seed),
    )
    return MIPService(federation, aggregation="plain")


class TestDeterminism:
    def test_cached_and_uncached_sql_byte_identical(self, db):
        spec = get_spec(plan_fit)
        arguments = {"data": "numbers", "factor": 3}
        cold = generate_udf_application(spec, "j1", arguments)
        warm = generate_udf_application(spec, "j1", arguments)
        assert plan_cache.stats()["hits"] == 1  # the warm call
        plan_cache.clear()
        regenerated = generate_udf_application(spec, "j1", arguments)
        assert plan_cache.stats()["hits"] == 0
        assert cold == warm == regenerated

    def test_cached_and_uncached_results_identical(self, db):
        spec = get_spec(plan_fit)
        uncached = generate_udf_application(spec, "ja", {"data": "numbers", "factor": 2})
        cached = generate_udf_application(spec, "jb", {"data": "numbers", "factor": 2})
        assert plan_cache.stats()["hits"] == 1
        (t1,) = run_udf_application(db, uncached)
        (t2,) = run_udf_application(db, cached)
        blob1 = deserialize_transfer(db.scalar(f"SELECT * FROM {t1}"))
        blob2 = deserialize_transfer(db.scalar(f"SELECT * FROM {t2}"))
        assert blob1 == blob2 == {"scaled": 20.0}

    def test_literal_values_not_baked_into_cache_key(self, db):
        """Different literal arguments reuse one plan — the k-means pattern
        where the centroids literal changes every iteration."""
        spec = get_spec(plan_fit)
        app1 = generate_udf_application(spec, "j1", {"data": "numbers", "factor": 1})
        app2 = generate_udf_application(spec, "j2", {"data": "numbers", "factor": 5})
        assert app1.function_name == app2.function_name
        assert plan_cache.stats() == {"hits": 1, "misses": 1, "size": 1}
        (t1,) = run_udf_application(db, app1)
        (t2,) = run_udf_application(db, app2)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {t1}")) == {"scaled": 10.0}
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {t2}")) == {"scaled": 50.0}

    def test_definition_skipped_on_second_application(self, db):
        spec = get_spec(plan_fit)
        app1 = generate_udf_application(spec, "j1", {"data": "numbers", "factor": 1})
        run_udf_application(db, app1)
        functions_after_first = db.function_names()
        app2 = generate_udf_application(spec, "j2", {"data": "numbers", "factor": 2})
        run_udf_application(db, app2)
        # Same definition, no second registration.
        assert db.function_names() == functions_after_first


class TestIterativeFlows:
    def test_kmeans_regenerates_zero_sql_after_first_iteration(self):
        """Ten k-means iterations must miss the plan cache exactly as often
        as two: every per-iteration step after the first is a hit."""
        miss_counts = []
        for iterations in (2, 10):
            plan_cache.clear()
            service = build_service()
            outcome = service.run_experiment(
                "kmeans", "dementia", ["edsd", "adni"],
                y=["ab_42", "p_tau"],
                parameters={
                    "k": 3, "seed": 9, "e": 0.0,
                    "iterations_max_number": iterations,
                },
            )
            assert outcome.status.value == "success"
            assert outcome.result["iterations"] == iterations
            stats = plan_cache.stats()
            assert stats["hits"] > stats["misses"]
            miss_counts.append(stats["misses"])
        assert miss_counts[0] == miss_counts[1]

    def test_no_stale_state_between_jobs(self):
        """Two k-means jobs on one federation share cached plans but must not
        share output tables or results."""
        service = build_service()
        results = []
        for _ in range(2):
            outcome = service.run_experiment(
                "kmeans", "dementia", ["edsd", "adni"],
                y=["ab_42", "p_tau"], parameters={"k": 3, "seed": 9},
            )
            assert outcome.status.value == "success"
            results.append(outcome.result)
        assert results[0]["centroids"] == results[1]["centroids"]
        assert results[0]["inertia_history"] == results[1]["inertia_history"]


class TestCacheMechanics:
    def test_lru_eviction(self):
        small = type(plan_cache)(maxsize=2)
        small.store(("a",), object())
        small.store(("b",), object())
        small.lookup(("a",))
        small.store(("c",), object())  # evicts ("b",): least recently used
        assert small.lookup(("b",)) is None
        assert small.lookup(("a",)) is not None
        assert small.lookup(("c",)) is not None

    def test_clear_resets_counters(self):
        spec = get_spec(plan_fit)
        generate_udf_application(spec, "j1", {"data": "numbers", "factor": 1})
        generate_udf_application(spec, "j2", {"data": "numbers", "factor": 1})
        assert plan_cache.stats()["hits"] == 1
        plan_cache.clear()
        assert plan_cache.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_numpy_and_tuple_literals_round_trip(self, db):
        """The plan travels as a repr literal; every value the old baking
        scheme supported must survive the round trip."""

        @udf(data=relation(), weights=literal(), return_type=[transfer()])
        def weighted(data, weights):
            lo, hi = weights
            return {"v": float(data.to_matrix().sum()) * lo + hi}

        spec = get_spec(weighted)
        app = generate_udf_application(spec, "j1", {"data": "numbers", "weights": (2.0, 0.5)})
        (out,) = run_udf_application(db, app)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {"v": 20.5}

    def test_quotes_in_literals_survive_sql_escaping(self, db):
        @udf(data=relation(), tag=literal(), return_type=[transfer()])
        def tagged(data, tag):
            return {"tag": tag, "n": float(data.to_matrix().sum())}

        spec = get_spec(tagged)
        tag = "it's a 'quoted' tag"
        app = generate_udf_application(spec, "j1", {"data": "numbers", "tag": tag})
        (out,) = run_udf_application(db, app)
        assert deserialize_transfer(db.scalar(f"SELECT * FROM {out}")) == {
            "tag": tag, "n": 10.0,
        }
