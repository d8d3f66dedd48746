"""The four workloads: their federations, request mixes and sizes.

Everything here is input: the program under test receives only the cohort
tables, the federation config and the experiment requests built below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro import (
    CohortSpec,
    FederationConfig,
    MIPService,
    create_federation,
    generate_cohort,
)

DATA_MODEL = "dementia"

#: The paper's §1 Alzheimer's caseload: site, patients, diagnosis mix.
SITES = (
    ("brescia", 1960, {"CN": 0.25, "MCI": 0.40, "AD": 0.35}),
    ("lausanne", 1032, {"CN": 0.30, "MCI": 0.40, "AD": 0.30}),
    ("lille", 1103, {"CN": 0.35, "MCI": 0.35, "AD": 0.30}),
    ("adni", 1066, {"CN": 0.40, "MCI": 0.35, "AD": 0.25}),
)
DATASETS = tuple(site for site, _rows, _mix in SITES)
PAPER_ROWS = tuple(rows for _site, rows, _mix in SITES)

#: Iterative flows run a fixed number of rounds (tolerance 0 never triggers),
#: so the work per experiment does not depend on the cohort seed.
REQUESTS: dict[str, dict[str, Any]] = {
    "descriptive_stats": dict(
        algorithm="descriptive_stats", y=("lefthippocampus", "agevalue", "p_tau")
    ),
    "descriptive_stats_1var": dict(algorithm="descriptive_stats", y=("p_tau",)),
    "linear_regression": dict(
        algorithm="linear_regression",
        y=("lefthippocampus",),
        x=("alzheimerbroadcategory", "agevalue"),
    ),
    "logistic_regression": dict(
        algorithm="logistic_regression",
        y=("converted_ad",),
        x=("p_tau", "lefthippocampus"),
        parameters={"max_iterations": 6, "tolerance": 0.0},
    ),
    "kmeans": dict(
        algorithm="kmeans",
        y=("ab_42", "p_tau", "leftententorhinalarea"),
        parameters={"k": 3, "seed": 1, "iterations_max_number": 10, "e": 0.0},
    ),
    "anova_oneway": dict(
        algorithm="anova_oneway",
        y=("lefthippocampus",),
        x=("alzheimerbroadcategory",),
    ),
    "pca": dict(
        algorithm="pca",
        y=("lefthippocampus", "righthippocampus", "leftamygdala", "rightamygdala"),
    ),
    "pearson_correlation": dict(
        algorithm="pearson_correlation",
        y=("lefthippocampus", "righthippocampus", "minimentalstate"),
    ),
    "id3": dict(
        algorithm="id3",
        y=("alzheimerbroadcategory",),
        x=("gender", "psy_etiology", "va_etiology"),
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    site_rows: tuple[int, ...]
    aggregation: str
    smpc_scheme: str
    pool_size: int
    #: Experiments the one generator thread keeps outstanding.
    window: int
    #: Journal + checkpoints under a temporary ``state_dir``.
    durable: bool
    cycle: tuple[str, ...]
    #: Rows per site under ``--quick`` (the smoke test's size).
    quick_site_rows: tuple[int, ...] | None = None

    @property
    def total_rows(self) -> int:
        return sum(self.site_rows)

    def quick(self) -> "Workload":
        rows = self.quick_site_rows or self.site_rows
        return replace(self, site_rows=rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="e2_secure_mix",
            site_rows=PAPER_ROWS,
            aggregation="smpc",
            smpc_scheme="shamir",
            pool_size=1,
            window=1,
            durable=False,
            cycle=(
                "descriptive_stats",
                "linear_regression",
                "logistic_regression",
                "kmeans",
                "anova_oneway",
                "pca",
            ),
        ),
        Workload(
            name="scale50_plain_mix",
            site_rows=tuple(rows * 50 for rows in PAPER_ROWS),
            aggregation="plain",
            smpc_scheme="shamir",
            pool_size=1,
            window=1,
            durable=False,
            cycle=(
                "descriptive_stats",
                "linear_regression",
                "logistic_regression",
                "pca",
                "pearson_correlation",
            ),
            quick_site_rows=tuple(rows * 2 for rows in PAPER_ROWS),
        ),
        Workload(
            name="queue_durable_small",
            site_rows=(400, 400, 400, 400),
            aggregation="plain",
            smpc_scheme="shamir",
            pool_size=2,
            window=4,
            durable=True,
            cycle=(
                "pca",
                "linear_regression",
                "pearson_correlation",
                "descriptive_stats",
            ),
        ),
        Workload(
            name="ft_compare_secure",
            site_rows=PAPER_ROWS,
            aggregation="smpc",
            smpc_scheme="full_threshold",
            pool_size=1,
            window=1,
            durable=False,
            cycle=("descriptive_stats", "kmeans", "id3", "descriptive_stats_1var"),
        ),
    )
}


def generate_tables(workload: Workload, seed: int) -> dict[str, Any]:
    """One cohort table per site; site ``i`` draws from seed ``1000*seed+i``."""
    return {
        site: generate_cohort(
            CohortSpec(site, rows, seed=1000 * seed + index, diagnosis_mix=mix)
        )
        for index, ((site, _paper_rows, mix), rows) in enumerate(
            zip(SITES, workload.site_rows)
        )
    }


def build_federation(workload: Workload, tables: dict[str, Any], seed: int):
    return create_federation(
        {f"hospital_{site}": {DATA_MODEL: table} for site, table in tables.items()},
        FederationConfig(
            smpc_nodes=3,
            smpc_scheme=workload.smpc_scheme,
            seed=seed,
            sleep_latency=False,
        ),
    )


def build_service(
    workload: Workload, federation, state_dir: str | None, aggregation: str | None = None
) -> MIPService:
    return MIPService(
        federation,
        aggregation=aggregation or workload.aggregation,
        pool_size=workload.pool_size,
        state_dir=state_dir if workload.durable else None,
    )


def submit(service: MIPService, key: str) -> str:
    return service.submit_experiment(
        data_model=DATA_MODEL, datasets=DATASETS, **REQUESTS[key]
    )
