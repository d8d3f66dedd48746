"""SLO baselines: persisted performance expectations and a comparator.

The bench suite writes machine-readable results with one **stable schema**::

    {"name": ..., "config": {...}, "samples": [s, ...],
     "p50": ..., "p95": ..., "wall_s": ...}

(all latency metrics in seconds, lower is better).  This module turns those
snapshots into an enforced trajectory:

- :class:`BenchResult` — parse/compute the stable schema (percentiles from
  raw samples).
- :class:`BaselineStore` — rolling-window baselines persisted as
  ``BASELINE_<name>.json`` next to the bench results.  Each update appends
  the run's metrics to a bounded window and re-derives the baseline as the
  window median, so one lucky (or unlucky) run cannot move the bar.
- :func:`compare` / :func:`evaluate` — classify a run as ``ok`` / ``warn``
  / ``regression`` against its baseline with configurable tolerances
  (default: warn above +10%, fail above +20% on any latency metric).
  ``repro health`` renders the verdicts and exits nonzero on regression
  or on a ``BENCH_*.json`` file that is not a stable-schema result (and,
  with ``--strict``, on warnings or missing results) — the CI
  ``perf-gate`` job runs exactly that.

Zero dependencies; files are plain JSON so baselines diff cleanly in git.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Latency metrics of the stable schema, all lower-is-better seconds.
METRIC_KEYS = ("p50", "p95", "wall_s")

DEFAULT_WARN_PCT = 10.0
DEFAULT_FAIL_PCT = 20.0
DEFAULT_WINDOW = 10

_STATUS_ORDER = {"ok": 0, "new": 0, "warn": 1, "missing": 1, "regression": 2, "invalid": 2}


def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (the numpy default), stdlib-only."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    position = q * (len(values) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return values[lower]
    fraction = position - lower
    return values[lower] * (1 - fraction) + values[upper] * fraction


@dataclass
class BenchResult:
    """One bench run in the stable schema."""

    name: str
    config: dict[str, Any] = field(default_factory=dict)
    samples: list[float] = field(default_factory=list)
    p50: float | None = None
    p95: float | None = None
    wall_s: float | None = None

    @classmethod
    def from_samples(
        cls,
        name: str,
        samples: Iterable[float],
        config: Mapping[str, Any] | None = None,
        wall_s: float | None = None,
    ) -> "BenchResult":
        values = [float(v) for v in samples]
        if not values:
            raise ValueError(f"bench {name!r} produced no samples")
        return cls(
            name=name,
            config=dict(config or {}),
            samples=values,
            p50=round(percentile(values, 0.5), 6),
            p95=round(percentile(values, 0.95), 6),
            wall_s=round(wall_s if wall_s is not None else sum(values), 6),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchResult":
        return cls(
            name=str(payload["name"]),
            config=dict(payload.get("config") or {}),
            samples=[float(v) for v in payload.get("samples") or ()],
            p50=payload.get("p50"),
            p95=payload.get("p95"),
            wall_s=payload.get("wall_s"),
        )

    def metrics(self) -> dict[str, float]:
        return {
            key: float(value)
            for key in METRIC_KEYS
            for value in (getattr(self, key),)
            if value is not None
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "config": self.config,
            "samples": [round(v, 6) for v in self.samples],
            "p50": self.p50,
            "p95": self.p95,
            "wall_s": self.wall_s,
        }


# ------------------------------------------------------------------ baselines


class BaselineStore:
    """Rolling-window baselines persisted as ``BASELINE_<name>.json``."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)

    def path(self, name: str) -> Path:
        return self.directory / f"BASELINE_{name}.json"

    def names(self) -> list[str]:
        if not self.directory.is_dir():
            return []
        return sorted(
            p.stem[len("BASELINE_"):] for p in self.directory.glob("BASELINE_*.json")
        )

    def load(self, name: str) -> dict[str, Any] | None:
        path = self.path(name)
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def update(
        self, result: BenchResult, window: int = DEFAULT_WINDOW
    ) -> dict[str, Any]:
        """Fold one run into the rolling window and persist the baseline.

        The baseline's headline metrics are the window **medians**, so the
        bar tracks genuine drift but shrugs off single outlier runs.
        """
        baseline = self.load(result.name) or {
            "name": result.name,
            "config": result.config,
            "window": [],
        }
        entries = list(baseline.get("window") or [])
        entries.append(result.metrics())
        entries = entries[-max(1, window):]
        baseline["window"] = entries
        baseline["runs"] = len(entries)
        for key in METRIC_KEYS:
            values = [e[key] for e in entries if e.get(key) is not None]
            baseline[key] = round(percentile(values, 0.5), 6) if values else None
        if result.config:
            baseline["config"] = result.config
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path(result.name).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        return baseline


# ----------------------------------------------------------------- comparator


@dataclass
class Verdict:
    """The comparator's classification of one bench vs. its baseline."""

    name: str
    status: str  # ok | warn | regression | new | missing | invalid
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "metrics": self.metrics,
            "notes": list(self.notes),
        }


def compare(
    current: BenchResult,
    baseline: Mapping[str, Any] | None,
    warn_pct: float = DEFAULT_WARN_PCT,
    fail_pct: float = DEFAULT_FAIL_PCT,
) -> Verdict:
    """Classify one run against its baseline.

    Tolerances are exclusive: a metric exactly at ``baseline * (1 + tol)``
    still passes; one strictly above it trips the level.  A missing
    baseline yields ``new`` (commit one via ``repro health
    --update-baselines``); a metric present in the baseline but absent
    from the run degrades the verdict to ``warn``.
    """
    if warn_pct > fail_pct:
        raise ValueError("warn_pct must not exceed fail_pct")
    if baseline is None:
        return Verdict(
            current.name, "new",
            metrics={k: {"current": v} for k, v in current.metrics().items()},
            notes=["no baseline on record"],
        )
    verdict = Verdict(current.name, "ok")
    current_metrics = current.metrics()
    for key in METRIC_KEYS:
        base_value = baseline.get(key)
        cur_value = current_metrics.get(key)
        if base_value is None and cur_value is None:
            continue
        if base_value is None:
            verdict.metrics[key] = {"current": cur_value, "status": "new"}
            verdict.notes.append(f"{key}: new metric (no baseline value)")
            continue
        if cur_value is None:
            verdict.metrics[key] = {"baseline": base_value, "status": "missing"}
            verdict.notes.append(f"{key}: missing from the current run")
            verdict.status = _worse(verdict.status, "warn")
            continue
        if base_value <= 0:
            ratio = math.inf if cur_value > 0 else 1.0
        else:
            ratio = cur_value / base_value
        status = "ok"
        if ratio > 1 + fail_pct / 100.0:
            status = "regression"
        elif ratio > 1 + warn_pct / 100.0:
            status = "warn"
        verdict.metrics[key] = {
            "current": cur_value,
            "baseline": base_value,
            "ratio": round(ratio, 4) if ratio != math.inf else "inf",
            "status": status,
        }
        if status != "ok":
            verdict.notes.append(
                f"{key}: {cur_value:.6g}s vs baseline {base_value:.6g}s "
                f"({(ratio - 1) * 100:+.1f}%)"
            )
        verdict.status = _worse(verdict.status, status)
    return verdict


def _worse(a: str, b: str) -> str:
    return a if _STATUS_ORDER.get(a, 0) >= _STATUS_ORDER.get(b, 0) else b


# ----------------------------------------------------------------- evaluation


@dataclass
class HealthReport:
    """Every bench verdict plus baselines that produced no current run."""

    verdicts: list[Verdict] = field(default_factory=list)
    warn_pct: float = DEFAULT_WARN_PCT
    fail_pct: float = DEFAULT_FAIL_PCT

    @property
    def status(self) -> str:
        worst = "ok"
        for verdict in self.verdicts:
            worst = _worse(worst, verdict.status)
        return worst

    def exit_code(self, strict: bool = False) -> int:
        """0 when healthy; 1 on regression or an invalid result file (or,
        strictly, warn/missing)."""
        statuses = {v.status for v in self.verdicts}
        if statuses & {"regression", "invalid"}:
            return 1
        if strict and statuses & {"warn", "missing"}:
            return 1
        return 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "warn_pct": self.warn_pct,
            "fail_pct": self.fail_pct,
            "benches": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        lines = [
            f"{'bench':<24}{'status':<12}{'p50':>10}{'p95':>10}{'wall_s':>10}",
        ]
        for verdict in self.verdicts:
            cells = []
            for key in METRIC_KEYS:
                info = verdict.metrics.get(key) or {}
                current = info.get("current")
                cells.append(f"{current:>10.4g}" if current is not None else f"{'-':>10}")
            lines.append(f"{verdict.name:<24}{verdict.status:<12}" + "".join(cells))
            for note in verdict.notes:
                lines.append(f"    {note}")
        lines.append(
            f"overall: {self.status} "
            f"(warn >{self.warn_pct:g}%, fail >{self.fail_pct:g}%)"
        )
        return "\n".join(lines)


def load_bench_results(directory: "str | Path") -> tuple[list[BenchResult], list[Verdict]]:
    """Stable-schema ``BENCH_*.json`` files under ``directory``, and an
    ``invalid`` verdict for each one that does not parse or lacks the
    stable keys: the gate judges every file it finds."""
    directory = Path(directory)
    results: list[BenchResult] = []
    invalid: list[Verdict] = []
    if not directory.is_dir():
        return results, invalid
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict) or "name" not in payload:
                raise ValueError("no 'name' key")
            if "samples" not in payload and "p95" not in payload:
                raise ValueError("neither 'samples' nor 'p95'")
            results.append(BenchResult.from_dict(payload))
        except (OSError, TypeError, ValueError) as error:
            invalid.append(
                Verdict(path.name, "invalid", notes=[f"not a stable-schema result: {error}"])
            )
    return results, invalid


def evaluate(
    results_dir: "str | Path",
    baseline_dir: "str | Path | None" = None,
    warn_pct: float = DEFAULT_WARN_PCT,
    fail_pct: float = DEFAULT_FAIL_PCT,
) -> HealthReport:
    """Compare every stable-schema bench result against its baseline."""
    store = BaselineStore(baseline_dir or results_dir)
    results, invalid = load_bench_results(results_dir)
    report = HealthReport(verdicts=invalid, warn_pct=warn_pct, fail_pct=fail_pct)
    seen = set()
    for result in results:
        seen.add(result.name)
        report.verdicts.append(
            compare(result, store.load(result.name), warn_pct, fail_pct)
        )
    for name in store.names():
        if name not in seen:
            report.verdicts.append(
                Verdict(name, "missing", notes=["baseline has no current bench run"])
            )
    return report
