"""A unified metrics registry: counters, histograms, collectors.

The registry is the one surface behind which every private ad-hoc counter in
the stack — :class:`~repro.federation.transport.TransportStats`, the UDF
plan cache's hit/miss counters, retry/failed-send totals, SMPC
communication meters — is re-exposed
without changing the objects themselves (existing test assertions keep
working against the originals).  Live sources are absorbed through
*collectors*: callables returning samples, evaluated at
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.render_prometheus`
time, so reading metrics never adds work to the hot path.

Instruments follow the Prometheus data model: a ``Counter`` only goes up, a
``Histogram`` observes values into fixed buckets
(cumulative ``le`` semantics plus ``_sum``/``_count``).  All instruments
accept labels as keyword arguments on the recording call.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Iterable, Mapping

#: One exported measurement: (metric name, labels, value).
Sample = tuple[str, Mapping[str, Any], float]

_DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, float("inf"))


def _label_key(labels: Mapping[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing total, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[Sample]:
        with self._lock:
            return [(self.name, dict(key), value) for key, value in self._values.items()]


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative (Prometheus ``le``) buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = _DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        self._counts: dict[tuple, list[int]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                # NaN compares False against every bound, +Inf included; it
                # must still land in the overflow bucket or the cumulative
                # +Inf count would disagree with ``_count`` (the Prometheus
                # invariant ``le="+Inf" == _count``).
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def snapshot_one(self, **labels: Any) -> dict[str, Any]:
        key = _label_key(labels)
        with self._lock:
            counts = list(self._counts.get(key, [0] * len(self.buckets)))
            cumulative = []
            running = 0
            for count in counts:
                running += count
                cumulative.append(running)
            return {
                "buckets": {
                    ("+Inf" if bound == float("inf") else bound): cum
                    for bound, cum in zip(self.buckets, cumulative)
                },
                "sum": self._sums.get(key, 0.0),
                "count": self._totals.get(key, 0),
            }

    def samples(self) -> list[Sample]:
        out: list[Sample] = []
        with self._lock:
            keys = list(self._counts)
        for key in keys:
            labels = dict(key)
            snap = self.snapshot_one(**labels)
            for bound, cum in snap["buckets"].items():
                out.append((f"{self.name}_bucket", {**labels, "le": bound}, cum))
            out.append((f"{self.name}_sum", labels, snap["sum"]))
            out.append((f"{self.name}_count", labels, snap["count"]))
        return out

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimate the ``q``-quantile from this histogram's buckets.

        ``None`` when the label set holds no observations.  See
        :func:`estimate_quantile` for the interpolation contract.
        """
        with self._lock:
            counts = self._counts.get(_label_key(labels))
            if counts is None:
                return None
            cumulative: list[int] = []
            running = 0
            for count in counts:
                running += count
                cumulative.append(running)
        return estimate_quantile(self.buckets, cumulative, q)


def estimate_quantile(
    bounds: "tuple[float, ...] | list[float]",
    cumulative: "list[int] | tuple[int, ...]",
    q: float,
) -> float | None:
    """Prometheus-style ``histogram_quantile`` over cumulative buckets.

    Linear interpolation inside the target bucket; the first bucket's lower
    edge is 0 when its upper bound is positive (matching PromQL).  Mass in
    the ``+Inf`` overflow bucket is reported as the highest finite bound —
    the histogram cannot resolve anything beyond it.  Returns ``None`` for
    an empty histogram (or one with no finite bounds at all).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not cumulative:
        return None
    total = cumulative[-1]
    if total == 0:
        return None
    rank = q * total
    for index, cum in enumerate(cumulative):
        if cum >= rank and cum > 0:
            upper = bounds[index]
            previous = cumulative[index - 1] if index else 0
            if upper == float("inf"):
                finite = [b for b in bounds if b != float("inf")]
                return finite[-1] if finite else None
            lower = bounds[index - 1] if index else (0.0 if upper > 0 else upper)
            in_bucket = cum - previous
            fraction = (rank - previous) / in_bucket if in_bucket else 1.0
            fraction = min(1.0, max(0.0, fraction))
            return lower + (upper - lower) * fraction
    return None  # pragma: no cover - total > 0 guarantees a hit above


class MetricsRegistry:
    """Holds instruments plus collectors over live, externally-owned counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    # --------------------------------------------------------- registration

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, Counter, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = _DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = Histogram(name, help_text, buckets)
            elif not isinstance(instrument, Histogram):
                raise ValueError(f"metric {name!r} already registered as {instrument.kind}")
            return instrument

    def _get_or_create(self, name: str, cls, help_text: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, help_text)
            elif not isinstance(instrument, cls):
                raise ValueError(f"metric {name!r} already registered as {instrument.kind}")
            return instrument

    def register_collector(self, collector: Callable[[], Iterable[Sample]]) -> None:
        """Absorb an external counter source, read lazily at snapshot time."""
        with self._lock:
            self._collectors.append(collector)

    # --------------------------------------------------------------- output

    def _all_samples(self) -> list[tuple[str, str, str, list[Sample]]]:
        """(name, kind, help, samples) per metric, collectors last."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        out = [
            (inst.name, inst.kind, inst.help, inst.samples()) for inst in instruments
        ]
        for collector in collectors:
            grouped: dict[str, list[Sample]] = {}
            for sample in collector():
                grouped.setdefault(sample[0], []).append(sample)
            for name, samples in grouped.items():
                # Collectors report bare samples; follow the Prometheus
                # naming convention to type them (`*_total` is a counter).
                kind = "counter" if name.endswith("_total") else "gauge"
                out.append((name, kind, "", samples))
        return out

    def snapshot(self) -> dict[str, Any]:
        """Every current value as one JSON-ready mapping.

        Unlabeled metrics map to a scalar; labeled metrics map to a list of
        ``{"labels": ..., "value": ...}`` entries.
        """
        result: dict[str, Any] = {}
        for name, _kind, _help, samples in self._all_samples():
            if len(samples) == 1 and not samples[0][1]:
                result[name] = samples[0][2]
            else:
                result[name] = [
                    {"labels": dict(labels), "value": value}
                    for _name, labels, value in samples
                ]
        return result

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: list[str] = []
        for name, kind, help_text, samples in self._all_samples():
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for sample_name, labels, value in sorted(
                samples, key=lambda s: (s[0], _label_key(s[1]))
            ):
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape(val)}"' for key, val in sorted(
                            (k, str(v)) for k, v in labels.items()
                        )
                    )
                    lines.append(f"{sample_name}{{{rendered}}} {_format_value(value)}")
                else:
                    lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True, default=str)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
