"""Observability: tracing, metrics, audit logging, structured logging.

Zero-dependency subsystem threaded through every layer of the reproduction
(see docs/ARCHITECTURE.md §10):

- :mod:`repro.observability.trace` — nested spans per federated flow, with
  wall- and simulated-clock timestamps, exportable as JSON or Chrome
  trace-event format (``REPRO_TRACE=1`` enables the process tracer),
- :mod:`repro.observability.metrics` — collectors that re-expose the
  stack's existing private counters (and the queue's latency histogram) behind
  ``registry.snapshot()`` / ``registry.render_prometheus()``; there is no
  process-wide registry: ``Federation.metrics_registry()`` builds one over
  the meters that federation owns,
- :mod:`repro.observability.audit` — append-only per-node privacy audit
  log (data access, aggregates shared, budget spend, evictions),
- :mod:`repro.observability.log` — the one structured JSON-lines logger
  (``REPRO_LOG_LEVEL`` selects the threshold),
- :mod:`repro.observability.critical_path` — blocking-chain analysis over
  finished span trees (self vs. wait attribution, straggler ranking),
- :mod:`repro.observability.profiler` — stdlib sampling profiler with
  per-job attribution (read from the attached transport's thread map),
  collapsed-stack and speedscope export,
- :mod:`repro.observability.slo` — rolling-window performance baselines
  (``BASELINE_*.json``) and the ok/warn/regression comparator behind
  ``repro health``.
"""

from repro.observability.audit import AuditEvent, AuditLog, merged_events
from repro.observability.critical_path import (
    CriticalPathReport,
    analyze,
    analyze_experiment,
)
from repro.observability.log import LOG_LEVEL_ENV, configure, get_logger
from repro.observability.metrics import Histogram, MetricsRegistry, estimate_quantile
from repro.observability.profiler import DEFAULT_HZ, SamplingProfiler
from repro.observability.slo import (
    BaselineStore,
    BenchResult,
    HealthReport,
    compare,
    evaluate,
)
from repro.observability.trace import (
    TRACE_ENV,
    Span,
    Tracer,
    filter_tree,
    normalized_tree,
    tracer,
)

__all__ = [
    "AuditEvent",
    "AuditLog",
    "merged_events",
    "CriticalPathReport",
    "analyze",
    "analyze_experiment",
    "DEFAULT_HZ",
    "SamplingProfiler",
    "BaselineStore",
    "BenchResult",
    "HealthReport",
    "compare",
    "evaluate",
    "estimate_quantile",
    "filter_tree",
    "LOG_LEVEL_ENV",
    "configure",
    "get_logger",
    "Histogram",
    "MetricsRegistry",
    "TRACE_ENV",
    "Span",
    "Tracer",
    "normalized_tree",
    "tracer",
]
