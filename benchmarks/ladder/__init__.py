"""The experiment ladder: the repository's benchmark.

Four closed-loop workloads drive a simulated federation through the public
surface only (``generate_cohort``, ``create_federation``, ``MIPService``) and
report experiment latency, throughput and cost end to end, plus a per-layer
attribution from spans the benchmark records around the program's own calls.
See ``README.md`` in this directory for the workloads, the metrics and the
predicted couplings between them; ``BENCHMARK.json`` at the repository root
declares the metric names, units and regression bounds.
"""
