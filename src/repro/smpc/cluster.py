"""The SMPC cluster: the component MIP's Master signals for secure
aggregation.

Paper §2: "the Master node signals the SMPC cluster, the SMPC nodes import
the secret shares from the Workers and run the SMPC protocol.  When the SMPC
computation finishes, the result is sent to the Master node. [...] when a
computation is triggered, it is assigned a global unique identifier, which is
used to retrieve results asynchronously".

The cluster aggregates *secure transfer* payloads (dicts of
``{key: {"data": scalar-or-nested-list, "operation": op}}``), supports the
four operations the paper lists (sum, multiplication, min/max, disjoint
union) and can inject Laplacian or Gaussian noise inside the protocol before
a result is opened: every SMPC node contributes an authenticated share of
partial noise, so no single node ever knows the total perturbation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Literal, Mapping, Sequence

import numpy as np

from repro.errors import SMPCError
from repro.observability.audit import owned_by
from repro.observability.trace import tracer
from repro.smpc.encoding import FixedPointEncoder
from repro.smpc.field import PRIME, FieldVector, active_kernel
from repro.smpc.protocol import CommunicationMeter
from repro.smpc.protocol import FTProtocol, Protocol, ShamirProtocol

SchemeName = Literal["shamir", "full_threshold"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise injected inside the protocol before opening a result."""

    mechanism: Literal["gaussian", "laplace"]
    scale: float

    def partial(self, rng: np.random.Generator, n_nodes: int, size: int) -> np.ndarray:
        """One node's partial noise; partials across nodes sum to the target
        distribution (exactly for Gaussian, via infinite divisibility for
        Laplace using the Gamma-difference representation)."""
        if self.mechanism == "gaussian":
            return rng.normal(0.0, self.scale / np.sqrt(n_nodes), size)
        shape = 1.0 / n_nodes
        return rng.gamma(shape, self.scale, size) - rng.gamma(shape, self.scale, size)


@dataclass
class SecureComputationRequest:
    """One pending aggregation job inside the cluster."""

    job_id: str
    payloads: dict[str, dict[str, Any]] = field(default_factory=dict)  # worker -> transfer


@dataclass(frozen=True)
class _Flattened:
    values: np.ndarray  # 1-D float64
    shape: tuple[int, ...] | None  # None for a scalar


@dataclass(frozen=True)
class _KeyInputs:
    """One validated transfer key: its operation and every worker's values."""

    key: str
    operation: str
    inputs: list[_Flattened]  # one per worker, all of one shape


#: The protocol run each operation rides in.  ``max`` joins the ``min`` run
#: with its sign flipped: max(x) = -min(-x), and field negation is exact over
#: the symmetric fixed-point range.
_PROTOCOL_RUN = {"sum": "sum", "product": "product", "min": "min", "max": "min", "union": "union"}


class SMPCCluster:
    """A simulated cluster of SMPC computing nodes."""

    def __init__(
        self,
        n_nodes: int = 3,
        scheme: SchemeName = "shamir",
        seed: int | None = None,
        encoder: FixedPointEncoder | None = None,
    ) -> None:
        if scheme == "shamir":
            self.protocol: Protocol = ShamirProtocol(n_nodes, seed=seed, encoder=encoder)
        elif scheme == "full_threshold":
            self.protocol = FTProtocol(n_nodes, seed=seed, encoder=encoder)
        else:
            raise SMPCError(f"unknown SMPC scheme {scheme!r}")
        self.scheme = scheme
        self.n_nodes = n_nodes
        self._jobs: dict[str, SecureComputationRequest] = {}
        self._results: dict[str, dict[str, Any]] = {}
        self._noise_rng = np.random.default_rng(seed)
        # Protocol state (shares, MACs, the meter) is shared mutable state;
        # concurrent experiments reach the cluster from separate executor
        # threads, so imports and aggregations are serialized.  The lock
        # also makes the before/after meter delta in aggregate() exact,
        # which is what per-job attribution relies on.
        self._lock = threading.RLock()
        self._job_meters: dict[str, CommunicationMeter] = {}

    # ------------------------------------------------------------ job intake

    def import_shares(self, job_id: str, worker_id: str, payload: Mapping[str, Any]) -> None:
        """Secret-share one worker's secure-transfer payload into the cluster.

        In deployment the worker splits its values into shares and sends one
        share to each SMPC node over a secure channel; here the sharing
        happens inside :meth:`Protocol.input_vector` and the communication is
        metered identically.
        """
        with tracer.span(
            "smpc.import_shares", job=job_id, worker=worker_id, keys=len(payload)
        ), self._lock:
            job = self._jobs.setdefault(job_id, SecureComputationRequest(job_id))
            if worker_id in job.payloads:
                raise SMPCError(
                    f"worker {worker_id!r} already contributed to job {job_id!r}"
                )
            job.payloads[worker_id] = {k: dict(v) for k, v in payload.items()}

    def has_job(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._jobs or job_id in self._results

    def drop_worker(self, job_id: str, worker_id: str) -> bool:
        """Discard a (dead) worker's contribution before aggregation.

        The survivor re-split path: when the federation evicts a worker
        mid-flow, its imported payload must not poison the aggregate.  The
        surviving workers' payloads are freshly secret-shared at
        :meth:`aggregate` time, so dropping a contribution re-splits the job
        over exactly the survivors.  Returns True if anything was removed.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            dropped = job.payloads.pop(worker_id, None) is not None
        if dropped:
            with tracer.span("smpc.drop_worker", job=job_id, worker=worker_id):
                pass
        return dropped

    def abort_job(self, job_id: str) -> bool:
        """Forget a pending job (a failed flow cleaning up after itself)."""
        with self._lock:
            return self._jobs.pop(job_id, None) is not None

    # ------------------------------------------------------------ aggregation

    def aggregate(self, job_id: str, noise: NoiseSpec | None = None) -> dict[str, Any]:
        """Run the protocol for every key of a job and return plain results."""
        with self._lock:
            return self._aggregate_locked(job_id, noise)

    def _aggregate_locked(self, job_id: str, noise: NoiseSpec | None) -> dict[str, Any]:
        if job_id in self._results:
            return self._results[job_id]
        job = self._jobs.get(job_id)
        if job is None:
            raise SMPCError(f"no such SMPC job: {job_id!r}")
        if not job.payloads:
            raise SMPCError(f"SMPC job {job_id!r} has no imported shares")
        workers = sorted(job.payloads)
        keys = list(job.payloads[workers[0]])
        for worker in workers[1:]:
            if list(job.payloads[worker]) != keys:
                raise SMPCError(f"SMPC job {job_id!r}: workers disagree on transfer keys")
        runs: dict[str, list[_KeyInputs]] = {}
        with tracer.span(
            "smpc.aggregate",
            job=job_id,
            workers=len(workers),
            keys=len(keys),
            scheme=self.scheme,
            kernel=active_kernel(),
        ) as span:
            rounds_before = self.protocol.meter.rounds
            elements_before = self.protocol.meter.elements
            for key in keys:
                operations = {job.payloads[w][key]["operation"] for w in workers}
                if len(operations) != 1:
                    raise SMPCError(
                        f"SMPC job {job_id!r}, key {key!r}: conflicting operations"
                    )
                operation = operations.pop()
                flattened = [_flatten(job.payloads[w][key]["data"]) for w in workers]
                shapes = {f.shape for f in flattened}
                if len(shapes) != 1:
                    raise SMPCError(f"SMPC job {job_id!r}, key {key!r}: shape mismatch")
                if operation not in _PROTOCOL_RUN:
                    raise SMPCError(f"unsupported SMPC operation {operation!r}")
                runs.setdefault(_PROTOCOL_RUN[operation], []).append(
                    _KeyInputs(key, operation, flattened)
                )
            # One protocol run per operation, over every key of that
            # operation laid end to end — rounds do not grow with key count.
            opened: dict[str, Any] = {}
            for run, members in runs.items():
                with tracer.span("smpc.aggregate_key", operation=run, keys=len(members)):
                    opened.update(self._aggregate_run(run, members, noise))
            result = {key: opened[key] for key in keys}
            span.set_attribute("rounds", self.protocol.meter.rounds - rounds_before)
        meter = self._job_meters.setdefault(job_id, CommunicationMeter())
        meter.record(
            rounds=self.protocol.meter.rounds - rounds_before,
            elements=self.protocol.meter.elements - elements_before,
        )
        self._results[job_id] = result
        del self._jobs[job_id]
        return result

    def get_result(self, job_id: str) -> dict[str, Any]:
        """Retrieve a finished result by its global unique identifier."""
        if job_id not in self._results:
            raise SMPCError(f"no finished SMPC result for job {job_id!r}")
        return self._results[job_id]

    def _aggregate_run(
        self, run: str, members: Sequence[_KeyInputs], noise: NoiseSpec | None
    ) -> dict[str, Any]:
        protocol = self.protocol
        encoder = protocol.encoder
        integer_mode = run == "union"
        encode = (
            encoder.encode_ints_to_field_vector if integer_mode else encoder.encode_to_field_vector
        )
        sizes = [len(member.inputs[0].values) for member in members]
        signs = None
        if any(member.operation == "max" for member in members):
            signs = FieldVector._raw(
                [
                    PRIME - 1 if member.operation == "max" else 1
                    for member, size in zip(members, sizes)
                    for _ in range(size)
                ]
            )
        shared_inputs = []
        for worker in range(len(members[0].inputs)):
            encoded = encode(np.concatenate([member.inputs[worker].values for member in members]))
            if signs is not None:
                encoded = encoded * signs
            shared_inputs.append(protocol.input_vector(encoded))
        if run == "sum":
            combined = protocol.sum_inputs(shared_inputs)
            if noise is not None:
                combined = self._inject_noise(combined, noise, sizes)
        elif run == "product":
            combined = protocol.product_fixed_point(shared_inputs)
        elif run == "min":
            combined = protocol.minimum_inputs(shared_inputs)
        else:
            combined = protocol.union_inputs(shared_inputs)
        opened = protocol.open(combined)
        if signs is not None:
            opened = opened * signs
        if integer_mode:
            values = np.asarray(encoder.decode_ints_from_field_vector(opened), dtype=np.int64)
        else:
            values = encoder.decode_field_vector(opened)
        results = {}
        offset = 0
        for member, size in zip(members, sizes):
            results[member.key] = _unflatten(
                values[offset : offset + size], member.inputs[0].shape, integer_mode
            )
            offset += size
        return results

    def _inject_noise(self, combined, noise: NoiseSpec, sizes: Sequence[int]):
        """Add every node's authenticated partial noise to the sum run.

        Partials are drawn key by key, node by node within a key — the order
        seeded released values were produced under when each key had its own
        protocol run — and then shared as one vector per node.
        """
        protocol = self.protocol
        partials = [
            [noise.partial(self._noise_rng, self.n_nodes, size) for _ in range(self.n_nodes)]
            for size in sizes
        ]
        for node in range(self.n_nodes):
            encoded = protocol.encoder.encode_to_field_vector(
                np.concatenate([per_key[node] for per_key in partials])
            )
            combined = protocol.add(combined, protocol.input_vector(encoded))
        return combined

    # ------------------------------------------------------------- telemetry

    @property
    def communication(self):
        return self.protocol.meter

    def job_communication(self, job_prefix: str) -> CommunicationMeter:
        """Rounds/elements attributable to one job id prefix.

        Cluster job ids are step-scoped (``{experiment}_s{n}_{param}``), so
        querying with an experiment id sums every aggregation the experiment
        triggered — the per-job view :class:`ExperimentTelemetry` reports,
        exact even when experiments overlap.
        """
        total = CommunicationMeter()
        with self._lock:
            for job_id, meter in self._job_meters.items():
                if owned_by(job_id, job_prefix):
                    total.record(rounds=meter.rounds, elements=meter.elements)
        return total

    def forget_jobs(self, job_prefix: str) -> None:
        """Forget a finished experiment's per-job meters and retained results
        (prefix match); its :class:`ExperimentResult` holds what mattered."""
        with self._lock:
            for retained in (self._job_meters, self._results):
                for job_id in [j for j in retained if owned_by(j, job_prefix)]:
                    del retained[job_id]

    @property
    def offline_usage(self):
        return self.protocol.dealer.usage


def _flatten(data: Any) -> _Flattened:
    if isinstance(data, (int, float, np.integer, np.floating)):
        return _Flattened(np.array([float(data)], dtype=np.float64), None)
    array = np.asarray(data, dtype=np.float64)
    return _Flattened(array.ravel(), array.shape)


def _unflatten(values: np.ndarray, shape: tuple[int, ...] | None, integer_mode: bool) -> Any:
    if shape is None:
        scalar = values[0]
        return int(scalar) if integer_mode else float(scalar)
    reshaped = values.reshape(shape)
    return reshaped.tolist()
