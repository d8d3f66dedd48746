"""Pinned transcripts: seeded SMPC runs consume randomness exactly as before.

A seeded cluster runs one job shaped like the experiment ladder's secure
aggregates — four workers, a ``sum`` of a 4x4 matrix, ``min`` and ``max`` of
scalars, a ``union`` of a 0/1 level vector — once plain and once with
in-protocol Gaussian noise.  The digest covers the opened results, the
communication meter, the dealer's offline usage and the final state of every
RNG the run draws from (protocol, dealer, noise).  The digests were recorded
before the share arithmetic was fused; a change that reorders a single draw,
opens a different value or adds a round changes them.
"""

import hashlib
import json

import pytest

from repro.smpc.cluster import NoiseSpec, SMPCCluster

PINNED = {
    "shamir": "a751e7dd83b8f7ce831a463f689174e6752fd2a9e054fd19e79e263c36b8b218",
    "full_threshold": "6c37fac66e8888aa1c56ab66d2442cde387cce626ba60017192043f30225bddd",
}


def ladder_shaped_payload(worker):
    payload = {
        "cov": {
            "data": [[(worker + 1) * (i - j) / 8.0 for j in range(4)] for i in range(4)],
            "operation": "sum",
        },
        "levels": {"data": [float(worker == level) for level in range(4)], "operation": "union"},
    }
    for k in range(3):
        value = (worker - 1.5) * (k + 1) * 10.25
        payload[f"low{k}"] = {"data": value, "operation": "min"}
        payload[f"high{k}"] = {"data": -value, "operation": "max"}
    return payload


def transcript_digest(scheme):
    cluster = SMPCCluster(3, scheme, seed=2024)
    results = []
    for job, noise in (("plain", None), ("noisy", NoiseSpec("gaussian", 0.5))):
        for worker in range(4):
            cluster.import_shares(job, f"w{worker}", ladder_shaped_payload(worker))
        results.append(cluster.aggregate(job, noise=noise))
    meter, usage = cluster.communication, cluster.offline_usage
    record = {
        "results": results,
        "communication": [meter.rounds, meter.elements],
        "offline_usage": [usage.triples, usage.random_bits, usage.elements_dealt],
        "protocol_rng": repr(cluster.protocol._rng.getstate()),
        "dealer_rng": repr(cluster.protocol.dealer.rng.getstate()),
        "noise_rng": repr(cluster._noise_rng.bit_generator.state),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_seeded_transcript_is_pinned(scheme):
    assert transcript_digest(scheme) == PINNED[scheme]
