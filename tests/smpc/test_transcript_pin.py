"""Pinned transcripts: seeded SMPC runs consume randomness exactly as before.

A seeded cluster runs one job shaped like the experiment ladder's secure
aggregates — four workers, a ``sum`` of a 4x4 matrix, ``min`` and ``max`` of
scalars, a ``union`` of a 0/1 level vector — once plain and once with
in-protocol Gaussian noise.  The digest covers the opened results, the
communication meter, the dealer's offline usage and the final state of the
protocol and dealer RNGs.  The digests were first
recorded before the share arithmetic was fused; a change that reorders a
single draw, opens a different value or adds a round changes them.

They were re-recorded once, when comparison widths started to follow the
payload.  The only cause is the ``union`` run, whose width now follows from
the worker count (3 bits for four workers instead of 82): its mask draws
fewer dealer bits and its carry tree opens fewer values.  This payload
declares no bound, so its ``min``/``max`` run keeps the full width, and with
``union`` forced back to 82 bits the run reproduces the old digests.

They were re-recorded a second time when each SMPC job started to draw its
noise from generators seeded by (cluster seed, job id, node) instead of one
cluster-wide noise generator.  Only the noisy job's opened values moved; the
plain job's results, the meter, the offline usage and the protocol and dealer
RNG states are unchanged.

They were re-recorded a third time when the dealer started to deal each
comparison's mask as its low bits, the products of adjacent bit pairs and
one high integer, so that the carry tree's first level is linear.  The dealer
draws different randomness (one ``getrandbits`` for the high part instead of
kappa shared bits), and every comparison opens one fewer Beaver level: the
meter (FT 171 → 153 rounds, 103 776 → 51 144 elements), the offline usage
and the dealer RNG state move.  Both jobs' opened results and the protocol
RNG state are unchanged.
"""

import hashlib
import json

import pytest

from repro.smpc.cluster import NoiseSpec, SMPCCluster

PINNED = {
    "shamir": "8ba516728a0ac6f95c8c4d193bc9afb658bee30a67910602a6ed1b65ee89d946",
    "full_threshold": "8ba0214a8045866d90b4d7d12fe533f574a760352c627bd5de21c15881c3a673",
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
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_seeded_transcript_is_pinned(scheme):
    assert transcript_digest(scheme) == PINNED[scheme]
