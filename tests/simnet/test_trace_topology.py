"""Tests for the topology-aware latency models."""

from __future__ import annotations

import random

import pytest

from repro.simnet.topology import MatrixLatency, RackTopologyLatency


# ---------------------------------------------------------------------------
# RackTopologyLatency / MatrixLatency
# ---------------------------------------------------------------------------
def test_rack_topology_intra_vs_inter():
    model = RackTopologyLatency.evenly_spread(
        committee_size=8, num_groups=2, intra_delay=0.0005, inter_delay=0.03, jitter=0.0
    )
    rng = random.Random(1)
    assert model.sample(rng, 0, 2) == pytest.approx(0.0005)   # both in group 0
    assert model.sample(rng, 0, 1) == pytest.approx(0.03)     # different groups
    assert model.upper_bound >= 0.03
    assert model.group(0) == 0 and model.group(1) == 1


def test_rack_topology_jitter_stays_positive():
    model = RackTopologyLatency.evenly_spread(8, 2, jitter=0.5)
    rng = random.Random(3)
    samples = [model.sample(rng, 0, 1) for _ in range(200)]
    assert all(sample > 0 for sample in samples)
    assert len(set(samples)) > 1


def test_rack_topology_validation():
    with pytest.raises(ValueError):
        RackTopologyLatency({}, intra_delay=0.0)
    with pytest.raises(ValueError):
        RackTopologyLatency({}, jitter=1.0)
    with pytest.raises(ValueError):
        RackTopologyLatency.evenly_spread(8, 0)


def test_matrix_latency_lookup_and_validation():
    matrix = [
        [0.0, 0.01, 0.05],
        [0.01, 0.0, 0.08],
        [0.05, 0.08, 0.0],
    ]
    model = MatrixLatency(matrix)
    rng = random.Random(0)
    assert model.size == 3
    assert model.sample(rng, 0, 2) == pytest.approx(0.05)
    assert model.mean(1, 2) == pytest.approx(0.08)
    assert model.upper_bound == pytest.approx(0.08)
    with pytest.raises(ValueError):
        MatrixLatency([[0.0, 0.1]])
    with pytest.raises(ValueError):
        MatrixLatency([[0.0, -0.1], [0.1, 0.0]])
    with pytest.raises(ValueError):
        MatrixLatency(matrix, jitter=1.0)


def test_geo_distributed_committee_still_commits():
    """Iniva stays live on a two-region topology with 20 ms cross-region latency."""
    from repro import api
    from repro.experiments import specs

    spec = specs.testbed_base(
        "geo", duration=3.0, warmup=0.5, seed=1, batch_size=10, view_timeout=0.5
    ).with_(
        committee={"size": 9},
        delta=0.03,
        second_chance_timeout=0.02,
        topology={"kind": "rack", "regions": 2, "intra_delay": 0.0005, "inter_delay": 0.02,
                  "jitter": 0.1},
        workload={"rate": 500, "payload_size": 32, "seed": 4},
    )
    result = api.run(spec).metrics
    assert result.committed_blocks > 0
    assert result.latency.mean > 0.02  # cross-region hops dominate latency
