"""Integration tests for the Gosig and Kauri baseline aggregators."""

from __future__ import annotations

import pytest

from repro import api
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.experiments import specs
from repro.experiments.runner import build_deployment, summarise
from repro.scenarios.engine import attach_chaos


def _spec(aggregation: str, duration: float = 1.0, view_timeout: float = 0.1, **scheme_params):
    """A 9-replica testbed run under 2 000 req/s of 32-byte requests."""
    return specs.testbed_base(
        "baseline-schemes",
        duration=duration,
        warmup=0.1,
        seed=1,
        batch_size=10,
        view_timeout=view_timeout,
    ).with_(
        aggregation=aggregation,
        committee={"size": 9},
        scheme_params=scheme_params,
        workload={"rate": 2_000, "payload_size": 32, "seed": 3},
    )


def _run(aggregation: str, duration: float = 1.0, **scheme_params):
    return api.run(_spec(aggregation, duration, **scheme_params)).metrics


def _run_crashing(spec, pids):
    """Run ``spec`` with the replicas ``pids`` crashed from the start."""
    deployment = api.deploy(spec)
    attach_chaos(
        deployment.replicas,
        deployment.network,
        ChaosPlan(seed=0, crashes=dict.fromkeys(pids, 0.0)),
    )
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    return summarise(deployment, spec.duration)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------
def test_config_accepts_new_schemes():
    for name in ("gosig", "kauri"):
        config = ConsensusConfig(aggregation=name)
        assert config.aggregation == name


def test_config_rejects_unknown_scheme_and_bad_knobs():
    with pytest.raises(ValueError):
        ConsensusConfig(aggregation="carrier-pigeon")
    with pytest.raises(ValueError):
        ConsensusConfig(gossip_fanout=0)
    with pytest.raises(ValueError):
        ConsensusConfig(free_rider_fraction=1.5)
    with pytest.raises(ValueError):
        ConsensusConfig(kauri_fallback_threshold=0)


def test_make_aggregator_resolves_new_names():
    config = ConsensusConfig(committee_size=7, aggregation="gosig")
    deployment = build_deployment(config)
    names = {replica.aggregator.name for replica in deployment.replicas}
    assert names == {"gosig"}
    for name in ("kauri",):
        deployment = build_deployment(ConsensusConfig(committee_size=7, aggregation=name))
        assert deployment.replicas[0].aggregator.name == name


# ---------------------------------------------------------------------------
# Gosig
# ---------------------------------------------------------------------------
def test_gosig_commits_blocks_fault_free():
    result = _run("gosig", gossip_rounds=8, gossip_fanout=3)
    assert result.committed_blocks > 5
    assert result.throughput > 0
    assert result.average_qc_size >= ConsensusConfig(committee_size=9).quorum_size


def test_gosig_free_riders_still_reach_quorum():
    result = _run("gosig", gossip_rounds=8, gossip_fanout=3, free_rider_fraction=0.3)
    assert result.committed_blocks > 3
    assert result.average_qc_size >= ConsensusConfig(committee_size=9).quorum_size


def test_gosig_is_not_inclusive_by_design():
    """Gosig finalises at quorum: its certificates may miss correct processes."""
    gosig = _run("gosig", gossip_rounds=6, gossip_fanout=2)
    iniva = _run("iniva")
    assert gosig.average_qc_size <= iniva.average_qc_size + 1e-9


def test_gosig_free_rider_designation_is_deterministic():
    config = ConsensusConfig(committee_size=10, aggregation="gosig", free_rider_fraction=0.3)
    deployment = build_deployment(config)
    deployment.start()
    deployment.simulator.run(until=0.2)
    replica = deployment.replicas[0]
    block = next(
        block for block in replica.blocks.values() if not block.is_genesis
    )
    riders = [
        pid
        for pid, r in enumerate(deployment.replicas)
        if r.aggregator.is_free_rider(block)
    ]
    # Free-riders are a prefix of the committee minus the collector.
    expected_count = 3
    assert len(riders) in (expected_count - 1, expected_count)
    assert all(pid < expected_count for pid in riders)


# ---------------------------------------------------------------------------
# Kauri
# ---------------------------------------------------------------------------
def test_kauri_commits_blocks_fault_free():
    result = _run("kauri")
    assert result.committed_blocks > 5
    assert result.average_qc_size >= ConsensusConfig(committee_size=9).quorum_size


def test_kauri_tree_is_stable_across_views():
    """Without failures Kauri reuses one tree layout (modulo the root)."""
    config = ConsensusConfig(committee_size=13, aggregation="kauri", num_internal=3)
    deployment = build_deployment(config)
    deployment.start()
    deployment.simulator.run(until=0.3)
    replica = deployment.replicas[0]
    blocks = [block for block in replica.blocks.values() if not block.is_genesis]
    assert len(blocks) >= 2
    aggregator = replica.aggregator
    layouts = set()
    for block in blocks:
        if aggregator.reconfiguration_epoch(block) != 0:
            continue
        tree = aggregator._build_tree(block)
        layouts.add(frozenset(tree.internal_nodes) - {tree.root})
    # The internal set is a fixed prefix of one stable shuffle; it varies only
    # by which of its members is currently excluded as the root, so at most
    # num_internal + 1 distinct layouts can appear.
    assert len(layouts) <= 4


def test_kauri_reconfiguration_epoch_and_star_fallback():
    config = ConsensusConfig(
        committee_size=9, aggregation="kauri", kauri_fallback_threshold=2, num_internal=2
    )
    deployment = build_deployment(config)
    replica = deployment.replicas[0]
    aggregator = replica.aggregator

    from repro.consensus.block import Block, genesis_qc

    healthy = Block(height=5, view=5, proposer=0, parent_id="x", qc=genesis_qc(), payload=())
    assert aggregator.reconfiguration_epoch(healthy) == 0
    assert not aggregator.uses_star_fallback(healthy)
    tree = aggregator._build_tree(healthy)
    assert len(tree.internal_nodes) == 2

    degraded = Block(height=5, view=9, proposer=0, parent_id="x", qc=genesis_qc(), payload=())
    assert aggregator.reconfiguration_epoch(degraded) == 4
    assert aggregator.uses_star_fallback(degraded)
    star_tree = aggregator._build_tree(degraded)
    assert star_tree.internal_nodes == ()
    assert len(star_tree.direct_leaves) == 8


def test_kauri_recovers_from_internal_crashes():
    """Crashing internal nodes degrades Kauri but view timeouts keep it live."""
    spec = _spec(
        "kauri", duration=1.5, view_timeout=0.08, kauri_fallback_threshold=2
    ).with_(num_internal=2)
    result = _run_crashing(spec, [1, 2])
    assert result.committed_blocks > 0
