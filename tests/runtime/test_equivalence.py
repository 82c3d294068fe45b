"""Cross-runtime equivalence: sim and live finalize the same blocks.

The acceptance property of the sans-I/O refactor: one ``ScenarioSpec``
with a fixed seed and a *preloaded* workload (batching independent of
arrival timing) produces the identical committed block-id sequence under
the deterministic discrete-event runtime and the live asyncio TCP
cluster, for both the hashsig and the bls signature backends.

Block ids hash the full proposal contents (height, view, proposer,
parent, payload, payload bytes), so an equal id prefix means the two
runtimes agreed on every batched request of every finalized block.
"""

from __future__ import annotations

import pytest

from repro.runtime.live import LiveCluster
from repro.scenarios.engine import build_scenario_deployment, compile_scenario
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: Committed blocks compared between the runtimes.  The preloaded volume
#: (rate * duration = 4000 requests at batch 20) covers 200 full blocks,
#: far beyond the compared prefix, so no empty-batch blocks are involved.
PREFIX = 8


def _spec(signature_scheme: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"equivalence-{signature_scheme}",
        aggregation="iniva",
        signature_scheme=signature_scheme,
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=seed,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=seed),
    )


def _sim_committed_order(spec: ScenarioSpec) -> list:
    compiled = compile_scenario(spec)
    deployment = build_scenario_deployment(compiled)
    deployment.start()
    deployment.simulator.run(until=compiled.spec.duration)
    return list(deployment.mempool.committed_order)


def _live_committed_order(spec: ScenarioSpec) -> list:
    cluster = LiveCluster(spec=spec, target_blocks=PREFIX + 2, duration=20.0)
    cluster.run()
    return cluster.committed_order(0)


@pytest.mark.slow
@pytest.mark.parametrize("signature_scheme", ["hashsig", "bls"])
def test_same_spec_and_seed_finalize_same_blocks(signature_scheme):
    spec = _spec(signature_scheme, seed=7)
    sim_order = _sim_committed_order(spec)
    live_order = _live_committed_order(spec)
    assert len(sim_order) >= PREFIX, "sim run finalized too few blocks"
    assert len(live_order) >= PREFIX, "live run finalized too few blocks"
    assert sim_order[:PREFIX] == live_order[:PREFIX]


@pytest.mark.slow
def test_different_batching_finalizes_different_blocks():
    # Sanity check that the equivalence above is not vacuous: block ids
    # are payload-sensitive, so a different batch size yields a different
    # chain.
    first = _sim_committed_order(_spec("hashsig", seed=7))
    second = _sim_committed_order(_spec("hashsig", seed=7).with_(batch_size=10))
    assert first[:PREFIX] != second[:PREFIX]


@pytest.mark.slow
def test_live_committed_order_consistent_across_replicas():
    spec = _spec("hashsig", seed=7)
    cluster = LiveCluster(spec=spec, target_blocks=PREFIX + 2, duration=20.0)
    cluster.run()
    orders = [cluster.committed_order(pid) for pid in range(4)]
    shortest = min(len(order) for order in orders)
    assert shortest >= 1
    reference = orders[0][: min(shortest, PREFIX)]
    for order in orders[1:]:
        assert order[: len(reference)] == reference
