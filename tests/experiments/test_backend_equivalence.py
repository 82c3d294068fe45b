"""Signature backends must not change protocol decisions.

The ``hashsig`` fast-simulation backend exists purely so sweeps avoid
pairing math; for a fixed seed the simulation must finalize *identical*
blocks — same block ids, same views, same QC multiplicities and therefore
the same reward tallies — as the pairing-based ``bls`` reference.
"""

from __future__ import annotations

import pytest

from repro.consensus.config import ConsensusConfig
from repro.core.rewards import compute_rewards
from repro.experiments.runner import build_deployment
from repro.experiments.workloads import ClientWorkload

DURATION = 0.8
#: The bls legs of the tree and star baselines are the slowest tests here;
#: 0.5 virtual seconds still commit over 100 blocks in each.
BASELINE_DURATION = 0.5


def run_backend(
    signature_scheme: str, aggregation: str = "iniva", seed: int = 3, duration: float = DURATION
):
    config = ConsensusConfig(
        committee_size=7,
        batch_size=20,
        aggregation=aggregation,
        signature_scheme=signature_scheme,
        seed=seed,
    )
    deployment = build_deployment(config, warmup=0.2)
    workload = ClientWorkload(rate=1500, payload_size=32)
    workload.attach(deployment.simulator, deployment.mempool, duration)
    deployment.start()
    deployment.simulator.run(until=duration)
    return deployment


def decision_snapshot(deployment):
    """Everything the protocol decided, independent of signature values."""
    replica = deployment.replicas[0]
    committed = sorted(replica.committed_blocks)
    views = [r.current_view for r in deployment.replicas]
    qc_meta = {}
    reward_tallies = {}
    for block in replica.blocks.values():
        qc = block.qc
        if qc.is_genesis or qc.block_id not in replica.blocks:
            continue
        qc_meta[qc.block_id] = (qc.view, qc.height, dict(qc.aggregate.multiplicities))
        certified = replica.blocks[qc.block_id]
        tree = replica.build_tree(certified)
        distribution = compute_rewards(tree, qc.aggregate.multiplicities)
        reward_tallies[qc.block_id] = {
            pid: round(distribution.reward_of(pid), 9) for pid in tree.processes
        }
    return {
        "committed": committed,
        "views": views,
        "qc_meta": qc_meta,
        "rewards": reward_tallies,
        "operations": deployment.metrics.committed_operations(),
        "blocks": deployment.metrics.committed_blocks(),
    }


@pytest.mark.pairing
def test_bls_and_hashsig_finalize_identically():
    bls = decision_snapshot(run_backend("bls", aggregation="iniva"))
    hashsig = decision_snapshot(run_backend("hashsig", aggregation="iniva"))
    assert bls["committed"], "the bls run must commit at least one block"
    assert bls == hashsig


@pytest.mark.pairing
@pytest.mark.parametrize("aggregation", ["tree", "star"])
def test_bls_and_hashsig_finalize_identically_on_baselines(aggregation):
    bls = decision_snapshot(run_backend("bls", aggregation, duration=BASELINE_DURATION))
    hashsig = decision_snapshot(run_backend("hashsig", aggregation, duration=BASELINE_DURATION))
    assert bls["blocks"] >= 100
    assert bls == hashsig


def test_distinct_seeds_differ():
    # Sanity check that the snapshot is discriminating at all.
    a = decision_snapshot(run_backend("hashsig", seed=3))
    b = decision_snapshot(run_backend("hashsig", seed=4))
    assert a["committed"] != b["committed"]
