"""What a live replica's mempool keeps once a preload has run.

Every replica of a task-mode cluster holds its own replicated pool, so
what one pool keeps per request is multiplied by the committee size.
After a preloaded run the pools hold no per-id record of a preloaded
request (the preload stays one shared segment) and only a few batches of
committed ids above their floor.  The live counterpart of
``tests/consensus/test_retained_state.py``.
"""

from __future__ import annotations

import pytest

from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import run_live
from repro.scenarios.spec import CommitteeSpec, ScenarioSpec, TopologySpec, WorkloadSpec

N = 8
BATCH = 10
BLOCKS = 220


@pytest.mark.slow
@pytest.mark.timeout(120)
def test_pools_keep_only_live_state_after_a_preloaded_run(monkeypatch):
    nodes = []
    add_node = WorkerFabric.add_node

    def collect(fabric, node):
        nodes.append(node)
        return add_node(fabric, node)

    monkeypatch.setattr(WorkerFabric, "add_node", collect)
    preload = (BLOCKS + 50) * BATCH
    spec = ScenarioSpec(
        name="live-retained-state",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=BATCH,
        duration=10.0,
        warmup=0.0,
        seed=5,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.5,
        committee=CommitteeSpec(size=N),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=preload / 10.0, payload_size=64, preload=True, seed=5),
    )
    result = run_live(spec, target_blocks=BLOCKS, duration=60.0)
    assert result.metrics.committed_blocks >= BLOCKS
    assert len(nodes) == N
    for node in nodes:
        pool = node.mempool
        assert pool.submitted_count == preload
        assert not pool._requests
        assert len(pool._committed) <= 3 * BATCH
        assert pool.committed_count == node.metrics.committed_operations() > 0
