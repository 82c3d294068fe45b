"""The open-loop client layer: shard merging, spec plumbing, and e2e smoke.

The e2e tests spin up real localhost TCP clusters driven by a live
client swarm (the default, non-preloaded mode), so they use small
committees, modest rates and early stop targets.
"""

from __future__ import annotations

import pytest

from repro.clients.messages import ClientReply, ClientRequest
from repro.clients.stats import LatencyDigest
from repro.clients.swarm import ClientSwarm, merge_summaries
from repro.crypto import run_scheme
from repro.crypto.keys import Committee
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveCluster, LiveNode, run_live
from repro.scenarios.engine import compile_scenario
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _shard_summary(offset, step, issued, completed, samples, incarnation=0):
    digest = LatencyDigest()
    for sample in samples:
        digest.record(sample)
    return {
        "shard": [offset, step],
        "clients": 2,
        "incarnation": incarnation,
        "issued": issued,
        "completed": completed,
        "unresolved": issued - completed,
        "rejected_frames": {"queue-full": 1} if offset else {},
        "link_drops": 0,
        "link_connects": 4,
        "latency": digest.to_dict(),
    }


class TestSwarmUnits:
    def test_shard_arithmetic_partitions_population(self):
        addresses = {0: ("127.0.0.1", 1)}
        shards = [
            ClientSwarm(addresses, rate=100.0, num_clients=10, shard_offset=o, shard_step=3)
            for o in range(3)
        ]
        ids = sorted(cid for swarm in shards for cid in swarm.client_ids)
        assert ids == list(range(10))

    def test_invalid_shard_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            ClientSwarm({}, rate=100.0, shard_offset=2, shard_step=2)

    def test_merge_summaries_folds_counters_and_digests(self):
        merged = merge_summaries(
            [
                _shard_summary(0, 2, issued=10, completed=9, samples=[0.01] * 9),
                _shard_summary(1, 2, issued=12, completed=10, samples=[0.03] * 10),
            ]
        )
        assert merged["shards"] == 2
        assert merged["issued"] == 22
        assert merged["completed"] == 19
        assert merged["unresolved"] == 3
        assert merged["rejected_frames"] == {"queue-full": 1}
        latency = LatencyDigest.from_dict(merged["latency"])
        assert latency.count == 19
        assert 0.01 <= latency.percentile(0.5) <= 0.03


class TestWorkloadSpecPlumbing:
    def test_arrival_and_admission_fields_round_trip(self):
        spec = ScenarioSpec(
            name="plumbing",
            workload=WorkloadSpec(
                rate=500.0,
                arrival="bursty",
                burst_factor=3.0,
                arrival_period=0.5,
                max_pending=1000,
                client_window=50,
            ),
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.workload.arrival == "bursty"
        assert clone.workload.burst_factor == 3.0
        assert clone.workload.arrival_period == 0.5
        assert clone.workload.max_pending == 1000
        assert clone.workload.client_window == 50
        assert clone.workload.preload is False

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            WorkloadSpec(rate=100.0, arrival="fractal")

    def test_uniform_arrival_round_trips(self):
        spec = ScenarioSpec(name="uniform", workload=WorkloadSpec(rate=100.0, arrival="uniform"))
        assert ScenarioSpec.from_dict(spec.to_dict()).workload.arrival == "uniform"


def _open_loop_spec(**workload_overrides) -> ScenarioSpec:
    workload = dict(
        rate=400.0,
        payload_size=64,
        num_clients=8,
        seed=11,
        max_pending=50_000,
    )
    workload.update(workload_overrides)
    return ScenarioSpec(
        name="open-loop-e2e",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.5,
        warmup=0.0,
        seed=11,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(**workload),
    )


@pytest.mark.slow
def test_open_loop_task_mode_serves_swarm_traffic():
    result = run_live(_open_loop_spec(), duration=2.5)
    metrics = result.metrics
    assert metrics.committed_blocks > 0
    clients = result.clients
    assert clients["mode"] == "open-loop"
    assert clients["offered_rate"] == 400.0
    assert clients["admission"]["admitted"] > 0
    swarm = clients["swarm"]
    assert swarm["shards"] == 1
    assert swarm["clients"] == 8
    assert swarm["issued"] > 0
    assert swarm["completed"] > 0
    assert clients["goodput"] > 0
    assert clients["latency_ms"]["count"] == swarm["completed"]
    assert clients["latency_ms"]["p99_ms"] >= clients["latency_ms"]["p50_ms"] > 0


@pytest.mark.slow
def test_open_loop_procs_mode_shards_swarm_across_workers():
    cluster = LiveCluster(_open_loop_spec(), duration=2.5, procs=2)
    result = cluster.run()
    clients = result.clients
    swarm = clients["swarm"]
    assert swarm["shards"] == 2
    assert swarm["clients"] == 8  # both worker shards together cover everyone
    assert swarm["completed"] > 0
    assert clients["goodput"] > 0


@pytest.mark.slow
def test_preload_replay_mode_still_runs_without_swarm():
    spec = _open_loop_spec(preload=True)
    result = run_live(spec, target_blocks=4, duration=15.0)
    assert result.metrics.committed_blocks >= 4
    clients = result.clients
    assert clients["mode"] == "preload"
    assert "swarm" not in clients  # no client traffic on the wire
    # Replayed requests bypass admission control entirely.
    assert clients["admission"]["admitted"] == 0


@pytest.mark.slow
def test_mempool_keeps_only_uncommitted_records_after_a_run(monkeypatch):
    nodes = []
    add_node = WorkerFabric.add_node

    def collect(fabric, node):
        nodes.append(node)
        return add_node(fabric, node)

    monkeypatch.setattr(WorkerFabric, "add_node", collect)
    result = run_live(_open_loop_spec(rate=1000.0), duration=1.5)
    assert result.clients["swarm"]["completed"] > 0
    assert len(nodes) == 4
    for node in nodes:
        pool = node.mempool
        assert pool.committed_count > 0
        live_ids = {r.request_id for r in pool._pending}
        live_ids.update(r.request_id for batch in pool._in_flight.values() for r in batch)
        live_ids.update(pool._reserved)
        assert set(pool._requests) <= live_ids
        assert not any(pool.is_committed(rid) for rid in pool._requests)
        assert not any(pool.is_committed(rid) for rid in pool._reserved)


class _Writer:
    def __init__(self):
        self.frames = []

    def is_closing(self):
        return False

    def write(self, frame):
        self.frames.append(frame)


def test_resent_committed_request_still_gets_its_reply():
    spec = _open_loop_spec()
    compiled = compile_scenario(spec)
    committee = Committee(run_scheme(compiled.config.signature_scheme), 4, seed=spec.seed)
    node = LiveNode(0, compiled, committee, epoch=0.0)
    writer = _Writer()
    request = ClientRequest(request_id=42, client_id=2, payload_size=64)
    node._admit_client_request(request, writer)
    node.mempool.track_block("blk", node.mempool.next_batch(10))
    node.mempool.mark_committed("blk", (42,), time=0.1)
    assert 42 not in node.mempool._requests
    node._admit_client_request(request, writer)
    assert writer.frames == [node.codec.frame(ClientReply(request_id=42, replica=0))]
    assert node.mempool.admission["duplicate"] == 1
