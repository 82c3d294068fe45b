"""Live asyncio runtime: cluster smoke tests and schema checks.

These spin up real localhost TCP clusters (task mode, and one subprocess
worker check), so they are small committees with early stop targets.
"""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.results import RESULT_SCHEMA, RunResult
from repro.runtime.live import LiveCluster, run_live, validate_live_spec
from repro.scenarios.presets import load_preset, preset_names
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="live-test",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=11,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=11),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.mark.slow
def test_four_replica_cluster_finalizes_blocks():
    result = run_live(_small_spec(), target_blocks=6, duration=15.0)
    assert isinstance(result, RunResult)
    assert result.runtime == "live"
    assert result.metrics.committed_blocks >= 6
    assert result.metrics.successful_views >= 6
    assert result.metrics.throughput > 0
    assert result.wall_clock_seconds is not None and result.wall_clock_seconds > 0


@pytest.mark.slow
def test_live_result_schema_round_trips():
    result = run_live(_small_spec(), target_blocks=4, duration=15.0)
    document = result.to_dict()
    assert document["schema"] == RESULT_SCHEMA
    assert document["runtime"] == "live"
    restored = RunResult.from_dict(document)
    assert restored.runtime == "live"
    assert restored.metrics.committed_blocks == result.metrics.committed_blocks
    # Per-replica transport counters are present for the whole committee
    # and every replica actually exchanged messages.
    assert sorted(result.transport) == [str(pid) for pid in range(4)]
    for counters in result.transport.values():
        assert counters["messages_sent"] > 0
    # Fabric routing health rides the transport roll-up; a clean cluster
    # never misroutes a frame or re-delivers a session envelope.
    assert result.metrics.message_counters["frames_unroutable"] == 0
    assert result.metrics.message_counters["frames_duplicate"] == 0


@pytest.mark.slow
def test_live_aggregation_schemes_star_and_tree():
    for aggregation in ("star", "tree"):
        result = run_live(
            _small_spec(aggregation=aggregation), target_blocks=4, duration=15.0
        )
        assert result.metrics.committed_blocks >= 4, aggregation


@pytest.mark.slow
def test_live_crash_fault_still_finalizes():
    spec = _small_spec(committee=CommitteeSpec(size=5)).with_(
        faults={"crashes": 1, "crash_at": 0.0, "protect_leader": True}
    )
    result = run_live(spec, target_blocks=4, duration=15.0)
    assert result.metrics.committed_blocks >= 4
    # The crashed replica stops participating: QCs stay below full size.
    assert result.metrics.average_qc_size <= 5


@pytest.mark.slow
def test_procs_mode_spreads_replicas_over_workers():
    cluster = LiveCluster(spec=_small_spec(), duration=2.5, target_blocks=4, procs=2)
    result = cluster.run()
    assert result.metrics.committed_blocks >= 1
    assert len(cluster.node_summaries) == 4


@pytest.mark.slow
@pytest.mark.timeout(60)
@pytest.mark.parametrize("seed", [1, 3])
def test_procs_workers_stop_together(seed):
    # The worker whose replica reaches the target reports stop and the
    # parent relays it: the other worker, a block short and now without a
    # quorum, must not idle to the wall cap (no quiescence watchdog here).
    spec = _small_spec(
        seed=seed,
        topology=TopologySpec(kind="constant", intra_delay=0.010),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=seed),
    )
    assert spec.resilience.quiesce_after is None
    cluster = LiveCluster(spec=spec, duration=8.0, target_blocks=30, procs=2)
    started = time.monotonic()
    cluster.run()
    wall = time.monotonic() - started
    elapsed = [summary["elapsed"] for summary in cluster.node_summaries]
    assert max(elapsed) - min(elapsed) <= 0.25, elapsed
    assert wall < 5.0


@pytest.mark.slow
def test_api_run_live_and_deploy_live():
    result = api.run(_small_spec(), runtime="live", target_blocks=4, duration=15.0)
    assert result.runtime == "live"
    cluster = api.deploy(load_preset("rack-baseline"), quick=True, runtime="live")
    assert isinstance(cluster, LiveCluster)  # not started yet
    assert cluster.node_summaries == []


def test_api_run_rejects_unknown_runtime():
    with pytest.raises(ValueError, match="unknown runtime"):
        api.run(_small_spec(), runtime="fpga")
    with pytest.raises(TypeError, match="sim runtime"):
        api.run(_small_spec(), target_blocks=3)


def test_capability_validation_accepts_every_preset_in_task_mode():
    # Since the chaos layer landed, every built-in preset — partitions,
    # loss, WAN shaping, omission cartels, crash/restart — validates for the live
    # runtime in task mode.
    for name in preset_names():
        validate_live_spec(load_preset(name))


def test_capability_validation_rejects_fault_driver_under_procs():
    # Regression for the genuinely unsupported shape: the scheduled fault
    # driver coordinates in-process, so chaos spec fields are rejected
    # under worker-subprocess mode — naming the offending fields.
    with pytest.raises(ValueError, match="faults.partitions"):
        validate_live_spec(load_preset("partition-heal"), procs=2)
    with pytest.raises(ValueError, match="attack.strategy"):
        validate_live_spec(load_preset("omission-cartel"), procs=2)
    with pytest.raises(ValueError, match="faults.restart_at"):
        validate_live_spec(
            load_preset("crash-storm").with_(faults={"restart_at": 3.0}), procs=2
        )
    # Clean and shaped-only specs still run under procs.
    validate_live_spec(load_preset("rack-baseline"), procs=2)
    validate_live_spec(load_preset("lossy-wan"), procs=2)
    validate_live_spec(load_preset("crash-storm"), procs=2)


@pytest.mark.slow
def test_transport_schema_comparable_across_runtimes():
    # The satellite guarantee behind RunResult.transport: both substrates
    # count messages/bytes once at the framing layer and emit the same
    # per-replica keys, so sim and live runs can be diffed directly.
    spec = _small_spec()
    live = run_live(spec, target_blocks=4, duration=15.0)
    sim = api.run(spec)
    expected = {
        "messages_sent",
        "messages_received",
        "bytes_sent",
        "messages_dropped",
        "messages_delayed",
        "restarts",
    }
    for result in (live, sim):
        assert sorted(result.transport) == [str(pid) for pid in range(4)]
        for counters in result.transport.values():
            assert set(counters) == expected
    assert set(live.metrics.message_counters) == set(sim.metrics.message_counters)
    assert "messages_blocked" in live.metrics.message_counters


def test_cli_live_verb(capsys):
    from repro.cli import main

    exit_code = main(
        ["live", "rack-baseline", "--quick", "--target-blocks", "4", "--format", "json"]
    )
    assert exit_code == 0
    import json

    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == RESULT_SCHEMA
    assert document["runtime"] == "live"
    assert document["metrics"]["committed_blocks"] >= 1
