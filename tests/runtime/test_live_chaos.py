"""Live-cluster integration tests for the chaos layer.

Real localhost TCP clusters under adversity: partition-with-heal,
crash-restart churn, an omission cartel whose victim is re-added through
the 2ND-CHANCE fallback, and probabilistic loss.
Committees are small and runs stop at block targets, so each test is a
couple of seconds of wall clock.
"""

from __future__ import annotations

import pytest

from repro.runtime.live import run_live
from repro.scenarios.presets import load_preset, preset_names
from repro.scenarios.spec import (
    CommitteeSpec,
    FaultSpec,
    PartitionEvent,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="live-chaos-test",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=11,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.1,
        committee=CommitteeSpec(size=5),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=11),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.mark.slow
def test_partition_heal_live():
    # Cut one replica off from 0.4 s to 0.9 s; the 4-member majority keeps
    # committing (quorum is 4 of 5), the partition shows up in the blocked
    # counter, and commits continue after heal.
    spec = _spec(
        committee=CommitteeSpec(size=5),
        faults=FaultSpec(
            partitions=(PartitionEvent(at=0.4, heal_at=0.9, groups=((0, 1, 2, 3), (4,))),)
        ),
    )
    result = run_live(spec, duration=1.6, target_blocks=10_000)
    metrics = result.metrics
    assert metrics.committed_blocks > 20
    assert metrics.message_counters["messages_blocked"] > 0
    assert metrics.message_counters["messages_dropped"] >= (
        metrics.message_counters["messages_blocked"]
    )


@pytest.mark.slow
def test_crash_restart_churn_live():
    from repro.runtime.live import LiveCluster

    spec = _spec(faults=FaultSpec(crashes=1, crash_at=0.3, restart_at=0.7))
    cluster = LiveCluster(spec=spec, duration=1.4, target_blocks=10_000)
    result = cluster.run()
    restarted = [
        s for s in cluster.node_summaries if s["transport"]["restarts"] == 1
    ]
    assert len(restarted) == 1
    # The restarted replica came back: nobody ends the run crashed.
    assert all(not s["crashed"] for s in cluster.node_summaries)
    assert result.metrics.committed_blocks > 20


@pytest.mark.slow
def test_omission_cartel_live_second_chance_fires():
    # Corrupted internal aggregators censor the victim's share; the
    # honest collector's 2ND-CHANCE fallback must re-add it (Theorem 4's
    # honest-root case), which shows up as second-chance inclusions.
    spec = _spec(committee=CommitteeSpec(size=7)).with_(
        attack={"strategy": "omission", "attackers": 2, "victim": 2}
    )
    result = run_live(spec, duration=2.0, target_blocks=30)
    assert result.attackers  # the coalition was drawn and corrupted
    assert result.metrics.committed_blocks >= 10
    assert result.metrics.second_chance_inclusions > 0


@pytest.mark.slow
def test_lossy_links_live():
    spec = _spec(topology=TopologySpec(kind="constant", intra_delay=0.0005,
                                       loss_probability=0.05))
    result = run_live(spec, duration=2.0, target_blocks=25)
    assert result.metrics.committed_blocks >= 10  # survives 5% loss
    assert result.metrics.message_counters["messages_dropped"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(preset_names()))
def test_every_builtin_preset_executes_live(name):
    # The acceptance bar: all nine presets run under runtime="live" and
    # make progress.  Quick-shrunk specs with tight block targets keep
    # each preset to a couple of wall seconds (WAN presets are dominated
    # by their shaped round trips, so their targets are the smallest).
    spec = load_preset(name)
    # Slow links (WAN round trips, thin bandwidth) stretch the 3-chain
    # commit latency, so those presets get a smaller block target and a
    # serving window big enough to reach the first commit.
    slow = spec.topology.kind in ("wan", "matrix", "rack") or (
        spec.topology.bandwidth_bytes_per_sec is not None
        and spec.topology.bandwidth_bytes_per_sec < 1_000_000
    )
    target = 2 if slow else 6
    duration = 6.0 if slow else None
    result = run_live(spec, quick=True, target_blocks=target, duration=duration)
    assert result.runtime == "live"
    assert result.metrics.committed_blocks >= 1, name
    document = result.to_dict()
    assert document["runtime"] == "live"
    assert document["spec"]["name"] == spec.name
