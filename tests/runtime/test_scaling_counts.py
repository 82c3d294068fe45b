"""The one-loop cluster's per-tick and per-block work, by counts not clocks.

A task-mode cluster hosts all n replicas in one process.  What each of
them does *about the others* must stay linear in n: a fault-free
maintenance tick feeds no failure detector at all, and a block's share
values are computed once, not once per replica re-checking the same QC.
The counts come from wrapping the methods themselves, so they hold on
any host at any speed.

A colocated peer enters phi-accrual only while crashed or partitioned
away; the last two tests pin that a fault still raises — and its
recovery or heal still clears — a suspicion (the colocated twins of
``test_crash_restart_catches_up_live``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.crypto.multisig import HashSigMultiSig
from repro.resilience.detector import PhiAccrualDetector
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveCluster
from repro.scenarios.presets import load_preset
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

TARGET_BLOCKS = 40


def _count(monkeypatch, calls: Counter, cls: type, method: str) -> None:
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        calls[method] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)


def _fault_free_counts(monkeypatch, size: int) -> Counter:
    """Run ``TARGET_BLOCKS`` blocks at committee size ``size``; the calls made."""
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        _count(patch, calls, PhiAccrualDetector, "heartbeat")
        _count(patch, calls, PhiAccrualDetector, "phi")
        _count(patch, calls, HashSigMultiSig, "_share_value")
        _count(patch, calls, WorkerFabric, "_watch_hosted")
        spec = ScenarioSpec(
            name=f"scaling-counts-n{size}",
            aggregation="iniva",
            signature_scheme="hashsig",
            batch_size=10,
            duration=10.0,
            warmup=0.0,
            seed=5,
            delta=0.0025,
            second_chance_timeout=0.005,
            view_timeout=1.0,
            committee=CommitteeSpec(size=size),
            topology=TopologySpec(kind="constant", intra_delay=0.0005),
            workload=WorkloadSpec(rate=100.0, payload_size=64, preload=True, seed=5),
        )
        result = LiveCluster(spec=spec, duration=30.0, target_blocks=TARGET_BLOCKS).run()
    assert result.metrics.committed_blocks >= TARGET_BLOCKS
    assert result.metrics.failed_view_fraction == 0.0
    calls["blocks"] = result.metrics.committed_blocks
    return calls


@pytest.mark.slow
@pytest.mark.timeout(120)
def test_per_tick_and_per_block_work_is_linear_in_n(monkeypatch):
    counts = {size: _fault_free_counts(monkeypatch, size) for size in (8, 32)}
    for size, calls in counts.items():
        ticks = calls["_watch_hosted"]
        assert ticks > 0, "the maintenance tick never ran"
        # Direct observation cost n(n-1) heartbeats and as many phi
        # evaluations per tick; nobody is silent here, so nothing is fed.
        detector_calls = calls["heartbeat"] + calls["phi"]
        assert detector_calls / ticks <= size, (size, dict(calls))
        # Signing, each collector's share checks and a 2ND-CHANCE round
        # are each at most n share values a block (2.5n-3n measured); n
        # replicas recomputing every signer's share for the same QC was
        # n² (11n at n=8, 36n at n=32).
        assert calls["_share_value"] / calls["blocks"] <= 6 * size, (size, dict(calls))


def _suspicions_of(cluster: LiveCluster, observer: int, peer: int):
    summary = next(s for s in cluster.node_summaries if s["pid"] == observer)
    return [s for s in summary["resilience"]["suspicions"] if s["peer"] == peer]


@pytest.mark.slow
@pytest.mark.timeout(60)
def test_colocated_crash_raises_and_recovery_clears():
    spec = load_preset("crash-restart").with_(
        duration=2.0, faults={"crashes": 1, "crash_at": 0.4, "restart_at": 1.2}
    )
    cluster = LiveCluster(spec=spec)
    cluster.run()
    (restarted,) = [s for s in cluster.node_summaries if s["transport"]["restarts"] == 1]
    record = restarted["resilience"]
    crashed_at, recovered_at = record["crashed_at"], record["recovered_at"]
    assert crashed_at < recovered_at
    observers = [s["pid"] for s in cluster.node_summaries if s["pid"] != restarted["pid"]]
    for observer in observers:
        # Exactly one down window per observer, opened after the crash
        # (phi needs a few silent ticks) and closed by the recovery.
        (suspicion,) = _suspicions_of(cluster, observer, restarted["pid"])
        assert crashed_at < suspicion["raised_at"] < recovered_at
        assert suspicion["cleared_at"] is not None
        assert recovered_at <= suspicion["cleared_at"] <= recovered_at + 0.5
        # ... and nobody suspects a healthy colocated peer.
        for other in observers:
            assert not _suspicions_of(cluster, observer, other)
    # The restarted replica saw nothing while down and blames nobody.
    assert not restarted["resilience"]["suspicions"]
    assert record["time_to_rejoin"] is not None


@pytest.mark.slow
@pytest.mark.timeout(60)
def test_colocated_partition_raises_and_heal_clears():
    at, heal_at = 0.4, 1.2
    majority, minority = [0, 1, 2, 3, 4], [5, 6]
    spec = load_preset("partition-heal").with_(
        duration=2.0,
        warmup=0.0,
        committee={"size": 7},
        faults={"partitions": [{"at": at, "heal_at": heal_at, "groups": [majority, minority]}]},
    )
    cluster = LiveCluster(spec=spec)
    result = cluster.run()
    assert result.metrics.committed_blocks > 0
    for side, far_side in ((majority, minority), (minority, majority)):
        for observer in side:
            for peer in far_side:
                (suspicion,) = _suspicions_of(cluster, observer, peer)
                assert at < suspicion["raised_at"] < heal_at
                assert suspicion["cleared_at"] is not None
                assert heal_at <= suspicion["cleared_at"] <= heal_at + 0.5
            # Same-side peers stayed reachable throughout.
            for peer in side:
                assert not _suspicions_of(cluster, observer, peer)
