"""End-to-end tracing: forensic sim runs, cross-runtime parity, worker merge.

Three guarantees pinned here:

* a traced ``omission-cartel`` run yields a schema-valid trace whose
  forensic report names the omitted shares and 2ND-CHANCE recoveries;
* **trace parity** — the same spec+seed emits the same logical
  consensus event sequence (propose/qc_formed/commit per replica, over
  the common committed prefix) under the sim and the live runtime;
* **worker merge** — with ``--procs`` the per-worker tracer and metrics
  snapshots ride the summary channel and fold into one coherent trace
  and registry.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.observe import trace_document, validate_trace
from repro.observe.report import critical_path, forensic_report
from repro.runtime.live import LiveCluster
from repro.scenarios.engine import build_scenario_deployment, compile_scenario
from repro.scenarios.presets import load_preset
from repro.scenarios.spec import (
    CommitteeSpec,
    ObserveSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

#: Committed blocks compared between runtimes (see test_equivalence.py —
#: the preloaded workload finalizes far more than this on both sides).
PREFIX = 6

#: The logical (deterministic) subset of the taxonomy: these carry block
#: ids pinned identical across runtimes at fixed spec+seed, unlike e.g.
#: share arrivals whose interleaving is real-network timing.
_LOGICAL = ("propose", "qc_formed", "commit")


def _parity_spec(seed: int = 7) -> ScenarioSpec:
    return ScenarioSpec(
        name="trace-parity",
        aggregation="iniva",
        signature_scheme="hashsig",
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
        observe=ObserveSpec(enabled=True),
    )


def _logical_sequences(events, block_prefixes):
    """Per-pid ordered (type, block) subsequences over the compared blocks."""
    by_pid = {}
    for event in events:
        if event["type"] not in _LOGICAL:
            continue
        if event.get("block") not in block_prefixes:
            continue
        by_pid.setdefault(event["pid"], []).append((event["type"], event["block"]))
    return by_pid


@pytest.mark.slow
def test_traced_omission_cartel_sim_run_is_forensically_complete():
    result = api.run("omission-cartel", quick=True, overrides={"observe.enabled": True})
    observability = result.observability
    assert observability["enabled"] is True
    assert observability["run_id"] == f"{result.spec.name}-{result.seed}"

    document = trace_document(
        observability["trace"], spec_name=result.spec.name, seed=result.seed, runtime="sim"
    )
    assert validate_trace(document) == []

    events = document["events"]
    requests = [
        e for e in events if e["type"] == "second_chance" and e.get("phase") == "request"
    ]
    recoveries = [
        e for e in events if e["type"] == "second_chance" and e.get("phase") == "recovered"
    ]
    assert requests, "the cartel's omissions never triggered a 2ND-CHANCE request"
    assert all(e["missing"] for e in requests)
    # Recovered share counts in the trace reconcile with the metric the
    # protocol already reported — the trace is evidence, not a new story.
    assert sum(e["added"] for e in recoveries) == result.metrics.second_chance_inclusions

    paths = critical_path(events)
    assert paths, "no block had enough milestones for a critical path"
    report = forensic_report(document, paths=paths)
    assert "2ND-CHANCE rounds fired; shares repeatedly missing from: replica" in report
    assert "previously-omitted share(s) back into QCs" in report

    # The registry snapshot rides along and agrees with the run result.
    counters = observability["metrics"]["counters"]
    assert counters["consensus.committed_blocks"] == result.metrics.committed_blocks
    assert (
        counters["consensus.second_chance_inclusions"]
        == result.metrics.second_chance_inclusions
    )


@pytest.mark.slow
def test_sim_and_live_emit_the_same_logical_event_sequence():
    spec = _parity_spec()

    compiled = compile_scenario(spec)
    deployment = build_scenario_deployment(compiled)
    deployment.start()
    deployment.simulator.run(until=compiled.spec.duration)
    sim_events = deployment.metrics.tracer.events()
    sim_order = list(deployment.mempool.committed_order)

    cluster = LiveCluster(spec=spec, target_blocks=PREFIX + 2, duration=20.0)
    live_result = cluster.run()
    live_events = live_result.observability["trace"]["events"]
    live_order = cluster.committed_order(0)

    # Precondition (pinned independently by test_equivalence.py): the two
    # runtimes finalized the same prefix.
    assert len(sim_order) >= PREFIX and len(live_order) >= PREFIX
    assert sim_order[:PREFIX] == live_order[:PREFIX]
    prefixes = {block_id[:12] for block_id in sim_order[:PREFIX]}

    sim_logical = _logical_sequences(sim_events, prefixes)
    live_logical = _logical_sequences(live_events, prefixes)
    assert set(sim_logical) == set(live_logical) != set()
    for pid in sorted(sim_logical):
        assert sim_logical[pid] == live_logical[pid], f"replica {pid} diverged"

    # Both streams validate against the same schema.
    for runtime, snapshot in (
        ("sim", deployment.metrics.tracer.snapshot()),
        ("live", live_result.observability["trace"]),
    ):
        document = trace_document(snapshot, spec_name=spec.name, seed=spec.seed,
                                  runtime=runtime)
        assert validate_trace(document) == []


@pytest.mark.slow
def test_procs_workers_merge_traces_and_metrics_through_the_summary_channel():
    spec = load_preset("rack-baseline").with_(
        committee={"size": 6},
        workload={"preload": True, "seed": 5},
        observe={"enabled": True},
    )
    cluster = LiveCluster(spec=spec, procs=2, target_blocks=3, duration=20.0)
    result = cluster.run()

    observability = result.observability
    assert observability["enabled"] is True
    document = trace_document(
        observability["trace"], spec_name=spec.name, seed=spec.seed, runtime="live"
    )
    assert validate_trace(document) == []
    # Replicas hosted on *both* workers contributed events: round-robin
    # placement puts even pids on worker 0 and odd pids on worker 1.
    pids = {event["pid"] for event in document["events"]}
    assert pids & {0, 2, 4}, "no events from worker 0's replicas"
    assert pids & {1, 3, 5}, "no events from worker 1's replicas"

    # Merged registry counters reconcile with the per-replica telemetry
    # that reached the parent through the same summary channel.
    counters = observability["metrics"]["counters"]
    assert counters["transport.messages_sent"] == sum(
        c["messages_sent"] for c in result.transport.values()
    )
    assert counters["consensus.committed_blocks"] == sum(
        s["committed_blocks"] for s in cluster.node_summaries
    )
    assert counters["consensus.committed_blocks"] >= 3
