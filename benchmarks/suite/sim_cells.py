"""The simulated workload: n=100, ten crashed replicas, Poisson clients in
virtual time.

Driven through ``api.deploy`` (the documented escape hatch) rather than
``api.run``, because the safety checkers and the exact counts need the
finished deployment; the steps in between are the ones ``api.run`` takes.
For a fixed seed every count here is exact — only the wall clock varies.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Tuple

from repro import api
from repro.analysis.properties import check_fulfillment, check_no_forks
from repro.experiments.runner import Deployment, ExperimentResult, summarise
from repro.scenarios.spec import ScenarioSpec

import layers
from spans import SpanRecorder
from workloads import SIM_VIRTUAL_PER_SECOND, Workload, sim_spec

Check = Tuple[str, bool, str]
#: Deployments timed for ``setup_s`` in one untraced run.
SETUP_DEPLOYS = 5
#: Total virtual seconds of each short determinism probe.
_PROBE_SECONDS = 1.5


def run_sim(spec: ScenarioSpec) -> Dict[str, Any]:
    """Deploy, run to the spec's duration and summarise one simulation."""
    started = time.perf_counter()
    deployment = api.deploy(spec)
    deployed = time.perf_counter()
    cpu_before = time.process_time()
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    result = summarise(deployment, spec.duration)
    finished = time.perf_counter()
    return {
        "deployment": deployment,
        "result": result,
        "setup_s": deployed - started,
        "wall_s": finished - deployed,
        "cpu_s": time.process_time() - cpu_before,
        "window": (deployed, finished),
    }


def exact_counts(deployment: Deployment, result: ExperimentResult) -> Dict[str, Any]:
    """Everything a fixed seed must reproduce bit for bit."""
    return {
        "committed_blocks": result.committed_blocks,
        "committed_operations": result.committed_operations,
        "total_views": result.total_views,
        "successful_views": result.successful_views,
        "average_qc_size": result.average_qc_size,
        "second_chance_inclusions": result.second_chance_inclusions,
        "latency": result.latency.to_dict(),
        "messages": dict(result.message_counters),
        "events": deployment.simulator.events_processed,
        "chain": list(deployment.mempool.committed_order),
    }


def _avoidable_view_failures(deployment: Deployment, result: ExperimentResult) -> int:
    """Timed-out views beyond those a crashed leader or collector forces.

    A view cannot succeed when its leader is down (no proposal) or the next
    leader is (nobody collects the votes), so with a tenth of the
    committee crashed about a fifth of all views fail by construction.
    Only failures beyond that count against the program.
    """
    crashed = {replica.process_id for replica in deployment.replicas if replica.crashed}
    witness = deployment.correct_replicas()[0]
    doomed = sum(
        1
        for view in range(1, result.total_views + 1)
        if witness.leader_of(view) in crashed or witness.leader_of(view + 1) in crashed
    )
    return max(0, (result.total_views - result.successful_views) - doomed)


def _sim_numbers(sim: Dict[str, Any]) -> Dict[str, Any]:
    deployment: Deployment = sim["deployment"]
    result: ExperimentResult = sim["result"]
    live = len(deployment.correct_replicas())
    all_blocks = len(deployment.mempool.committed_order)  # warm-up included, like the wall clock
    mempool = deployment.mempool
    return {
        "end_to_end": {
            "blocks_per_s": all_blocks / sim["wall_s"],
            "goodput_ops_per_s": mempool.committed_count / sim["wall_s"],
            "cpu_ms_per_block": 1000.0 * sim["cpu_s"] / max(all_blocks, 1),
            "qc_inclusion_pct": 100.0 * result.average_qc_size / live,
            "views_ok_pct": 100.0 * (1.0 - result.failed_view_fraction),
            "commit_latency_p50_ms": 1000.0 * result.latency.median,
            "commit_latency_p99_ms": 1000.0 * result.latency.p99,
        },
        "virtual_blocks_per_s": result.committed_blocks / deployment.metrics.measurement_duration,
        "all_blocks": all_blocks,
        "inflight_at_end_ops": mempool.submitted_count - mempool.committed_count - mempool.pending_count,
    }


def _safety_checks(deployment: Deployment) -> List[Check]:
    forks = check_no_forks(deployment)
    quorums = check_fulfillment(deployment)
    return [
        ("no two replicas commit different blocks at a height", forks.holds, "; ".join(forks.violations[:3])),
        ("every QC holds a quorum", quorums.holds, "; ".join(quorums.violations[:3])),
    ]


def _determinism_checks(workload: Workload, seed: int) -> List[Check]:
    def probe(probe_seed: int) -> Dict[str, Any]:
        sim = run_sim(sim_spec(workload, probe_seed, _PROBE_SECONDS))
        return exact_counts(sim["deployment"], sim["result"])

    first, again, other = probe(seed), probe(seed), probe(seed + 1)
    return [
        ("one seed, two runs: identical exact counts", first == again, "counts differ between two runs of one seed"),
        ("another seed: a different schedule", first["chain"] != other["chain"], "seed does not reach the schedule"),
    ]


def measure_sim(workload: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The untraced run: the measured simulation, extra deployments for
    ``setup_s`` and the determinism probes."""
    spec = sim_spec(workload, seed, SIM_VIRTUAL_PER_SECOND * seconds)
    sim = run_sim(spec)
    setups = [sim["setup_s"]]
    for _ in range(0 if quick else SETUP_DEPLOYS - 1):
        started = time.perf_counter()
        api.deploy(spec)
        setups.append(time.perf_counter() - started)
    numbers = _sim_numbers(sim)
    result: ExperimentResult = sim["result"]
    counts = exact_counts(sim["deployment"], result)
    del counts["chain"]
    return {
        "end_to_end": numbers["end_to_end"],
        "setup_samples": setups,
        "attempted": result.total_views,
        "failed": _avoidable_view_failures(sim["deployment"], result),
        "checks": _safety_checks(sim["deployment"]) + _determinism_checks(workload, seed),
        "detail": {
            "virtual_seconds": spec.duration,
            "wall_s": sim["wall_s"],
            "exact": counts,
            "virtual_blocks_per_s": numbers["virtual_blocks_per_s"],
            "latency_samples": result.latency.count,
            "inflight_at_end_ops": numbers["inflight_at_end_ops"],
        },
    }


def trace_sim(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: untraced and traced half-length Iniva runs, then the
    same spec with star aggregation as the recorded baseline."""
    virtual = SIM_VIRTUAL_PER_SECOND * seconds / 2.0
    plain = run_sim(sim_spec(workload, seed, virtual))
    recorder = SpanRecorder()
    layers.install(recorder, workload.scheme, "iniva")
    try:
        traced = run_sim(sim_spec(workload, seed, virtual, observe=True))
    finally:
        recorder.restore()
    star = run_sim(sim_spec(workload, seed, virtual, aggregation="star"))

    numbers = _sim_numbers(traced)
    star_numbers = _sim_numbers(star)
    deployment: Deployment = traced["deployment"]
    result: ExperimentResult = traced["result"]
    blocks = numbers["all_blocks"]
    start, end = traced["window"]
    per_layer = layers.budget(recorder.totals(start, end), blocks, deployment.mempool.committed_count, end - start)
    tracer = deployment.metrics.tracer
    per_layer.update(
        layers.reported(dataclasses.replace(result, observability={"trace": tracer.snapshot()}))
    )
    counters = result.message_counters
    events = deployment.simulator.events_processed
    per_layer.update({
        "crypto.keygen_s": recorder.totals(end=start).get("crypto.keygen", {}).get("total_s", 0.0),
        "mempool.inflight_at_end_ops": float(numbers["inflight_at_end_ops"]),
        "simnet.events_per_block": events / blocks,
        "simnet.events_per_wall_s": events / traced["wall_s"],
        "simnet.msgs_per_block": counters["messages_sent"] / blocks,
        "simnet.bytes_per_block": counters["bytes_sent"] / blocks,
        "simnet.msgs_dropped": float(counters["messages_dropped"]),
        "simnet.virtual_blocks_per_s": numbers["virtual_blocks_per_s"],
        "baseline.star.qc_inclusion_pct": star_numbers["end_to_end"]["qc_inclusion_pct"],
        "baseline.star.virtual_blocks_per_s": star_numbers["virtual_blocks_per_s"],
        "baseline.star.blocks_per_s": star_numbers["end_to_end"]["blocks_per_s"],
        "baseline.star.msgs_per_block": star["result"].message_counters["messages_sent"] / star_numbers["all_blocks"],
        "observe.overhead_pct": 100.0 * (1.0 - plain["wall_s"] / traced["wall_s"]),
    })
    plain_counts = exact_counts(plain["deployment"], plain["result"])
    traced_counts = exact_counts(deployment, result)
    checks = _safety_checks(deployment) + _safety_checks(star["deployment"])
    checks.append(("tracing does not change the schedule", plain_counts == traced_counts,
                   "traced and untraced runs of one seed differ"))
    return {
        "per_layer": per_layer,
        "attempted": result.total_views,
        "failed": _avoidable_view_failures(deployment, result),
        "checks": checks,
        "detail": {
            "virtual_seconds": virtual,
            "iniva_qc_inclusion_pct": numbers["end_to_end"]["qc_inclusion_pct"],
            "star_qc_inclusion_pct": star_numbers["end_to_end"]["qc_inclusion_pct"],
            "iniva_virtual_blocks_per_s": numbers["virtual_blocks_per_s"],
            "star_virtual_blocks_per_s": star_numbers["virtual_blocks_per_s"],
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
        },
    }
