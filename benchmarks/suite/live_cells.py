"""Live-runtime measurements: the three saturated workloads and the
open-loop client ladder.

The program is driven through ``LiveCluster`` only.  A task-mode cluster
builds its fabric inside ``LiveCluster.run()``, so the harness reaches it
the one way an outside caller can: it stands in front of the public
``serve_window`` for the length of a run and hangs a :class:`ClusterProbe`
on replica 0 — one time stamp per committed block, nothing else.  Worker
subprocesses (``procs2-n16``) are out of reach; that workload is measured
from its ``RunResult`` and per-replica summaries alone.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.runtime.live as live_runtime
from repro.results import RunResult
from repro.runtime.live import LiveCluster
from repro.scenarios.spec import ScenarioSpec

import layers
from metrics import LADDER_RATES, OVERLOAD_RATE, REFERENCE_RATE
from spans import SpanRecorder
from stats import digest_percentile, quartiles, segment_rates, summarize_digest
from workloads import BATCH_SIZE, Workload, live_spec

#: Client-latency limit a ladder rate must meet at p99 to count as in-SLO.
SLO_P99_MS = 100.0
#: Independent passes (fresh cluster each) of one untraced saturated run.
PASSES = 3
#: Reference-rate and overload stages of one untraced ladder run, and the
#: share of ``--seconds`` each stage of a kind gets.
REFERENCE_STAGES, REFERENCE_SHARE = 6, 1.0 / 12.0
OVERLOAD_STAGES, OVERLOAD_SHARE = 2, 1.0 / 4.0
#: Wall cap of one saturated pass.  Runs end on their block target; a run
#: that hits the cap instead fails its "reached the target" check.
RUN_CAP_SECONDS = 45.0
Check = Tuple[str, bool, str]


class ClusterProbe:
    """What the harness records of one task-mode cluster from outside."""

    def __init__(self) -> None:
        self.nodes: List[Any] = []
        self.protocol_started: Optional[float] = None  # perf_counter
        self.cpu_at_start = 0.0
        #: ``(perf_counter, process_time)`` at each first commit on replica 0.
        self.commits: List[Tuple[float, float]] = []

    def attach(self, fabric: Any) -> None:
        self.nodes = fabric.node_list
        observer = self.nodes[0]
        start_protocol = observer.start_protocol

        def stamped_start(*args: Any, **kwargs: Any) -> Any:
            self.protocol_started = time.perf_counter()
            self.cpu_at_start = time.process_time()
            return start_protocol(*args, **kwargs)

        observer.start_protocol = stamped_start
        mark_committed = observer.mempool.mark_committed
        commits = self.commits

        def stamped_commit(*args: Any, **kwargs: Any) -> bool:
            first = mark_committed(*args, **kwargs)
            if first:
                commits.append((time.perf_counter(), time.process_time()))
            return first

        observer.mempool.mark_committed = stamped_commit


@contextlib.contextmanager
def probing(probe: ClusterProbe) -> Iterator[None]:
    """Attach ``probe`` to the fabric of the next task-mode cluster."""
    serve_window = live_runtime.serve_window

    async def probed(fabric: Any, *args: Any, **kwargs: Any) -> Any:
        probe.attach(fabric)
        return await serve_window(fabric, *args, **kwargs)

    live_runtime.serve_window = probed
    try:
        yield
    finally:
        live_runtime.serve_window = serve_window


def _tree_cpu() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class ClusterRun:
    result: RunResult
    probe: ClusterProbe
    setup_s: float
    cpu_s: float  # process tree, whole bring-up/serve/tear-down cycle
    #: Per-replica summaries (``LiveCluster.node_summaries``).
    nodes: List[Dict[str, Any]]


def run_cluster(
    spec: ScenarioSpec, *, duration: float, target_blocks: Optional[int] = None, procs: int = 1
) -> ClusterRun:
    """One bring-up → serve → tear-down cycle of a live cluster."""
    probe = ClusterProbe()
    # A torn-down cluster is cyclic garbage: collect it now, not in the
    # middle of the next cluster's measured window.
    gc.collect()
    cpu_before = _tree_cpu()
    started = time.perf_counter()
    with probing(probe):
        cluster = LiveCluster(
            spec=spec, duration=duration, target_blocks=target_blocks, procs=procs
        )
        result = cluster.run()
    wall = time.perf_counter() - started
    if probe.protocol_started is not None:
        setup = probe.protocol_started - started
    else:
        # Worker processes: everything that is not the serving window
        # (spawn, start barrier, result collection).
        setup = wall - result.metrics.duration
    return ClusterRun(
        result=result,
        probe=probe,
        setup_s=setup,
        cpu_s=_tree_cpu() - cpu_before,
        nodes=cluster.node_summaries,
    )


def _prefix_check(run: ClusterRun) -> Check:
    orders = [node["committed_order"] for node in run.nodes]
    longest = max(orders, key=len)
    bad = [i for i, order in enumerate(orders) if list(order) != list(longest[: len(order)])]
    return ("committed orders are prefixes of one chain", not bad, f"diverging replicas: {bad}")


def _quorum_check(run: ClusterRun, size: int) -> Check:
    quorum = (2 * size) // 3 + 1
    if run.probe.nodes:
        sizes = [s for node in run.probe.nodes for s in node.metrics.qc_sizes()]
        smallest = min(sizes, default=0)
        return ("every QC holds a quorum", smallest >= quorum, f"smallest {smallest} of {len(sizes)}, quorum {quorum}")
    mean = run.result.metrics.average_qc_size
    return ("mean QC size holds a quorum", mean >= quorum, f"mean {mean:.2f}, quorum {quorum}")


def _labelled(label: str, checks: Sequence[Check]) -> List[Check]:
    return [(f"{label}: {name}", ok, why) for name, ok, why in checks]


def _shared(workload: Workload, run: ClusterRun) -> Dict[str, float]:
    """End-to-end numbers read the same way off every live ``RunResult``."""
    metrics = run.result.metrics
    return {
        "qc_inclusion_pct": 100.0 * metrics.average_qc_size / workload.size,
        "views_ok_pct": 100.0 * (1.0 - metrics.failed_view_fraction),
    }


# ---------------------------------------------------------------------------
# Saturated closed-loop workloads
# ---------------------------------------------------------------------------
def saturated_pass(
    workload: Workload, seed: int, measured: int, *, observe: bool = False
) -> Dict[str, Any]:
    """Bring a cluster up, run warm-up + ``measured`` blocks, read
    everything off it."""
    warm = workload.warmup_blocks
    total = warm + measured
    spec = live_spec(workload, seed, blocks=total, observe=observe)
    # Replica 0 is the observer, but any replica reaching the target stops
    # the run; a few blocks of slack let the observer get there too.
    run = run_cluster(
        spec, duration=RUN_CAP_SECONDS, target_blocks=total + 5, procs=workload.procs
    )
    metrics = run.result.metrics
    stamps = run.probe.commits
    detail: Dict[str, Any] = {"setup_s": run.setup_s, "warmup_blocks": warm}
    if run.probe.nodes:
        reached = len(stamps) >= total
        if len(stamps) < 2:
            raise RuntimeError(f"{workload.name}: the cluster committed {len(stamps)} blocks")
        window = stamps[warm - 1 : total] if reached else stamps
        wall_s = window[-1][0] - window[0][0]
        cpu_s = window[-1][1] - window[0][1]
        blocks = len(window) - 1
        # The whole-window rate is the reported one: on a host whose speed
        # drifts it repeats better than the median of a dozen segments.
        # The segments stay beside it to show what the rate did meanwhile.
        blocks_per_s = blocks / wall_s
        rates = segment_rates([w for w, _ in window], workload.segment)
        if rates:
            q1, median, q3 = quartiles(rates)
            detail.update(segment_rates=rates, segment_median=median, segment_iqr=q3 - q1)
        detail["window"] = (window[0][0], window[-1][0])
    else:
        # Each worker stops when one of *its* replicas reaches the target,
        # and the other worker, a block short and now without a quorum,
        # idles until its watchdog fires.  The first worker to stop is the
        # one that timed the run.
        wall_s = min(node["elapsed"] for node in run.nodes)
        blocks = max(node["committed_blocks"] for node in run.nodes if node["elapsed"] == wall_s)
        reached = blocks >= total
        blocks_per_s = blocks / wall_s
        # Worker CPU is only visible as a whole-tree total once the
        # workers have exited, so their start-up is in here too.
        cpu_s = run.cpu_s
    ops_per_block = metrics.committed_operations / max(metrics.committed_blocks, 1)
    checks: List[Check] = [
        ("measured blocks reached the target", reached,
         f"{len(stamps) or metrics.committed_blocks} of {total}"),
        ("mempool never drained", metrics.committed_operations == metrics.committed_blocks * BATCH_SIZE,
         f"{metrics.committed_operations} ops in {metrics.committed_blocks} blocks"),
        _prefix_check(run),
        _quorum_check(run, workload.size),
    ]
    detail.update(blocks=blocks, wall_s=wall_s, cpu_s=cpu_s, latency_samples=metrics.latency.count)
    return {
        "run": run,
        "end_to_end": {
            "blocks_per_s": blocks_per_s,
            "goodput_ops_per_s": blocks_per_s * ops_per_block,
            "cpu_ms_per_block": 1000.0 * cpu_s / max(blocks, 1),
            # Preloaded requests are all handed over at protocol start, so
            # this is submit -> commit *including* the wait in the queue.
            "commit_latency_p50_ms": 1000.0 * metrics.latency.median,
            "commit_latency_p99_ms": 1000.0 * metrics.latency.p99,
            **_shared(workload, run),
        },
        "attempted": metrics.total_views,
        "failed": metrics.total_views - metrics.successful_views,
        "checks": checks,
        "detail": detail,
    }


def measure_saturated(workload: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The untraced run: independent passes — a fresh cluster each, so each
    is also one ``setup_s`` sample — and the median over them of every
    metric.  One pass bent by a stall of the host, or by a burst of view
    changes it set off, does not move the median of three."""
    passes = 1 if quick else PASSES
    measured = workload.measured_blocks(seconds / passes)
    outcomes = []
    for _ in range(passes):
        outcome = saturated_pass(workload, seed, measured)
        del outcome["run"]  # a ClusterRun holds its whole cluster
        outcomes.append(outcome)
    return _median_of(outcomes, [f"pass {i + 1}" for i in range(passes)])


def _median_of(outcomes: Sequence[Dict[str, Any]], labels: Sequence[str]) -> Dict[str, Any]:
    """Fold independent passes into one outcome: metrics by median, counts
    by sum, a check holds when it held in every pass."""
    return {
        "end_to_end": {
            name: statistics.median(o["end_to_end"][name] for o in outcomes)
            for name in outcomes[0]["end_to_end"]
        },
        "setup_samples": [o["detail"]["setup_s"] for o in outcomes],
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "checks": _all_hold([o["checks"] for o in outcomes], labels),
        "detail": {"passes": [o["detail"] for o in outcomes]},
    }


def _all_hold(check_lists: Sequence[Sequence[Check]], labels: Sequence[str]) -> List[Check]:
    """One line per check, naming the passes (or stages) that break it."""
    merged = []
    for same_check in zip(*check_lists):
        bad = [f"{label}: {why}" for label, (_, ok, why) in zip(labels, same_check) if not ok]
        merged.append((same_check[0][0], not bad, "; ".join(bad)))
    return merged


def trace_saturated(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: an untraced half-length pass, then the same pass
    with the span recorder and the program's own ``observe`` on."""
    measured = workload.measured_blocks(seconds / 2.0)
    plain = saturated_pass(workload, seed, measured)
    del plain["run"]  # frees the untraced cluster before the traced one runs
    recorder = SpanRecorder()
    layers.install(recorder, workload.scheme, "iniva")
    try:
        traced = saturated_pass(workload, seed, measured, observe=True)
    finally:
        recorder.restore()
    run: ClusterRun = traced.pop("run")
    detail = traced["detail"]
    blocks = detail["blocks"]
    per_layer: Dict[str, float] = {}
    if run.probe.nodes:
        start, end = detail["window"]
        per_layer.update(layers.budget(recorder.totals(start, end), blocks, blocks * BATCH_SIZE, end - start))
        whole = recorder.totals()
        per_layer["crypto.keygen_s"] = whole.get("crypto.keygen", {}).get("total_s", 0.0)
        per_layer["mempool.preload_s"] = whole.get("mempool.submit_many", {}).get("total_s", 0.0)
    else:
        per_layer["live.wall_ms_per_block"] = 1000.0 * detail["wall_s"] / blocks
        per_layer["supervisor.spawn_s"] = detail["setup_s"]
    per_layer["live.link_delay_ms"] = 1000.0 * workload.link_delay
    per_layer.update(layers.reported(run.result.metrics))
    per_layer["observe.overhead_pct"] = 100.0 * (
        1.0 - traced["end_to_end"]["blocks_per_s"] / plain["end_to_end"]["blocks_per_s"]
    )
    return {
        "per_layer": per_layer,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "checks": _labelled("untraced", plain["checks"]) + _labelled("traced", traced["checks"]),
        "detail": {"untraced": plain["detail"], "traced": detail,
                   "untraced_blocks_per_s": plain["end_to_end"]["blocks_per_s"],
                   "traced_blocks_per_s": traced["end_to_end"]["blocks_per_s"]},
    }


# ---------------------------------------------------------------------------
# Open-loop client ladder
# ---------------------------------------------------------------------------
def client_stage(workload: Workload, seed: int, rate: int, stage_seconds: float,
                 observe: bool = False) -> Dict[str, Any]:
    """One offered rate on a fresh n=4 cluster; returns the stage record."""
    spec = live_spec(workload, seed, rate=rate, stage_seconds=stage_seconds, observe=observe)
    run = run_cluster(spec, duration=stage_seconds)
    metrics = run.result.metrics
    clients = run.result.clients
    swarm = clients["swarm"]
    latency = summarize_digest(swarm["latency"])
    answered = swarm["completed"] > 0
    p99_ms = 1000.0 * digest_percentile(swarm["latency"], 99.0) if answered else 0.0
    issued, unresolved = swarm["issued"], swarm["unresolved"]
    rejected = sum(swarm["rejected_frames"].values())
    # A stable queue holds about rate x latency requests (Little's law);
    # twice that at p99 is the most in-flight work a stage that keeps up
    # can end with.  Anything beyond it was left unanswered.
    in_flight_allowance = max(20, int(2.0 * (issued / stage_seconds) * p99_ms / 1000.0))
    in_slo = answered and p99_ms <= SLO_P99_MS and rejected == 0 and unresolved <= in_flight_allowance
    commits = run.probe.commits
    window = (run.probe.protocol_started, commits[-1][0] if commits else run.probe.protocol_started)
    return {
        "run": run,
        "rate": rate,
        "stage_seconds": stage_seconds,
        "setup_s": run.setup_s,
        "issued": issued,
        "completed": swarm["completed"],
        "unresolved": unresolved,
        "rejected": rejected,
        "link_drops": swarm["link_drops"],
        "generator_late_pct": 100.0 * (1.0 - issued / (rate * metrics.duration)),
        "goodput_ops_per_s": clients["goodput"],
        "latency_ms": latency,
        "p50_ms": latency.get("p50", 0.0),
        "p99_ms": p99_ms,
        "in_slo": in_slo,
        "failed_ops": rejected + swarm["link_drops"] + max(0, unresolved - in_flight_allowance),
        "blocks": metrics.committed_blocks,
        "blocks_per_s": metrics.committed_blocks / metrics.duration,
        "cpu_ms_per_block": 1000.0 * (commits[-1][1] - run.probe.cpu_at_start) / max(len(commits), 1)
        if commits else 0.0,
        "window": window,
        **_shared(workload, run),
    }


def _ladder_checks(stages: Sequence[Dict[str, Any]]) -> List[Check]:
    return _all_hold(
        [
            [
                ("completed <= issued", s["completed"] <= s["issued"], f"{s['completed']} / {s['issued']}"),
                ("every stage committed blocks", s["blocks"] > 0, "none"),
                _prefix_check(s["run"]),
                _quorum_check(s["run"], 4),
            ]
            for s in stages
        ],
        [f"r{s['rate']}" for s in stages],
    )


def _ladder_summary(stages: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    in_slo = [s for s in stages if s["in_slo"]]
    return {
        "max_rate_in_slo": max((s["rate"] for s in in_slo), default=0),
        "attempted": sum(s["issued"] for s in in_slo),
        "failed": sum(s["failed_ops"] for s in in_slo),
    }


def _public(stage: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in stage.items() if key != "run"}


def measure_clients(workload: Workload, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """The untraced run: several short stages at the reference rate and
    two at the overload rate, a fresh cluster each, medians over each kind.

    A percentile of one window is at the mercy of a single stall of the
    host (0.3 s out of 3 s is a tenth of all requests); the median over
    six windows is not.  The three middle rates add nothing to the
    end-to-end metrics and run in the traced ladder only.
    """
    kinds = (
        (REFERENCE_RATE, 1 if quick else REFERENCE_STAGES, REFERENCE_SHARE),
        (OVERLOAD_RATE, 1 if quick else OVERLOAD_STAGES, OVERLOAD_SHARE),
    )
    stages = [
        client_stage(workload, seed, rate, seconds * share)
        for rate, count, share in kinds
        for _ in range(count)
    ]
    reference = [s for s in stages if s["rate"] == REFERENCE_RATE]
    overload = [s for s in stages if s["rate"] == OVERLOAD_RATE]

    def median(of: Sequence[Dict[str, Any]], key: str) -> float:
        return statistics.median(s[key] for s in of)

    summary = _ladder_summary(reference)
    checks = _ladder_checks(stages)
    within = sum(s["in_slo"] for s in reference)
    checks.append(("the reference rate is within the SLO", 2 * within > len(reference),
                   f"{within} of {len(reference)} stages"))
    if not quick:
        checks.append(("p99 has >= 10 samples beyond it", median(reference, "completed") >= 1000,
                       f"{median(reference, 'completed'):.0f} samples per stage"))
    return {
        "end_to_end": {
            "blocks_per_s": median(overload, "blocks_per_s"),
            "goodput_ops_per_s": median(overload, "goodput_ops_per_s"),
            "cpu_ms_per_block": median(overload, "cpu_ms_per_block"),
            "commit_latency_p50_ms": median(reference, "p50_ms"),
            "commit_latency_p99_ms": median(reference, "p99_ms"),
            "qc_inclusion_pct": median(reference, "qc_inclusion_pct"),
            "views_ok_pct": median(reference, "views_ok_pct"),
        },
        "setup_samples": [s["setup_s"] for s in stages],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "checks": checks,
        "detail": {"stages": [_public(s) for s in stages]},
    }


def trace_clients(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The traced ladder, plus one untraced overload stage to price the
    tracing against."""
    stage_seconds = seconds / len(LADDER_RATES)
    plain = client_stage(workload, seed, OVERLOAD_RATE, stage_seconds)
    recorder = SpanRecorder()
    layers.install(recorder, workload.scheme, "iniva")
    try:
        stages = [client_stage(workload, seed, rate, stage_seconds, observe=True) for rate in LADDER_RATES]
    finally:
        recorder.restore()
    by_rate = {s["rate"]: s for s in stages}
    reference, overload = by_rate[REFERENCE_RATE], by_rate[OVERLOAD_RATE]
    summary = _ladder_summary(stages)
    start, end = reference["window"]
    blocks = reference["blocks"]
    per_layer = layers.budget(recorder.totals(start, end), blocks, reference["completed"], end - start)
    per_layer.update(layers.reported(reference["run"].result.metrics))
    per_layer["live.link_delay_ms"] = 1000.0 * workload.link_delay
    # One committee is generated per stage; report the cost of one.
    per_layer["crypto.keygen_s"] = recorder.totals().get("crypto.keygen", {}).get("total_s", 0.0) / len(stages)
    for stage in stages:
        per_layer[f"clients.p50_ms.r{stage['rate']}"] = stage["p50_ms"]
        per_layer[f"clients.p99_ms.r{stage['rate']}"] = stage["p99_ms"]
    per_layer.update({
        "clients.issued": float(reference["issued"]),
        "clients.completed": float(reference["completed"]),
        "clients.generator_late_pct": reference["generator_late_pct"],
        "clients.rejected": float(reference["rejected"]),
        "clients.link_drops": float(reference["link_drops"]),
        "clients.max_rate_in_slo_ops_per_s": float(summary["max_rate_in_slo"]),
        "clients.failed_ops_pct": 100.0 * summary["failed"] / max(summary["attempted"], 1),
        "observe.overhead_pct": 100.0 * (1.0 - overload["goodput_ops_per_s"] / plain["goodput_ops_per_s"]),
    })
    return {
        "per_layer": per_layer,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "checks": _ladder_checks(stages + [plain]),
        "detail": {"stages": [_public(s) for s in stages], "untraced_overload": _public(plain), **summary},
    }
