"""Which public entry points the traced run wraps, and how their spans
become the per-layer budget.

Layers are the repo's modules.  Every wrapper is installed from here —
nothing under ``src/`` knows it is being timed — on the *concrete* classes
a workload uses (the signature scheme and aggregator it names), so the
same table serves the live and the simulated runs.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Mapping

from repro.aggregation.messages import ProposalMessage
from repro.consensus.mempool import Mempool
from repro.consensus.replica import HotStuffReplica
from repro.crypto import get_scheme
from repro.crypto.multisig import normalize_contributions
from repro.crypto.params import TOY_PARAMS
from repro.experiments.runner import ExperimentResult
from repro.observe.report import critical_path
from repro.runtime.codec import WireCodec
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveRuntime
from repro.simnet.events import Simulator
from repro.simnet.network import Network
from repro.tree.overlay import AggregationTree

from metrics import LAYERS
from spans import SpanRecorder


def _aggregator_class(aggregation: str) -> type:
    if aggregation == "star":
        from repro.aggregation.star import StarAggregator

        return StarAggregator
    from repro.core.iniva import InivaAggregator

    return InivaAggregator


def install(recorder: SpanRecorder, signature_scheme: str, aggregation: str) -> None:
    """Wrap every timed entry point; ``recorder.restore()`` undoes it."""
    params = {"params": TOY_PARAMS} if signature_scheme == "bls" else {}
    scheme = type(get_scheme(signature_scheme, **params))
    for op in ("sign", "verify_share", "verify_aggregate", "aggregate", "keygen"):
        recorder.patch(scheme, op, f"crypto.{op}")
    recorder.patch_function(normalize_contributions, "crypto.normalize", "repro.")

    for op in ("encode", "encode_value", "frame"):  # frame_batch goes through frame
        recorder.patch(WireCodec, op, "codec.encode", measure=len)
    recorder.patch(WireCodec, "decode", "codec.decode")

    for op in ("admit", "submit_many", "next_batch", "mark_committed"):
        recorder.patch(Mempool, op, f"mempool.{op}")

    recorder.patch(AggregationTree, "build", "tree.build")
    aggregator = _aggregator_class(aggregation)
    recorder.patch(aggregator, "handle", "aggregation.handle")
    recorder.patch(aggregator, "disseminate", "aggregation.disseminate")

    recorder.patch(HotStuffReplica, "on_message", "replica.on_message")
    recorder.patch(HotStuffReplica, "propose", "replica.propose")

    recorder.patch(WorkerFabric, "dispatch", "fabric.dispatch")

    # Timer callbacks are loop entry points of their own: without a span
    # around them the view-change and 2ND-CHANCE paths would all land in
    # the unattributed residual.
    set_timer = LiveRuntime.set_timer

    def traced_set_timer(self: Any, delay: float, callback: Any, *args: Any) -> Any:
        return set_timer(self, delay, recorder.wrap(callback, "live.timer"), *args)

    recorder.patch_with(LiveRuntime, "set_timer", recorder.wrap(traced_set_timer, "live.set_timer"))

    recorder.patch(Simulator, "run", "simnet.run")
    recorder.patch(Network, "send", "simnet.send")


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return "aggregation" if head == "tree" else head


def budget(
    totals: Mapping[str, Mapping[str, float]], blocks: int, ops: int, wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics from span totals over a window of ``blocks``
    committed blocks, ``ops`` committed operations and ``wall_s`` seconds.

    Every ``*_per_block`` time is **self** time, so the rows add up to
    ``live.layers_self_ms_per_block``; what the wall clock holds beyond
    that (loop scheduling, waiting out link delay) is the unattributed
    residual.
    """
    blocks = max(blocks, 1)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / blocks

    def self_ms(name: str) -> float:
        return 1000.0 * totals.get(name, {}).get("self_s", 0.0) / blocks

    out: Dict[str, float] = {}
    for op in ("sign", "verify_share", "verify_aggregate", "aggregate"):
        out[f"crypto.{op}.calls_per_block"] = calls(f"crypto.{op}")
        out[f"crypto.{op}.ms_per_block"] = self_ms(f"crypto.{op}")
    out["crypto.normalize.ms_per_block"] = self_ms("crypto.normalize")
    for op in ("encode", "decode"):
        out[f"codec.{op}.calls_per_block"] = calls(f"codec.{op}")
        out[f"codec.{op}.ms_per_block"] = self_ms(f"codec.{op}")
    out["codec.bytes_per_block"] = totals.get("codec.encode", {}).get("measured", 0.0) / blocks
    admit = totals.get("mempool.admit", {})
    out["mempool.admit.calls_per_op"] = admit.get("calls", 0) / max(ops, 1)
    out["mempool.admit.ms_per_kop"] = 1e6 * admit.get("self_s", 0.0) / max(ops, 1)
    out["mempool.next_batch.ms_per_block"] = self_ms("mempool.next_batch")
    out["mempool.mark_committed.calls_per_block"] = calls("mempool.mark_committed")
    out["mempool.mark_committed.ms_per_block"] = self_ms("mempool.mark_committed")
    out["tree.build.calls_per_block"] = calls("tree.build")
    out["tree.build.ms_per_block"] = self_ms("tree.build")
    out["aggregation.handle.calls_per_block"] = calls("aggregation.handle")
    out["aggregation.handle.self_ms_per_block"] = self_ms("aggregation.handle")
    out["aggregation.disseminate.self_ms_per_block"] = self_ms("aggregation.disseminate")
    out["replica.on_message.calls_per_block"] = calls("replica.on_message")
    out["replica.on_message.self_ms_per_block"] = self_ms("replica.on_message")
    out["replica.propose.self_ms_per_block"] = self_ms("replica.propose")
    out["fabric.dispatch.calls_per_block"] = calls("fabric.dispatch")
    out["fabric.dispatch.self_ms_per_block"] = self_ms("fabric.dispatch")
    out["live.timers_per_block"] = calls("live.set_timer")
    out["live.timer.self_ms_per_block"] = self_ms("live.timer")
    out["simnet.send.calls_per_block"] = calls("simnet.send")
    out["simnet.send.self_ms_per_block"] = self_ms("simnet.send")
    out["simnet.run.self_ms_per_block"] = self_ms("simnet.run")

    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, row in totals.items():
        by_layer[layer_of(name)] += row["self_s"]
    covered = sum(by_layer.values())
    for layer, seconds in by_layer.items():
        out[f"{layer}.self_share_pct"] = 100.0 * seconds / covered if covered else 0.0
    out["live.wall_ms_per_block"] = 1000.0 * wall_s / blocks
    out["live.layers_self_ms_per_block"] = 1000.0 * covered / blocks
    out["live.unattributed_ms_per_block"] = 1000.0 * (wall_s - covered) / blocks
    out["live.unattributed_pct"] = 100.0 * (wall_s - covered) / wall_s if wall_s else 0.0
    return out


def reported(metrics: ExperimentResult) -> Dict[str, float]:
    """Per-layer numbers the program reports itself (its result record
    and, when ``observe`` was on, its own consensus trace)."""
    total_blocks = max(metrics.committed_blocks, 1)
    fabric = metrics.resilience.get("cluster", {}).get("fabric", {})
    workers = metrics.resilience.get("cluster", {}).get("workers", {})
    admission = metrics.clients.get("admission", {})
    out = {
        "aggregation.qc_size_mean": metrics.average_qc_size,
        "aggregation.second_chance_per_block": metrics.second_chance_inclusions / total_blocks,
        "replica.views_entered": float(metrics.total_views),
        "replica.views_timed_out": float(metrics.total_views - metrics.successful_views),
        "fabric.fast_path_msgs_per_block": fabric.get("fast_path_messages", 0) / total_blocks,
        "fabric.tcp_msgs_per_block": fabric.get("tcp_messages", 0) / total_blocks,
        "fabric.sessions_total": float(fabric.get("sessions_total", 0)),
        "session.resent": float(fabric.get("frames_resent", 0)),
        "session.reconnects": float(fabric.get("reconnects", 0)),
        "session.messages_dropped": float(fabric.get("session_messages_dropped", 0)),
        "supervisor.restarts": float(workers.get("restarts", 0)),
        "mempool.ops_per_batch": metrics.committed_operations / total_blocks,
        "mempool.peak_pending": float(admission.get("peak_pending", 0)),
        "mempool.dropped": float(admission.get("dropped", 0)),
        "mempool.deferred": float(admission.get("deferred", 0)),
    }
    trace = metrics.observability.get("trace", {})
    events = trace.get("events", [])
    out["observe.events_per_block"] = len(events) / total_blocks
    sums: Dict[str, List[float]] = {}
    for path in critical_path(events):
        for segment in path["segments"]:
            sums.setdefault(segment["name"], []).append(segment["duration"])
    for name in ("transit", "verify", "aggregate", "commit"):
        values = sums.get(name, [])
        out[f"observe.path.{name}_ms"] = 1000.0 * statistics.fmean(values) if values else 0.0
    return out


def proposal_microbench(block: Any, signature_scheme: str, rounds: int = 200) -> Dict[str, float]:
    """Encode/decode cost of one real proposal frame, in isolation.

    The one codec number every workload can report — including
    ``procs2-n16``, whose workers the span recorder cannot reach but whose
    cross-worker traffic is made of exactly these frames.
    """
    codec = WireCodec(curve_params=TOY_PARAMS if signature_scheme == "bls" else None)
    message = ProposalMessage(block=block)
    frame = codec.encode(message)
    started = time.perf_counter()
    for _ in range(rounds):
        codec.encode(message)
    encoded = time.perf_counter()
    for _ in range(rounds):
        codec.decode(frame)
    decoded = time.perf_counter()
    return {
        "codec.proposal_encode_us": 1e6 * (encoded - started) / rounds,
        "codec.proposal_decode_us": 1e6 * (decoded - encoded) / rounds,
        "codec.proposal_frame_bytes": float(len(frame)),
    }
