"""The live asyncio runtime: real replicas over localhost TCP.

This is the second substrate behind the sans-I/O protocol core.  Each
replica of a :class:`~repro.scenarios.spec.ScenarioSpec` runs as its own
:class:`LiveNode` — a protocol process with a replicated mempool copy
and a metrics collector — and the unchanged
:class:`~repro.consensus.replica.HotStuffReplica` drives it through
:class:`LiveRuntime`.  All wire traffic is framed with the versioned
codec in :mod:`repro.runtime.codec`.

Transport is the **scale-out fabric** (:mod:`repro.runtime.fabric`):
replicas are sharded across workers by a :class:`Placement`, each worker
runs one :class:`WorkerFabric` — a single TCP server plus one
multiplexed :class:`~repro.resilience.session.PeerSession` per *remote
worker* — and same-worker replicas deliver over the colocated fast path
(direct in-process handoff, no codec).  Connection count is O(workers²)
regardless of committee size, which is what makes n=200 live committees
tractable.

Two deployment shapes:

* **task mode** (default): all replicas as tasks in one event loop — one
  worker hosting the whole committee, zero TCP between replicas — the
  fastest way to get a cluster up, and what the cross-runtime
  equivalence tests use;
* **``procs`` mode**: replicas are spread over worker subprocesses
  (``python -m repro.runtime.live_worker``), each hosting a slice of the
  committee in its own loop; cross-worker traffic flows over localhost
  TCP through the worker-pair sessions.  The parent is the fleet's start
  and stop switch (:class:`ClusterSwitch`): it starts every worker on
  one shared epoch once the last reports ready, and relays the first
  worker's stop to the rest.

Client traffic (see :mod:`repro.clients`): by default a run is driven by
an **open-loop client swarm** — asyncio client tasks (sharded across the
``--procs`` workers) submitting requests over TCP at a configured
aggregate rate, admission-controlled at each replica's mempool
(``WorkloadSpec.max_pending`` / ``client_window``) and answered with a
commit reply the client times.  Clients dial *workers*; the fabric fans
each request to every hosted replica's admission control.  What the
swarm observed lands in ``RunResult.clients``.  Setting
``WorkloadSpec.preload`` instead selects deterministic *replay* mode:
the full request volume is submitted at time zero, so leaders batch
identical request sequences in both runtimes and a fixed-seed spec
finalizes the same block ids under sim and live (pinned by
``tests/runtime/test_equivalence.py``).

Chaos: every node carries a :class:`~repro.chaos.driver.ChaosDriver`
for the compiled spec's :class:`~repro.chaos.plan.ChaosPlan` — the same
executor the simulator attaches to its replicas (see :mod:`repro.chaos`).
Outbound frames pass the node's :class:`~repro.chaos.shaping.LinkShaper`
(topology-model latency, probabilistic loss, FIFO bandwidth queuing)
*before* the fabric dispatches them, so shaping and partitions behave
identically on the fast path and the TCP path; timed partitions suppress
directed links with reference counts, crash timers stop — and restart
timers recover — the local replica, and Byzantine omission cartels run
the adversarial aggregators from :mod:`repro.attacks`.  The scheduled
fault driver needs task mode; ``validate_live_spec`` rejects those spec
fields under ``--procs``.

Resilience (see :mod:`repro.resilience`): worker-pair links are
:class:`~repro.resilience.session.PeerSession` objects — sequenced
envelopes with cumulative acks, bounded resend buffers and jittered
reconnect; a phi-accrual failure detector per replica builds suspicion
timelines from traffic observations (cross-worker frames vouch for their
``src`` replica, idle links carry worker-level heartbeats, colocated
replicas are watched only while crashed or partitioned away); recovered
replicas catch up on missed commits through the
``SyncRequest``/``SyncResponse`` protocol; ``--procs`` workers run under
a restart-capable
:class:`~repro.resilience.supervisor.WorkerSupervisor` and a quiescence
watchdog (``resilience.quiesce_after``) ends a run that has stopped
committing.  Everything lands in ``RunResult.resilience``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.driver import ChaosDriver
from repro.chaos.shaping import LinkShaper
from repro.clients.messages import ClientReject, ClientReply, ClientRequest
from repro.clients.stats import LatencyDigest
from repro.clients.swarm import ClientSwarm, merge_summaries
from repro.consensus.leader import make_leader_election
from repro.consensus.mempool import Mempool
from repro.consensus.replica import HotStuffReplica
from repro.crypto.keys import Committee
from repro.crypto.multisig import run_scheme
from repro.experiments.workloads import ClientWorkload
from repro.observe.metrics import MetricsRegistry
from repro.observe.metrics import merge_snapshots as merge_metrics_snapshots
from repro.observe.trace import Tracer, seeded_run_id
from repro.observe.trace import merge_snapshots as merge_trace_snapshots
from repro.resilience.detector import PhiAccrualDetector
from repro.resilience.supervisor import RestartPolicy, SupervisedWorker, WorkerSupervisor
from repro.results import ExperimentResult, RunResult
from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.codec import FrameBatch, PreEncoded, WireCodec
from repro.runtime.fabric import Placement, WorkerFabric
from repro.runtime.net import run_loop
from repro.scenarios.engine import CompiledScenario, compile_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simnet.metrics import LatencyStats, MetricsCollector

__all__ = [
    "LiveCluster",
    "LiveNode",
    "LiveRuntime",
    "run_live",
    "serve_window",
    "validate_live_spec",
]

logger = logging.getLogger("repro.runtime.live")

#: The ``--procs`` control lines (documented in
#: :mod:`repro.runtime.live_worker`): a worker writes ``ready`` and
#: ``stop`` on stdout, the parent writes ``start <epoch>`` and ``stop``
#: on the worker's stdin.
READY, START, STOP = "ready", "start", "stop"
#: Seconds between the last ready line and the shared epoch: time for
#: the start lines to cross the pipes before the protocol clock reads 0.
START_MARGIN = 0.02


#: Capability table behind :func:`validate_live_spec`: each entry is a
#: spec feature the live runtime cannot execute in the given deployment
#: shape — ``(spec fields, why, predicate(spec, procs))``.  Everything
#: not listed here (partitions, loss, WAN latency, bandwidth, Byzantine
#: cartels, crash/restart churn) is supported since the chaos layer
#: landed; the scheduled fault driver coordinates in-process, so those
#: features need task mode.
_LIVE_UNSUPPORTED = (
    (
        "faults.partitions",
        "timed partitions need the in-process fault driver (task mode)",
        lambda spec, procs: procs > 1 and spec.faults.partitions,
    ),
    (
        "faults.restart_at",
        "crash-restart churn needs the in-process fault driver (task mode)",
        lambda spec, procs: procs > 1 and spec.faults.restart_at is not None,
    ),
    (
        "attack.strategy",
        "Byzantine cartels need the in-process fault driver (task mode)",
        lambda spec, procs: procs > 1 and spec.attack.strategy != "none",
    ),
)


def validate_live_spec(spec: ScenarioSpec, *, procs: int = 1) -> None:
    """Capability-based validation of a spec for the live runtime.

    Every built-in preset — partitions, loss, WAN shaping, omission
    cartels, crash/restart — runs live in task mode; only the capability table's
    entries are rejected, with an error naming the offending spec fields
    so the caller knows exactly what to change.
    """
    offending = [
        (fields, why)
        for fields, why, predicate in _LIVE_UNSUPPORTED
        if predicate(spec, procs)
    ]
    if offending:
        raise ValueError(
            "the live runtime does not support these spec fields in this "
            "deployment shape: "
            + "; ".join(f"{fields} — {why}" for fields, why in offending)
            + " (drop --procs to run in task mode, or use the sim runtime)"
        )


class _LiveTimer(TimerHandle):
    """Adapter from ``asyncio.TimerHandle`` to the runtime's handle."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_LiveTimer(cancelled={self._cancelled})"


class LiveRuntime(Runtime):
    """The :class:`Runtime` one live node hands its protocol process."""

    models_cpu = False
    name = "live"

    def __init__(self, node: "LiveNode") -> None:
        self._node = node

    @property
    def now(self) -> float:
        return self._node.now

    def register(self, process: Any) -> None:
        self._node.attach(process)

    def send(self, src: int, dst: int, message: Any, size_bytes: int = 0) -> None:
        self._node.transport_send(dst, message, size_bytes)

    def multicast(
        self, src: int, destinations: Iterable[int], message: Any, size_bytes: int = 0
    ) -> None:
        """Fan one message out to many peers, encoding its bytes once.

        When two or more *wire-bound* destinations are addressed — peers
        whose delivery actually crosses the codec, i.e. remote-worker
        peers (or any peer with the colocated fast path disabled) — the
        payload is serialised a single time and the same
        :class:`PreEncoded` body is handed to every worker session, which
        splices the bytes into its envelopes without re-encoding: a
        leader's proposal broadcast costs one encode instead of one per
        peer.  Fast-path and self deliveries always receive the original
        object; in task mode the whole broadcast therefore skips
        serialisation entirely.
        """
        node = self._node
        destinations = list(destinations)
        fabric = node.fabric
        wire_bound = 0
        if fabric is not None:
            wire_bound = sum(
                1
                for dst in destinations
                if dst != node.pid and fabric.wire_bound(dst)
            )
        wire = (
            PreEncoded(node.codec.encode_value(message), message)
            if wire_bound > 1
            else message
        )
        for dst in destinations:
            node.transport_send(dst, message if dst == node.pid else wire, size_bytes)

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        loop = self._node.loop
        return _LiveTimer(loop.call_later(max(delay, 0.0), callback, *args))

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        self._node.loop.call_later(max(when - self.now, 0.0), callback, *args)

    def counters(self) -> Dict[str, int]:
        return dict(self._node.counters)

    def per_replica_counters(self) -> Dict[int, Dict[str, int]]:
        return {self._node.pid: dict(self._node.counters)}


class LiveNode:
    """One replica: protocol process + chaos driver, hosted by a fabric.

    The node no longer owns any I/O: its worker's :class:`WorkerFabric`
    carries all TCP (and colocated fast-path) traffic and registers
    itself as ``node.fabric`` via ``add_node``.  A bare node without a
    fabric (unit tests building replicas directly) simply counts every
    remote send as dropped.
    """

    def __init__(
        self,
        pid: int,
        compiled: CompiledScenario,
        committee: Committee,
        epoch: float,
        host: str = "127.0.0.1",
    ) -> None:
        self.pid = pid
        self.compiled = compiled
        self.host = host
        self.epoch = epoch
        self.loop: asyncio.AbstractEventLoop = None  # set by the fabric
        self.fabric: Optional[WorkerFabric] = None  # set by WorkerFabric.add_node
        config = compiled.config
        self.codec = WireCodec(curve_params=committee.scheme.params)
        self.metrics = MetricsCollector(warmup=0.0)
        # Observability (see repro.observe): one tracer per node — the
        # live counterpart of the sim's single deployment-wide tracer —
        # merged across nodes/workers at summary time.  ``None`` keeps
        # every emission site down to one attribute load + ``is None``.
        observe = compiled.spec.observe
        self.tracer: Optional[Tracer] = None
        if observe.enabled:
            self.tracer = Tracer(
                seeded_run_id(compiled.spec.name, compiled.spec.seed),
                capacity=observe.capacity,
                sample_rate=observe.sample_rate,
                seed=compiled.spec.seed,
            )
            self.metrics.tracer = self.tracer
        workload = compiled.spec.workload
        self.mempool = Mempool(
            metrics=self.metrics,
            track_reservations=True,
            max_pending=workload.max_pending,
            client_window=workload.client_window,
        )
        # Open-loop reply routing: commit notifications fan back out to
        # every client connection on this worker (no-op in preload mode).
        self.mempool.on_commit = self._on_requests_committed
        self.replies_sent = 0
        self.committee = committee
        # Per-replica transport counters, maintained once at this framing
        # layer (logical messages, modeled byte sizes) so sim and live
        # report the same per-replica schema; ``restarts`` is merged in
        # from the replica when summarising.  Session control traffic
        # (hellos, acks, heartbeats) stays out of these on purpose.
        self.counters: Dict[str, int] = {
            "messages_sent": 0,
            "messages_received": 0,
            "bytes_sent": 0,
            "messages_dropped": 0,
            "messages_delayed": 0,
        }
        # Partition-suppressed sends (also counted as dropped), aggregated
        # into the run's ``messages_blocked`` like the sim network does.
        self.messages_blocked = 0
        self.runtime = LiveRuntime(self)
        self.replica = HotStuffReplica(
            process_id=pid,
            committee=committee,
            config=config,
            mempool=self.mempool,
            election=make_leader_election(config.leader_policy, config.committee_size),
            metrics=self.metrics,
            runtime=self.runtime,
        )
        self._stopping = False
        self._preloaded = False
        # Resilience layer: phi-accrual failure detection per replica.
        # The fabric feeds it — cross-worker traffic and heartbeats vouch
        # for their source replica; a colocated peer enters it only while
        # crashed or partitioned away (see ``WorkerFabric._watch_hosted``).
        self.resilience = compiled.spec.resilience
        self.detector = PhiAccrualDetector(
            threshold=self.resilience.phi_threshold,
            window=self.resilience.detector_window,
            bootstrap_interval=self.resilience.heartbeat_interval,
        )
        # The chaos layer: scheduled faults + attacker corruption (the
        # driver the simulator runs too; corruption happens here, before
        # the replica ever starts) and this node's traffic shaping, all
        # derived deterministically from the spec seed.
        plan = compiled.plan
        self.chaos = ChaosDriver(
            self.replica,
            config.committee_size,
            plan,
            crash=self.crash_replica,
            recover=self.recover_replica,
        )
        self.shaper = LinkShaper(
            pid=pid,
            latency_model=plan.latency_model,
            loss_probability=plan.loss_probability,
            bandwidth_bytes_per_sec=plan.bandwidth_bytes_per_sec,
            seed=plan.seed,
        )

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the cluster epoch (shared by workers)."""
        return time.time() - self.epoch

    # -- runtime hooks ---------------------------------------------------------
    def attach(self, process: Any) -> None:
        # The replica registers itself during construction; nothing to do —
        # the node already holds it.
        pass

    def transport_send(self, dst: int, message: Any, size_bytes: int) -> None:
        if self._stopping:
            return
        self.counters["messages_sent"] += 1
        self.counters["bytes_sent"] += size_bytes
        if dst == self.pid:
            # Self-sends stay local but are never re-entrant (the sim
            # delivers them through the event queue too) — and they count
            # as received, like the sim network counts self-deliveries.
            self.counters["messages_received"] += 1
            self.loop.call_soon(self.replica._deliver, self.pid, message)
            return
        if self.chaos.blocked(dst):
            # Partition suppression: a drop at the sender, mirroring the
            # sim network's blocked-link accounting.
            self.counters["messages_dropped"] += 1
            self.messages_blocked += 1
            return
        delay = self.shaper.shape(dst, size_bytes, self.now)
        if delay is None:  # probabilistic loss
            self.counters["messages_dropped"] += 1
            return
        if delay > 0:
            self.counters["messages_delayed"] += 1
            self.loop.call_later(delay, self._enqueue, dst, message)
        else:
            self._enqueue(dst, message)

    def _enqueue(self, dst: int, message: Any) -> None:
        """Hand one (possibly shaping-delayed) message to the fabric."""
        if self._stopping:
            return
        fabric = self.fabric
        if fabric is None or not fabric.routes(dst):
            # No fabric (bare node in tests) or unknown peer: drop, like
            # the sim network.
            self.counters["messages_dropped"] += 1
            return
        fabric.dispatch(self.pid, dst, message)

    def receive_from_peer(self, src: int, message: Any) -> None:
        """Deliver one inbound protocol message from replica ``src``.

        The single receive funnel for both the colocated fast path and
        demultiplexed TCP frames, so liveness observation and transport
        accounting cannot diverge between them.
        """
        if self.replica.crashed:
            # Mirror the sim network: traffic to a crashed replica is a
            # drop, not a receipt — and a down replica observes nothing.
            self.counters["messages_dropped"] += 1
            return
        # A frame from another worker is a liveness observation for its
        # sender; hosted peers are the fabric's maintenance tick's to watch.
        if src not in self.fabric.nodes:
            self.detector.heartbeat(src, self.now)
        self.counters["messages_received"] += 1
        if not self._stopping:
            self.replica._deliver(src, message)

    # -- client admission (connections live on the fabric) -----------------------
    def _admit_client_request(
        self, request: ClientRequest, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping or self.replica.crashed:
            # A down replica neither admits nor rejects; the client's
            # other links keep serving it (first reply wins anyway).
            return
        verdict = self.mempool.admit(
            request_id=request.request_id,
            client_id=request.client_id,
            size_bytes=request.payload_size,
            now=self.now,
        )
        tracer = self.tracer
        if tracer is not None and tracer.sample_tick("client_admit"):
            tracer.emit("client_admit", self.pid, self.now, verdict=verdict)
        if verdict == "admitted":
            return
        if verdict == "duplicate":
            if self.mempool.is_committed(request.request_id):
                self._write_client(
                    writer,
                    self.codec.frame(
                        ClientReply(request_id=request.request_id, replica=self.pid)
                    ),
                )
                self.replies_sent += 1
        elif verdict == "dropped":
            self._write_client(
                writer,
                self.codec.frame(ClientReject(request_id=request.request_id)),
            )
        else:  # deferred: per-client window exceeded
            self._write_client(
                writer,
                self.codec.frame(
                    ClientReject(
                        request_id=request.request_id, reason="client-window"
                    )
                ),
            )

    def _on_requests_committed(self, requests: List[Any]) -> None:
        """Mempool first-commit hook: notify every client connection.

        One reply per request, batched into a single frame broadcast on
        the worker's client connections; shards that do not own a
        request id ignore it.
        """
        fabric = self.fabric
        if self._stopping or fabric is None or not fabric.has_clients:
            return
        replies = tuple(
            ClientReply(request_id=r.request_id, replica=self.pid) for r in requests
        )
        wire = replies[0] if len(replies) == 1 else FrameBatch(replies)
        fabric.broadcast_client(self.codec.frame(wire))
        self.replies_sent += len(replies)
        if self.tracer is not None:
            # One event per commit batch, not per request: reply volume
            # is already a counter; the trace only needs the timing.
            self.tracer.emit("client_reply", self.pid, self.now, count=len(replies))

    @staticmethod
    def _write_client(writer: asyncio.StreamWriter, frame: bytes) -> None:
        if not writer.is_closing():
            writer.write(frame)

    def note_suspicions(self, transitions: Sequence[Any]) -> None:
        """Trace failure-detector raise/clear transitions.

        Called by the fabric's maintenance tick right where
        ``detector.evaluate`` returns them, so the events land in the
        ring *at* transition time — per-pid sequence numbers stay
        monotone with the node's timestamps, which the trace validator
        checks.
        """
        tracer = self.tracer
        if tracer is None:
            return
        for suspicion in transitions:
            if suspicion.active:
                tracer.emit(
                    "suspicion_raised",
                    self.pid,
                    suspicion.raised_at,
                    suspect=suspicion.peer,
                    phi=round(suspicion.phi, 3),
                )
            else:
                tracer.emit(
                    "suspicion_cleared",
                    self.pid,
                    suspicion.cleared_at,
                    suspect=suspicion.peer,
                )

    # -- fault hooks (chaos driver) ---------------------------------------------
    def crash_replica(self) -> None:
        """Scheduled-crash hook: stop the local replica."""
        self.replica.crash()

    def recover_replica(self) -> None:
        """Scheduled-restart hook: recover the replica and reset suspicion
        clocks — the downtime silence says nothing about the *peers*."""
        self.replica.recover()
        self.detector.touch_all(self.now)

    # -- lifecycle --------------------------------------------------------------
    def preload_workload(self) -> None:
        """Submit the run's full request volume into the local pool.

        Only applies when ``WorkloadSpec.preload`` selects deterministic
        replay mode; in the default open-loop mode requests arrive over
        the wire from the client swarm instead, and this is a no-op.

        Preloading happens at (virtual) time zero, so it can — and should
        — run *before* the measured serving window opens: at benchmark
        request volumes building 10^5 request records takes a visible
        slice of wall-clock time, and doing it inside the window both
        shrinks the effective serving time and delays the first proposal.
        Idempotent so callers that cannot separate the phases (the worker
        entrypoint's cold restarts) can rely on :meth:`start_protocol`.
        """
        if self._preloaded:
            return
        self._preloaded = True
        spec = self.compiled.spec
        if not spec.workload.preload:
            return
        workload_seed = (
            spec.workload.seed if spec.workload.seed is not None else self.compiled.config.seed
        )
        ClientWorkload(
            rate=spec.workload.rate,
            payload_size=spec.workload.payload_size,
            num_clients=spec.workload.num_clients,
            seed=workload_seed,
            arrival=spec.workload.arrival,
            burst_factor=spec.workload.burst_factor,
            period=spec.workload.arrival_period,
        ).preload_into(self.mempool, spec.duration)

    def start_protocol(self, request_sync: bool = False) -> None:
        """Preload the workload (if not yet), arm chaos, start the replica.

        ``request_sync`` marks a cold-started replica (e.g. hosted by a
        restarted ``--procs`` worker) that should immediately ask its
        peers for the committed blocks it missed.
        """
        self.preload_workload()
        self.chaos.arm()
        self.replica.start()
        if request_sync and self.compiled.config.sync_on_recover:
            self.replica.request_sync()

    # -- reporting ---------------------------------------------------------------
    def summary(self, elapsed: float) -> Dict[str, Any]:
        """JSON-safe per-node stats (shared by task and subprocess modes).

        Session-level counters (reconnects, resends, duplicate frames,
        heartbeats) live on the *worker-pair* links now, not on replicas
        — they land in the cluster-level fabric record instead of here.
        """
        self.metrics.mark_window(0.0, elapsed)
        replica = self.replica
        recovered_at = replica.recovered_at
        first_commit = replica.first_commit_after_recovery
        time_to_rejoin = None
        if recovered_at is not None and first_commit is not None:
            time_to_rejoin = max(first_commit - recovered_at, 0.0)
        report = {
            "pid": self.pid,
            "elapsed": elapsed,
            "crashed": replica.crashed,
            "current_view": replica.current_view,
            "committed_blocks": self.metrics.committed_blocks(),
            "committed_operations": self.metrics.committed_operations(),
            "committed_order": list(self.mempool.committed_order),
            "latency": self.metrics.latency_stats().to_dict(),
            "views_recorded": self.metrics.total_views(),
            "qc_size_sum": sum(self.metrics.qc_sizes()),
            "qc_count": len(self.metrics.qc_sizes()),
            "second_chance_inclusions": self.metrics.second_chance_inclusions(),
            "busy_time": replica.busy_time,
            "messages_blocked": self.messages_blocked,
            "transport": {**self.counters, "restarts": replica.restarts},
            "clients": {
                **self.mempool.admission_summary(),
                "replies_sent": self.replies_sent,
            },
            "resilience": {
                "suspicions": self.detector.summary(),
                "sync_requests_sent": replica.sync_requests_sent,
                "sync_requests_served": replica.sync_requests_served,
                "catchup_blocks": replica.catchup_blocks,
                "restarts": replica.restarts,
                "crashed_at": replica.crashed_at,
                "recovered_at": recovered_at,
                "first_commit_after_recovery": first_commit,
                "time_to_rejoin": time_to_rejoin,
            },
        }
        if self.tracer is not None:
            report["observe"] = {
                "trace": self.tracer.snapshot(),
                "metrics": self._registry_snapshot(replica),
            }
        return report

    def _registry_snapshot(self, replica: HotStuffReplica) -> Dict[str, Any]:
        """Fill a :class:`MetricsRegistry` from this node's counters.

        Summary-time import of the scattered ad-hoc counters into the
        unified registry namespace — zero hot-path rewiring; the parent
        merges the snapshots (counters add, gauges max, histograms
        bucket-merge) across nodes, workers and restart incarnations.
        """
        registry = MetricsRegistry()
        registry.fill_counters(self.counters, prefix="transport.")
        registry.counter("transport.restarts", replica.restarts)
        registry.counter("transport.messages_blocked", self.messages_blocked)
        registry.fill_counters(self.mempool.admission_summary(), prefix="clients.")
        registry.counter("clients.replies_sent", self.replies_sent)
        registry.fill_consensus(self.metrics)
        registry.counter("resilience.sync_requests_sent", replica.sync_requests_sent)
        registry.counter("resilience.sync_requests_served", replica.sync_requests_served)
        registry.counter("resilience.catchup_blocks", replica.catchup_blocks)
        registry.counter("resilience.suspicions", len(self.detector.timeline))
        registry.gauge("consensus.current_view", replica.current_view)
        return registry.snapshot()


def _salvaged_summary(pid: int, elapsed: float) -> Dict[str, Any]:
    """Placeholder summary for a replica whose worker was never recovered.

    Lets a degraded ``--procs`` run complete with a full per-pid report
    instead of raising; the pid shows up as crashed with zeroed metrics.
    """
    return {
        "pid": pid,
        "elapsed": elapsed,
        "crashed": True,
        "salvaged": True,
        "current_view": 1,
        "committed_blocks": 0,
        "committed_operations": 0,
        "committed_order": [],
        "latency": LatencyStats.from_samples([]).to_dict(),
        "views_recorded": 0,
        "qc_size_sum": 0,
        "qc_count": 0,
        "second_chance_inclusions": 0,
        "busy_time": 0.0,
        "messages_blocked": 0,
        "transport": {
            "messages_sent": 0,
            "messages_received": 0,
            "bytes_sent": 0,
            "messages_dropped": 0,
            "messages_delayed": 0,
            "restarts": 0,
        },
        "clients": {
            "admitted": 0,
            "duplicate": 0,
            "dropped": 0,
            "deferred": 0,
            "peak_pending": 0,
            "pending": 0,
            "replies_sent": 0,
        },
        "resilience": {
            "suspicions": [],
            "sync_requests_sent": 0,
            "sync_requests_served": 0,
            "catchup_blocks": 0,
            "restarts": 0,
            "crashed_at": None,
            "recovered_at": None,
            "first_commit_after_recovery": None,
            "time_to_rejoin": None,
        },
    }


class ParentLink:
    """A ``--procs`` worker's end of the control pipes to its parent.

    The parent's lines arrive on ``stdin`` (its config line already
    read) and are read on a daemon thread, which hands each one to the
    event loop; the worker's own control lines go out on ``stdout``
    ahead of its summary.
    """

    def __init__(self, stdin: IO[str], stdout: IO[str]) -> None:
        self._stdout = stdout
        self._loop = asyncio.get_running_loop()
        self._epoch: asyncio.Future = self._loop.create_future()
        #: Set when the parent relays another worker's stop.
        self.stop_requested = False
        threading.Thread(target=self._read, args=(stdin,), daemon=True).start()

    def _read(self, stdin: IO[str]) -> None:
        for line in stdin:
            if not self._post(self._on_line, line.split()):
                return
        self._post(self._on_eof)

    def _post(self, callback: Callable[..., None], *args: Any) -> bool:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # the loop has closed: the window is over
            return False
        return True

    def _on_line(self, words: List[str]) -> None:
        if len(words) == 2 and words[0] == START and not self._epoch.done():
            self._epoch.set_result(float(words[1]))
        elif words == [STOP]:
            self.stop_requested = True

    def _on_eof(self) -> None:
        if not self._epoch.done():
            self._epoch.set_exception(
                ConnectionError("the parent closed the control pipe before the start line")
            )

    def _write(self, line: str) -> None:
        self._stdout.write(line + "\n")
        self._stdout.flush()

    async def released(self) -> float:
        """Report ready, wait for the start line, return its epoch."""
        self._write(READY)
        return await self._epoch

    def report_stop(self) -> None:
        """Tell the parent this worker reached the block target."""
        self._write(STOP)


async def serve_window(
    fabric: WorkerFabric,
    link: Optional[ParentLink],
    duration: float,
    target_blocks: Optional[int],
    *,
    cold_start_pids: Sequence[int] = (),
    client_shard: Optional[Tuple[int, int]] = None,
    incarnation: int = 0,
) -> Dict[str, Any]:
    """The shared serve loop: readiness, start, poll, stop.

    Both deployment shapes go through this exact code path — task mode
    (one fabric hosting the whole committee) and each ``--procs`` worker
    (its fabric hosting a slice) — so their lifecycle semantics cannot
    diverge.  The fabric must already be serving with its worker address
    map populated.

    The protocol starts once every worker-pair session has established —
    an explicit readiness barrier that collapses to a no-op when there
    are no remote workers — and the workload is preloaded.  ``link=None``
    (task mode) starts it right then and rebases every node's clock to
    that instant.  A ``--procs`` worker instead reports ready over its
    :class:`ParentLink` and waits for the parent's start line: the epoch
    it carries is every node's clock zero, shared by the whole cluster,
    and the worker sleeps until it (a restarted worker's epoch is
    already past).  The window ends ``duration`` seconds after the
    epoch, at a block target (a ``--procs`` worker then reports stop,
    and the parent relays it to the other workers), at a relayed stop,
    or when the quiescence watchdog fires.

    ``client_shard=(offset, step)`` runs shard ``offset::step`` of the
    spec's open-loop client swarm alongside the nodes (task mode passes
    ``(0, 1)``; each ``--procs`` worker hosts its own shard).  The swarm
    dials *workers*, not replicas.  ``None`` — or a spec in
    preload/replay mode, or a zero rate — runs no swarm.  ``incarnation``
    namespaces a restarted worker's request ids so they never collide
    with its dead predecessor's.

    Returns ``{"nodes": [...summaries...], "window": {...}}`` where the
    window record carries the measured ``elapsed``, whether the run was
    cut short by the quiescence watchdog, whether all sessions were
    ready before the protocol started, the swarm shard's client-side
    summary (``"swarm"``, ``None`` when no swarm ran), and this worker's
    fabric transport record (``"fabric"``).
    """
    nodes = fabric.node_list
    res = fabric.resilience
    spec = fabric.compiled.spec
    swarm: Optional[ClientSwarm] = None
    if (
        client_shard is not None
        and not spec.workload.preload
        and spec.workload.rate > 0
    ):
        workload_seed = (
            spec.workload.seed
            if spec.workload.seed is not None
            else fabric.compiled.config.seed
        )
        swarm = ClientSwarm(
            fabric.worker_addresses,
            rate=spec.workload.rate,
            payload_size=spec.workload.payload_size,
            num_clients=spec.workload.num_clients,
            arrival=spec.workload.arrival,
            seed=workload_seed,
            burst_factor=spec.workload.burst_factor,
            period=spec.workload.arrival_period,
            shard_offset=client_shard[0],
            shard_step=client_shard[1],
            incarnation=incarnation,
        )
    ready = await fabric.wait_ready(res.ready_timeout)
    # Preload the client workload while still outside the measured window:
    # the submissions carry virtual time zero either way, and at benchmark
    # request volumes building them takes long enough to visibly eat into
    # the window (and to delay every node's first proposal).
    for node in nodes:
        node.preload_workload()
    start = time.time() if link is None else await link.released()
    for node in nodes:
        node.epoch = start
    if link is not None:
        await asyncio.sleep(max(start - time.time(), 0.0))
    run_started = time.time()
    cold = set(cold_start_pids)
    for node in nodes:
        node.start_protocol(request_sync=node.pid in cold)
    fabric.start_maintenance()
    if swarm is not None:
        # Clients dial in only after the protocol is live: traffic
        # belongs inside the measured window, unlike the preload.
        await swarm.start()
    deadline = start + duration
    quiesced = False
    progress_total = -1
    progress_at = run_started
    try:
        while time.time() < deadline:
            if target_blocks is not None and any(
                len(node.mempool.committed_order) >= target_blocks for node in nodes
            ):
                if link is not None:
                    link.report_stop()
                break
            if link is not None and link.stop_requested:
                break
            if res.quiesce_after is not None:
                total = sum(len(node.mempool.committed_order) for node in nodes)
                if total > progress_total:
                    progress_total = total
                    progress_at = time.time()
                elif time.time() - progress_at >= res.quiesce_after:
                    # Commit progress has flatlined: end the run instead
                    # of idling out the rest of the window.
                    quiesced = True
                    break
            await asyncio.sleep(0.02)
    finally:
        elapsed = max(time.time() - run_started, 1e-9)
        # Stop the clients before the fabric so late replies don't race
        # writer teardown and in-flight tallies settle where they are.
        if swarm is not None:
            await swarm.stop()
        await fabric.stop()
    return {
        "nodes": [node.summary(elapsed) for node in nodes],
        "window": {
            "elapsed": elapsed,
            "quiesced": quiesced,
            "all_ready": ready,
            "swarm": swarm.summary() if swarm is not None else None,
            "fabric": fabric.summary(),
        },
    }


class ClusterSwitch:
    """The parent's end of the ``--procs`` control pipes: one start and
    one stop for the whole fleet.

    Every :class:`SupervisedWorker` gets :meth:`on_line` as its control
    callback.  Once all ``slots`` workers have reported ready — or
    ``ready_timeout`` seconds after construction, whichever comes first
    — the switch fixes the cluster's epoch (that instant plus
    :data:`START_MARGIN`) and sends every ready worker its start line.
    A worker ready after that (late, or restarted) is released the
    moment it reports, with the same epoch.  The first stop a worker
    reports is relayed to every other released worker.  ``all_ready``
    is false when the timeout released the fleet.
    """

    def __init__(self, slots: int, ready_timeout: float) -> None:
        self.slots = slots
        self.epoch: Optional[float] = None
        self.all_ready = True
        self.stopped = False
        self._lock = threading.Lock()
        #: Ready and not yet released, one per pid group (a restarted
        #: worker replaces its dead predecessor).
        self._waiting: Dict[Tuple[int, ...], SupervisedWorker] = {}
        self._released: List[SupervisedWorker] = []
        self._timer = threading.Timer(ready_timeout, self._timed_out)
        self._timer.daemon = True
        self._timer.start()

    def on_line(self, worker: SupervisedWorker, line: str) -> bool:
        """``SupervisedWorker`` callback; true for a control line."""
        if line == READY:
            self._ready(worker)
        elif line == STOP:
            self._stop(worker)
        else:
            return False
        return True

    def close(self) -> None:
        self._timer.cancel()

    def _ready(self, worker: SupervisedWorker) -> None:
        with self._lock:
            if self.epoch is not None:
                self._release(worker)
                return
            self._waiting[tuple(worker.pids)] = worker
            if len(self._waiting) >= self.slots:
                self._start()

    def _timed_out(self) -> None:
        with self._lock:
            if self.epoch is None:
                self.all_ready = False
                self._start()

    def _start(self) -> None:
        self.epoch = time.time() + START_MARGIN
        for worker in self._waiting.values():
            self._release(worker)
        self._waiting.clear()

    def _release(self, worker: SupervisedWorker) -> None:
        worker.send(f"{START} {self.epoch!r}")
        self._released.append(worker)
        if self.stopped:
            worker.send(STOP)

    def _stop(self, worker: SupervisedWorker) -> None:
        with self._lock:
            if self.stopped:
                return
            self.stopped = True
            for other in self._released:
                if other is not worker:
                    other.send(STOP)


@dataclass
class LiveCluster:
    """A not-yet-started live deployment compiled from a spec.

    ``run()`` brings the committee up (asyncio tasks, or ``procs`` worker
    subprocesses), lets it serve the preloaded workload until ``duration``
    wall seconds elapse or a node commits ``target_blocks``, and returns
    the same :class:`RunResult` schema the sim runtime emits.
    """

    spec: ScenarioSpec
    duration: Optional[float] = None
    target_blocks: Optional[int] = None
    procs: int = 1
    host: str = "127.0.0.1"
    #: The colocated delivery fast path: same-worker replicas hand frames
    #: directly to each other's handlers.  ``False`` forces even
    #: colocated traffic through loopback TCP sessions — the knob the
    #: fast-path parity tests flip to compare committed prefixes.
    fast_path: bool = True
    #: Pass a precompiled scenario to skip recompiling the spec (the
    #: engine's ``build_scenario_deployment(runtime="live")`` does).
    compiled: Optional[CompiledScenario] = None
    node_summaries: List[Dict[str, Any]] = field(default_factory=list)
    #: The last serve window's record (elapsed / quiesced / all_ready).
    window_info: Dict[str, Any] = field(default_factory=dict)
    #: Worker supervision report from the last ``--procs`` run.
    worker_report: Dict[str, Any] = field(default_factory=dict)
    #: Live supervisor handle during a ``--procs`` run (tests kill
    #: workers through it to exercise restart).
    worker_supervisor: Optional[WorkerSupervisor] = None

    def __post_init__(self) -> None:
        validate_live_spec(self.spec, procs=self.procs)
        if self.procs < 1:
            raise ValueError("procs must be >= 1")
        if self.compiled is None:
            self.compiled = compile_scenario(self.spec)
        elif self.compiled.spec is not self.spec:
            raise ValueError("compiled scenario does not belong to this spec")

    # -- public API --------------------------------------------------------------
    def run(self) -> RunResult:
        """Bring the committee up, serve the window, and return a
        :class:`RunResult`."""
        started = time.perf_counter()
        budget = self.duration if self.duration is not None else self.spec.duration
        if self.procs > 1:
            summaries = self._run_subprocesses(budget)
        else:
            summaries = run_loop(self._run_tasks(budget))
        self.node_summaries = sorted(summaries, key=lambda s: s["pid"])
        metrics = self._experiment_result()
        return RunResult(
            spec=self.spec,
            metrics=metrics,
            attackers=self.compiled.attacker_ids,
            runtime="live",
            wall_clock_seconds=time.perf_counter() - started,
        )

    # -- task mode ---------------------------------------------------------------
    async def _run_tasks(self, budget: float) -> List[Dict[str, Any]]:
        size = self.compiled.config.committee_size
        committee = Committee(
            run_scheme(self.compiled.config.signature_scheme), size, seed=self.compiled.config.seed
        )
        # One worker hosting the whole committee: zero inter-replica TCP
        # when the fast path is on; with it off, one loopback session to
        # the fabric's own server carries everything (the parity shape).
        placement = Placement.round_robin(size, 1)
        fabric = WorkerFabric(
            0, placement, self.compiled, host=self.host, fast_path=self.fast_path
        )
        for pid in range(size):
            fabric.add_node(
                LiveNode(pid, self.compiled, committee, time.time(), host=self.host)
            )
        port = await fabric.serve()
        fabric.set_worker_addresses({0: (self.host, port)})
        report = await serve_window(
            fabric, None, budget, self.target_blocks, client_shard=(0, 1)
        )
        self.window_info = report["window"]
        return report["nodes"]

    # -- subprocess (--procs) mode -------------------------------------------------
    def _run_subprocesses(self, budget: float) -> List[Dict[str, Any]]:
        # The ports are reserve-and-release probed, so another process can
        # steal one before the worker binds it (a window as long as
        # interpreter startup); on an address-in-use failure the whole
        # round is retried once with freshly probed ports.
        try:
            return self._spawn_workers_once(budget)
        except RuntimeError as exc:
            if "address already in use" not in str(exc).lower():
                raise
            return self._spawn_workers_once(budget)

    def _spawn_workers_once(self, budget: float) -> List[Dict[str, Any]]:
        size = self.compiled.config.committee_size
        procs = min(self.procs, size)
        placement = Placement.round_robin(size, procs)
        # One listening port per *worker*, not per replica: the fabric
        # multiplexes every hosted replica's traffic through it.
        ports = {worker: _free_port(self.host) for worker in range(procs)}
        res = self.spec.resilience
        switch = ClusterSwitch(procs, res.ready_timeout)
        base_config = {
            "spec": self.spec.to_dict(),
            "placement": placement.to_payload(),
            "ports": {str(worker): port for worker, port in ports.items()},
            "host": self.host,
            "fast_path": self.fast_path,
            # Every incarnation's window ends at the cluster's deadline:
            # the epoch on its start line plus the budget.
            "duration": budget,
            "target_blocks": self.target_blocks,
        }

        def spawn(pids: Sequence[int], attempt: int) -> SupervisedWorker:
            worker = placement.worker_of(pids[0])
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.runtime.live_worker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            supervised = SupervisedWorker(pids, proc, on_line=switch.on_line)
            # A restarted worker rebinds the same port (the dead
            # incarnation freed it), is released into the running
            # committee the moment it reports ready and cold-start-syncs
            # its replicas.
            supervised.send(
                json.dumps(
                    {
                        **base_config,
                        "worker": worker,
                        "cold_start": attempt > 0,
                        # Worker i hosts client shard i::procs — every
                        # worker a distinct slice, together covering all
                        # clients; restart attempts namespace request ids.
                        "client_shard": [worker, procs],
                        "incarnation": attempt,
                    }
                )
            )
            return supervised

        policy = RestartPolicy(
            max_attempts=res.worker_restart_attempts,
            backoff=res.worker_restart_backoff,
        )
        supervisor = WorkerSupervisor(spawn, policy)
        self.worker_supervisor = supervisor
        deadline = time.monotonic() + res.ready_timeout + budget + 30.0
        assignments = [list(placement.pids_of(worker)) for worker in range(procs)]
        try:
            succeeded, failed = supervisor.run(assignments, deadline)
        finally:
            switch.close()
            self.worker_supervisor = None
        self.worker_report = {
            **supervisor.summary(),
            "failed_pids": sorted(pid for group in failed for pid in group),
        }
        bind_failed = any(
            "address already in use" in event.get("stderr", "").lower()
            for event in supervisor.events
        )
        summaries: List[Dict[str, Any]] = []
        window: Dict[str, Any] = {"all_ready": switch.all_ready}
        seen: set = set()
        for worker in succeeded:
            try:
                document = json.loads(worker.out)
            except json.JSONDecodeError:
                continue
            for summary in document["nodes"]:
                if summary["pid"] not in seen:
                    seen.add(summary["pid"])
                    summaries.append(summary)
            record = document.get("window", {})
            window["elapsed"] = max(window.get("elapsed", 0.0), record.get("elapsed", 0.0))
            window["quiesced"] = window.get("quiesced", False) or record.get("quiesced", False)
            window["all_ready"] = window["all_ready"] and record.get("all_ready", True)
            fabric_record = record.get("fabric")
            if fabric_record is not None:
                # First-seen wins per worker, consistent with the per-pid
                # summary dedup (a restarted worker re-reports its slot).
                fabrics = window.setdefault("fabrics", {})
                fabrics.setdefault(str(fabric_record.get("worker", 0)), fabric_record)
            shard_summary = record.get("swarm")
            if shard_summary is not None:
                # Dedup by shard: a restarted worker re-reports its
                # shard, and the highest incarnation's numbers stand
                # (its predecessors' issued requests died with them).
                shards = window.setdefault("swarms", {})
                key = tuple(shard_summary.get("shard", (0, 1)))
                held = shards.get(key)
                if held is None or shard_summary.get("incarnation", 0) >= held.get(
                    "incarnation", 0
                ):
                    shards[key] = shard_summary
        if bind_failed and len(seen) < size:
            # A stolen port keeps failing on restart (same port map); let
            # the outer retry re-probe a fresh set instead of salvaging.
            raise RuntimeError("live worker failed: address already in use")
        for pid in range(size):
            if pid not in seen:
                summaries.append(_salvaged_summary(pid, budget))
        self.window_info = window
        return summaries

    # -- result assembly -----------------------------------------------------------
    def _experiment_result(self) -> ExperimentResult:
        summaries = self.node_summaries
        if not summaries:
            raise RuntimeError("live run produced no node summaries")
        observer = max(summaries, key=lambda s: s["committed_blocks"])
        # Rates use the *serving* window each node measured (protocol start
        # to stop), not the full wall clock — which also covers server
        # bring-up, the readiness wait and teardown (and, in procs mode,
        # worker interpreter startup and the start handshake).
        measured = max(s["elapsed"] for s in summaries)
        successful_views = sum(s["views_recorded"] for s in summaries)
        alive = [s for s in summaries if not s["crashed"]] or summaries
        max_view = max(s["current_view"] for s in alive)
        total_views = max(max_view - 1, successful_views)
        failed_fraction = 0.0
        if total_views > 0:
            failed_fraction = max(0.0, 1.0 - successful_views / total_views)
        qc_size_sum = sum(s["qc_size_sum"] for s in summaries)
        qc_count = sum(s["qc_count"] for s in summaries)
        cpu = [min(1.0, s["busy_time"] / measured) for s in summaries]
        transport = {str(s["pid"]): dict(s["transport"]) for s in summaries}
        fabric_report = self._fabric_report()
        message_counters = {
            "messages_sent": sum(s["transport"]["messages_sent"] for s in summaries),
            "messages_delivered": sum(s["transport"]["messages_received"] for s in summaries),
            "messages_dropped": sum(s["transport"]["messages_dropped"] for s in summaries),
            "messages_blocked": sum(s.get("messages_blocked", 0) for s in summaries),
            "bytes_sent": sum(s["transport"]["bytes_sent"] for s in summaries),
            # Fabric routing health, surfaced with the transport counters
            # (not buried in the per-worker fabric records): both stay
            # zero on a clean cluster — nonzero means frames addressed a
            # pid no worker hosts, or session resends re-delivered.
            "frames_unroutable": fabric_report.get("frames_unroutable", 0),
            "frames_duplicate": fabric_report.get("frames_duplicate", 0),
        }
        resilience = {
            "per_replica": {
                str(s["pid"]): s["resilience"] for s in summaries if "resilience" in s
            },
            "cluster": {
                "quiesced": bool(self.window_info.get("quiesced", False)),
                "all_ready": bool(self.window_info.get("all_ready", True)),
                "workers": self.worker_report or {"restarts": 0, "events": []},
                "fabric": fabric_report,
            },
        }
        clients = self._clients_report(summaries, measured)
        observability: Dict[str, Any] = {}
        if self.spec.observe.enabled:
            # Salvaged replicas (worker died before summarising) simply
            # lack the ``observe`` key; both mergers skip falsy entries.
            records = [s.get("observe") or {} for s in summaries]
            trace = merge_trace_snapshots(r.get("trace") for r in records)
            observability = {
                "run_id": trace.get("run_id", ""),
                "enabled": True,
                "trace": trace,
                "metrics": merge_metrics_snapshots(r.get("metrics") for r in records),
            }
        return ExperimentResult(
            config_label=f"live {self.compiled.config.describe()}",
            duration=measured,
            throughput=observer["committed_operations"] / measured if measured > 0 else 0.0,
            latency=LatencyStats.from_dict(observer["latency"]),
            failed_view_fraction=failed_fraction,
            total_views=total_views,
            successful_views=successful_views,
            average_qc_size=qc_size_sum / qc_count if qc_count else 0.0,
            second_chance_inclusions=sum(s["second_chance_inclusions"] for s in summaries),
            cpu_utilisation_mean=sum(cpu) / len(cpu) if cpu else 0.0,
            cpu_utilisation_max=max(cpu) if cpu else 0.0,
            committed_operations=observer["committed_operations"],
            committed_blocks=observer["committed_blocks"],
            message_counters=message_counters,
            transport=transport,
            resilience=resilience,
            clients=clients,
            observability=observability,
        )

    def _fabric_report(self) -> Dict[str, Any]:
        """Fold per-worker fabric records into the cluster transport story.

        ``sessions_total`` against ``naive_pairwise_sessions`` is the
        O(workers²)-vs-O(n²) evidence the scaling benchmark reads straight
        out of telemetry: 200 replicas on 4 workers report 12 directed
        sessions where the per-replica fabric held n·(n−1) = 39 800.
        """
        records: List[Dict[str, Any]] = []
        if self.window_info.get("fabric") is not None:
            records.append(self.window_info["fabric"])
        records.extend((self.window_info.get("fabrics") or {}).values())
        size = self.compiled.config.committee_size
        if not records:  # every worker salvaged — degenerate, but reportable
            return {"workers": 0, "naive_pairwise_sessions": size * (size - 1)}
        return {
            "workers": max(r.get("workers", 1) for r in records),
            "fast_path": all(r.get("fast_path", True) for r in records),
            "sessions_total": sum(r.get("sessions", 0) for r in records),
            "connections_accepted": sum(r.get("connections_accepted", 0) for r in records),
            "fast_path_messages": sum(r.get("fast_path_messages", 0) for r in records),
            "tcp_messages": sum(r.get("tcp_messages", 0) for r in records),
            "heartbeats_sent": sum(r.get("heartbeats_sent", 0) for r in records),
            "reconnects": sum(r.get("reconnects", 0) for r in records),
            "frames_resent": sum(r.get("frames_resent", 0) for r in records),
            "frames_duplicate": sum(r.get("frames_duplicate", 0) for r in records),
            "frames_unroutable": sum(r.get("frames_unroutable", 0) for r in records),
            "session_messages_dropped": sum(
                r.get("session_messages_dropped", 0) for r in records
            ),
            "naive_pairwise_sessions": size * (size - 1),
            "per_worker": sorted(records, key=lambda r: r.get("worker", 0)),
        }

    def _clients_report(
        self, summaries: List[Dict[str, Any]], measured: float
    ) -> Dict[str, Any]:
        """Fold per-node admission counters and per-shard swarm stats.

        Admission counters add across replicas (each replica admits its
        own copy of the broadcast stream); queue depths take the max.
        The swarm side merges every shard's digest and derives the
        client-observed numbers the saturation sweep plots: goodput
        (first-commit replies per measured second) and latency
        percentiles in milliseconds.
        """
        per_node = [s["clients"] for s in summaries if s.get("clients")]
        admission: Dict[str, Any] = {
            key: sum(c.get(key, 0) for c in per_node)
            for key in ("admitted", "duplicate", "dropped", "deferred", "replies_sent")
        }
        admission["peak_pending"] = max(
            (c.get("peak_pending", 0) for c in per_node), default=0
        )
        admission["pending"] = max((c.get("pending", 0) for c in per_node), default=0)
        report: Dict[str, Any] = {
            "mode": "preload" if self.spec.workload.preload else "open-loop",
            "offered_rate": self.spec.workload.rate,
            "admission": admission,
        }
        shards = []
        if self.window_info.get("swarm") is not None:
            shards.append(self.window_info["swarm"])
        shards.extend((self.window_info.get("swarms") or {}).values())
        if shards:
            swarm = merge_summaries(shards)
            report["swarm"] = swarm
            report["goodput"] = swarm["completed"] / measured if measured > 0 else 0.0
            report["latency_ms"] = LatencyDigest.from_dict(swarm["latency"]).summary_ms()
        return report

    # -- convenience ---------------------------------------------------------------
    def committed_order(self, pid: int = 0) -> List[str]:
        """Block ids node ``pid`` committed, in order (after ``run()``)."""
        for summary in self.node_summaries:
            if summary["pid"] == pid:
                return list(summary["committed_order"])
        raise KeyError(f"no summary for pid {pid}")


def _free_port(host: str) -> int:
    """Reserve-and-release an ephemeral port for a worker subprocess."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def run_live(
    spec: ScenarioSpec,
    *,
    quick: bool = False,
    duration: Optional[float] = None,
    target_blocks: Optional[int] = None,
    procs: int = 1,
) -> RunResult:
    """Run ``spec`` on the live asyncio runtime and return its result.

    ``quick`` applies the same :meth:`ScenarioSpec.quick` shrink the CLI
    and CI use and caps the run at 12 committed blocks so a smoke run
    returns in a couple of seconds.
    """
    if quick:
        spec = spec.quick()
        if target_blocks is None:
            target_blocks = 12
    return LiveCluster(
        spec=spec, duration=duration, target_blocks=target_blocks, procs=procs
    ).run()
