"""The scale-out fabric: worker placement and multiplexed transport.

Before this layer, every live replica owned a TCP server and a
supervised :class:`~repro.resilience.session.PeerSession` per peer — an
O(n²) connection fabric whose session count made paper-scale committees
(n=200) unreachable long before the protocol itself was the bottleneck.
The fabric rebuilds that transport so cluster cost scales with
*workers*, not *replicas*:

* :class:`Placement` shards the n replicas of a committee across w
  workers (task mode is the degenerate w=1 placement hosting everything);
* each worker runs one :class:`WorkerFabric` — a single TCP server plus
  one multiplexed :class:`~repro.resilience.session.PeerSession` per
  *remote worker*, through which every hosted replica's traffic travels
  wrapped in a :class:`~repro.resilience.messages.Routed` ``(src, dst)``
  header.  The receiving fabric demultiplexes by ``dst`` against its
  table of hosted nodes.  200 replicas on 4 workers need 12 directed
  sessions instead of ~40 000;
* replicas hosted by the *same* worker skip the wire entirely: the
  **colocated fast path** hands the message object straight to the
  destination node on the next loop tick — no codec, no loopback TCP —
  while transport counters and the chaos shaping/partition hooks (which
  run upstream, in ``LiveNode.transport_send``) behave exactly as on the
  TCP path, so a fixed spec+seed finalizes identical committed prefixes
  either way (``fast_path=False`` forces even colocated traffic through
  a loopback session, which is what the parity tests compare against).

Failure detection moves to the same two-level shape.  Cross-worker
liveness is per *link*: any frame arriving from a remote worker is a
liveness observation for its ``src`` replica, and idle worker-pair links
carry a single worker-level heartbeat whose receipt touches every
replica the remote worker hosts — so per-replica phi-accrual suspicion
timelines (what the recovery telemetry and tests pin) survive the
multiplexing without per-replica heartbeat traffic.  Colocated liveness
is local knowledge, so a healthy same-worker pair costs nothing: the
maintenance tick makes one pass over the hosted replicas, and only a
*silent* pair — the peer is crashed, or a chaos partition blocks the
directed link — enters the observer's detector, its silence clock
started at the last tick the pair was healthy.  A scheduled in-process
crash therefore still raises — and its recovery, a sign of life, clears
— suspicions exactly as it did with per-replica sessions.

Client connections are per worker too: an open-loop swarm dials each
*worker*, and the fabric fans every ``ClientRequest`` to all hosted
replicas' admission control — the same replicated-mempool semantics as
the old one-connection-per-replica model at 1/hosted the connection
count.  Commit replies from every hosted replica share the worker
connection; the client's first-reply-wins accounting is unchanged.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.clients.messages import ClientHello, ClientRequest
from repro.crypto.multisig import run_scheme
from repro.resilience.messages import (
    Heartbeat,
    Routed,
    SessionAck,
    SessionEnvelope,
    SessionHello,
)
from repro.resilience.session import PeerSession
from repro.runtime.codec import FrameBatch, PreEncoded, WireCodec
from repro.runtime.net import read_frame, tune_writer

__all__ = ["Placement", "WorkerFabric"]

logger = logging.getLogger("repro.runtime.fabric")

#: Frame read limit, matching the live runtime's.
_READ_LIMIT = 16 * 1024 * 1024

#: Most messages flushed as one wire envelope by a worker-pair session.
_MAX_WIRE_BATCH = 64

_NO_PEERS: frozenset = frozenset()


@dataclass(frozen=True)
class Placement:
    """Which worker hosts which replicas: ``workers[i]`` is worker i's pids.

    Immutable and payload-round-trippable, so the cluster computes one
    placement and ships it to every ``--procs`` worker subprocess; all
    parties then agree on where each pid lives without negotiation.
    """

    workers: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workers", tuple(tuple(pids) for pids in self.workers)
        )
        if not self.workers:
            raise ValueError("a placement needs at least one worker")
        owner: Dict[int, int] = {}
        for worker, pids in enumerate(self.workers):
            for pid in pids:
                if pid in owner:
                    raise ValueError(f"pid {pid} placed on two workers")
                owner[pid] = worker
        if not owner:
            raise ValueError("a placement needs at least one replica")
        object.__setattr__(self, "_owner", owner)

    @classmethod
    def round_robin(cls, size: int, workers: int) -> "Placement":
        """Interleave ``size`` pids over ``min(workers, size)`` workers.

        Worker w hosts pids ``w :: workers`` — the same deal the live
        runtime always used for ``--procs``, so consecutive pids (which
        lead consecutive views under round-robin leadership) land on
        different workers and no single worker hosts a leadership run.
        """
        if size < 1:
            raise ValueError("committee size must be >= 1")
        workers = max(1, min(workers, size))
        return cls(tuple(tuple(range(size))[w::workers] for w in range(workers)))

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_replicas(self) -> int:
        return len(self._owner)

    def worker_of(self, pid: int) -> int:
        """The worker hosting ``pid`` (raises ``KeyError`` for strangers)."""
        return self._owner[pid]

    def hosts(self, pid: int) -> bool:
        return pid in self._owner

    def pids_of(self, worker: int) -> Tuple[int, ...]:
        return self.workers[worker]

    def to_payload(self) -> List[List[int]]:
        """JSON-safe form for the worker subprocess config."""
        return [list(pids) for pids in self.workers]

    @classmethod
    def from_payload(cls, payload: Sequence[Sequence[int]]) -> "Placement":
        return cls(tuple(tuple(int(pid) for pid in pids) for pids in payload))


class WorkerFabric:
    """One worker's half of the multiplexed transport (see module docstring).

    Owns the worker's TCP server, the demux table of hosted
    :class:`~repro.runtime.live.LiveNode` objects, one outbound
    :class:`PeerSession` per remote worker, the worker-level client
    connections, and the maintenance loop feeding the hosted nodes'
    failure detectors.  Nodes talk to it through exactly two entry
    points: :meth:`dispatch` (outbound, after chaos shaping) and
    :meth:`broadcast_client` (commit replies).
    """

    def __init__(
        self,
        worker: int,
        placement: Placement,
        compiled: Any,
        host: str = "127.0.0.1",
        fast_path: bool = True,
    ) -> None:
        self.worker = worker
        self.placement = placement
        self.compiled = compiled
        self.host = host
        self.fast_path = fast_path
        self.resilience = compiled.spec.resilience
        self.codec = WireCodec(curve_params=run_scheme(compiled.config.signature_scheme).params)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        self.nodes: Dict[int, Any] = {}  # pid -> hosted LiveNode (demux table)
        self.worker_addresses: Dict[int, Tuple[str, int]] = {}
        self.sessions: Dict[int, PeerSession] = {}  # remote worker -> link
        self._recv_seq: Dict[int, int] = {}  # per-worker envelope dedup floor
        self._client_writers: List[asyncio.StreamWriter] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        self._maintenance_task: Optional[asyncio.Task] = None
        self._stopping = False
        self._last_beat: Dict[int, float] = {}  # loop-time of last beat per link
        self._last_observed: Dict[int, float] = {}  # loop-time of last worker vouch
        self._heartbeat_seq = 0
        # Colocated silence tracking: observer pid -> hosted peers its
        # detector is accruing on, and the node-clock time of the last tick.
        self._silent: Dict[int, Set[int]] = {}
        self._ticked_at: Optional[float] = None
        # -- telemetry --------------------------------------------------------
        self.connections_accepted = 0
        self.fast_path_messages = 0  # colocated deliveries that skipped the wire
        self.tcp_messages = 0  # route headers handed to a session
        self.frames_duplicate = 0
        self.frames_unroutable = 0  # routed to a pid this worker does not host
        self.heartbeats_sent = 0
        self.session_messages_dropped = 0  # resend-buffer overflow, all links

    # -- wiring ----------------------------------------------------------------
    def add_node(self, node: Any) -> None:
        """Register a hosted replica in the demux table."""
        if not self.placement.hosts(node.pid):
            raise ValueError(f"pid {node.pid} is not placed on any worker")
        if self.placement.worker_of(node.pid) != self.worker:
            raise ValueError(f"pid {node.pid} belongs to another worker")
        self.nodes[node.pid] = node
        node.fabric = self
        if self.loop is not None:
            node.loop = self.loop

    @property
    def node_list(self) -> List[Any]:
        return sorted(self.nodes.values(), key=lambda n: n.pid)

    def set_worker_addresses(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        self.worker_addresses = dict(addresses)

    # -- outbound --------------------------------------------------------------
    def routes(self, dst: int) -> bool:
        """Whether ``dst`` is a known replica anywhere in the placement."""
        return self.placement.hosts(dst)

    def wire_bound(self, dst: int) -> bool:
        """Whether a dispatch to ``dst`` would be encoded onto a session.

        The multicast pre-encode optimisation keys off this: encoding is
        worth paying once only when two or more destinations actually
        cross the codec.
        """
        if not self.placement.hosts(dst):
            return False
        return not self.fast_path or self.placement.worker_of(dst) != self.worker

    def dispatch(self, src: int, dst: int, message: Any) -> None:
        """Route one protocol message from hosted replica ``src`` to ``dst``.

        Called by ``LiveNode.transport_send`` *after* chaos partition
        suppression and link shaping, so both delivery paths see
        identical traffic.  Colocated destinations take the fast path —
        the message object lands on the destination node's handler on
        the next loop tick, unwrapped from any :class:`PreEncoded`
        multicast body, with no codec in between.  Everything else is
        sealed in a :class:`Routed` header and multiplexed onto the
        destination worker's session.
        """
        if self._stopping:
            return
        target = self.placement.worker_of(dst)
        if target == self.worker and self.fast_path:
            node = self.nodes.get(dst)
            if node is None:  # placed here but not (yet) registered
                self.frames_unroutable += 1
                return
            self.fast_path_messages += 1
            payload = message.message if type(message) is PreEncoded else message
            # call_soon, not a direct call: fast-path deliveries keep the
            # sim/live invariant that sends are never re-entrant.
            self.loop.call_soon(node.receive_from_peer, src, payload)
            return
        self.tcp_messages += 1
        self._session_for(target).send(Routed(src, dst, message))

    def _session_for(self, target: int) -> PeerSession:
        session = self.sessions.get(target)
        if session is None:
            host, port = self.worker_addresses[target]
            res = self.resilience
            session = PeerSession(
                self.worker,
                target,
                host,
                port,
                self.codec,
                max_batch=_MAX_WIRE_BATCH,
                resend_buffer=res.resend_buffer,
                reconnect_base=res.reconnect_base,
                reconnect_cap=res.reconnect_cap,
                on_drop=self._on_session_drop,
                on_reconnect=lambda target=target: self._on_session_reconnect(target),
                read_limit=_READ_LIMIT,
            )
            self.sessions[target] = session
            session.start()
        return session

    def _on_session_drop(self, count: int) -> None:
        self.session_messages_dropped += count

    def _on_session_reconnect(self, target: int) -> None:
        """Trace a worker-pair link recovery.

        The link is worker-level, so the event is recorded once — on the
        lowest hosted pid with a tracer — rather than once per hosted
        replica (an n=50 worker would otherwise spam 50 identical rows).
        """
        for node in self.node_list:
            tracer = getattr(node, "tracer", None)
            if tracer is not None:
                tracer.emit("reconnect", node.pid, node.now, peer_worker=target)
                return

    def open_sessions(self) -> None:
        """Eagerly dial every worker this fabric will ever talk to.

        With the fast path disabled the loopback session to this
        worker's own server is a real link too, and joins the readiness
        barrier like any other.
        """
        for target in self.worker_addresses:
            if target != self.worker or not self.fast_path:
                self._session_for(target)

    async def wait_ready(self, timeout: float) -> bool:
        """True once every worker-pair session has connected at least once.

        Task mode with the fast path on has no sessions at all and is
        trivially ready — the whole barrier collapses to a no-op.
        """
        self.open_sessions()
        deadline = self.loop.time() + timeout
        for session in list(self.sessions.values()):
            remaining = deadline - self.loop.time()
            if remaining <= 0 or not await session.wait_ready(remaining):
                return False
        return True

    # -- inbound (server side) --------------------------------------------------
    async def serve(self, port: int = 0) -> int:
        """Start this worker's TCP server; returns the bound port."""
        self.loop = asyncio.get_running_loop()
        for node in self.nodes.values():
            node.loop = self.loop
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, port, limit=_READ_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.append(task)
        self.connections_accepted += 1
        tune_writer(writer)
        try:
            hello = self.codec.decode(await read_frame(reader, _READ_LIMIT))
            if isinstance(hello, ClientHello):
                await self._serve_client(reader, writer)
                return
            if isinstance(hello, SessionHello):
                peer_worker = hello.pid
            elif isinstance(hello, int):  # pre-session peers (bare tests)
                peer_worker = hello
            else:
                return
            while True:
                decoded = self.codec.decode(await read_frame(reader, _READ_LIMIT))
                if isinstance(decoded, Heartbeat):
                    # Worker-level liveness beacon: one frame vouches for
                    # every replica the remote worker hosts.
                    self._observe_worker(decoded.pid)
                    continue
                if isinstance(decoded, SessionEnvelope):
                    # A busy link never carries explicit heartbeats, but
                    # any envelope proves the remote *worker* is alive —
                    # and detection is worker-granular, so it vouches for
                    # every replica that worker hosts, not just the
                    # members' senders (a replica that never personally
                    # addresses us must not accrue phi).  Rate-limited to
                    # heartbeat cadence to stay off the envelope hot path.
                    loop_now = self.loop.time() if self.loop is not None else 0.0
                    interval = self.resilience.heartbeat_interval / 2
                    if loop_now - self._last_observed.get(peer_worker, -1e9) >= interval:
                        self._last_observed[peer_worker] = loop_now
                        self._observe_worker(peer_worker)
                    last = self._recv_seq.get(peer_worker, 0)
                    if decoded.seq <= last:
                        # Resent after reconnect but already delivered:
                        # re-ack (the ack that would have advanced the
                        # sender's floor may have died with the link).
                        self.frames_duplicate += 1
                        writer.write(self.codec.frame(SessionAck(last)))
                        await writer.drain()
                        continue
                    self._recv_seq[peer_worker] = decoded.seq
                    self._deliver_members(decoded.messages)
                    writer.write(self.codec.frame(SessionAck(decoded.seq)))
                    await writer.drain()
                    continue
                members = (
                    decoded.messages if isinstance(decoded, FrameBatch) else (decoded,)
                )
                self._deliver_members(members)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        except asyncio.CancelledError:
            # Shutdown path: completing normally (instead of re-raising)
            # keeps asyncio's stream-protocol completion callback quiet.
            return
        finally:
            writer.close()

    def _deliver_members(self, members: Iterable[Any]) -> None:
        """Demultiplex routed members onto the hosted destination nodes."""
        for member in members:
            if not isinstance(member, Routed):
                self.frames_unroutable += 1
                continue
            node = self.nodes.get(member.dst)
            if node is None:
                self.frames_unroutable += 1
                continue
            node.receive_from_peer(member.src, member.message)

    def _observe_worker(self, remote_worker: int) -> None:
        """Fan a worker heartbeat out to per-replica detector observations."""
        if remote_worker == self.worker:
            return  # a loopback link (fast path off): the tick watches colocated peers
        try:
            vouched = self.placement.pids_of(remote_worker)
        except IndexError:
            return
        for node in self.nodes.values():
            if node.replica.crashed:
                continue  # a down replica observes nothing
            now = node.now
            for pid in vouched:
                node.detector.heartbeat(pid, now)

    # -- client connections ------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Pump one worker-level client connection through admission control.

        Every :class:`ClientRequest` fans out to all hosted replicas —
        the same replicated-mempool broadcast the per-replica connection
        model produced, one connection per worker instead of one per
        replica.  Client frames never reach the protocol core and stay
        out of the per-replica transport counters.
        """
        self._client_writers.append(writer)
        try:
            while True:
                decoded = self.codec.decode(await read_frame(reader, _READ_LIMIT))
                members = (
                    decoded.messages if isinstance(decoded, FrameBatch) else (decoded,)
                )
                for message in members:
                    if isinstance(message, ClientRequest):
                        for node in self.nodes.values():
                            node._admit_client_request(message, writer)
        finally:
            if writer in self._client_writers:
                self._client_writers.remove(writer)

    def broadcast_client(self, frame: bytes) -> None:
        """Write one pre-framed reply batch to every client connection.

        Plain ``write`` without drain on purpose: replies are tens of
        bytes and must never let a slow client connection backpressure
        the consensus hot path.
        """
        for writer in list(self._client_writers):
            if not writer.is_closing():
                writer.write(frame)

    @property
    def has_clients(self) -> bool:
        return bool(self._client_writers)

    # -- maintenance (heartbeats + failure detection) ----------------------------
    def start_maintenance(self) -> None:
        if self._maintenance_task is None and self.loop is not None:
            self._maintenance_task = self.loop.create_task(self._maintenance())
            self._tasks.append(self._maintenance_task)

    async def _maintenance(self) -> None:
        """Periodic tick: colocated silence tracking, suspicion evaluation,
        and worker-level heartbeats on idle cross-worker links."""
        res = self.resilience
        tick = res.heartbeat_interval / 2
        while not self._stopping:
            await asyncio.sleep(tick)
            if not self._watch_hosted(tick):
                continue  # a down replica neither beats nor observes
            loop_now = self.loop.time()
            for target, session in self.sessions.items():
                if not session.connected:
                    continue
                if loop_now - session.last_payload_at < res.heartbeat_interval:
                    continue  # recent protocol traffic doubles as liveness
                if loop_now - self._last_beat.get(target, -1e9) < res.heartbeat_interval:
                    continue
                self._heartbeat_seq += 1
                session.send_control(Heartbeat(self.worker, self._heartbeat_seq))
                self._last_beat[target] = loop_now
                self.heartbeats_sent += 1

    def _watch_hosted(self, tick: float) -> bool:
        """One pass over the hosted replicas; returns whether any is alive.

        Only a *silent* (observer, peer) pair is fed to the observer's
        detector: the peer is crashed, or a chaos partition blocks the
        observer's link to it (live partitions must still raise suspicion
        like they did over loopback TCP).  Its silence clock starts at the
        last tick the pair was healthy; once the peer recovers or the
        partition heals the pair is released again, which clears the
        suspicion.  Healthy pairs are never visited, so a fault-free tick
        is O(hosted replicas).
        """
        nodes = self.nodes
        crashed = [pid for pid, node in nodes.items() if node.replica.crashed]
        healthy_at = self._ticked_at
        any_alive = False
        for pid, observer in nodes.items():
            if observer.replica.crashed:
                continue
            any_alive = True
            now = observer.now
            detector = observer.detector
            blocked = observer.chaos.blocked_links
            was_silent = self._silent.pop(pid, _NO_PEERS)
            cleared: List[Any] = []
            if crashed or blocked or was_silent:
                silent = {peer for peer in chain(crashed, blocked) if peer in nodes}
                seen_at = now if healthy_at is None else healthy_at
                for peer in silent - was_silent:
                    # What direct observation had recorded up to here: the
                    # peer seen on the last two ticks, one tick apart.
                    detector.heartbeat(peer, seen_at - tick)
                    detector.heartbeat(peer, seen_at)
                for peer in was_silent - silent:
                    suspicion = detector.release(peer, now)
                    if suspicion is not None:
                        cleared.append(suspicion)
                if silent:
                    self._silent[pid] = silent
            transitions = cleared + detector.evaluate(now)
            if transitions:
                observer.note_suspicions(transitions)
        if any_alive:
            self._ticked_at = now
        return any_alive

    # -- lifecycle ---------------------------------------------------------------
    async def stop(self) -> None:
        self._stopping = True
        for node in self.nodes.values():
            node._stopping = True
        # Refuse new connections before touching tasks: a still-running
        # peer worker's session may dial in at any moment during shutdown.
        if self._server is not None:
            self._server.close()
        for session in list(self.sessions.values()):
            await session.stop()
        # Cancel in rounds: a handler task that registered between one
        # round's cancel pass and its await pass would otherwise be
        # awaited *uncancelled* — and a live peer pumping frames into it
        # would block this fabric's shutdown forever.
        while self._tasks:
            doomed = self._tasks
            self._tasks = []
            for task in doomed:
                task.cancel()
            for task in doomed:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                except Exception as exc:  # teardown anomaly: log, don't hide
                    logger.warning(
                        "worker %d teardown task raised %r", self.worker, exc
                    )
        if self._server is not None:
            await self._server.wait_closed()

    # -- reporting ----------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe fabric stats: the O(workers²) evidence in telemetry."""
        return {
            "worker": self.worker,
            "workers": self.placement.num_workers,
            "hosted_replicas": len(self.nodes),
            "fast_path": self.fast_path,
            "sessions": len(self.sessions),
            "connections_accepted": self.connections_accepted,
            "fast_path_messages": self.fast_path_messages,
            "tcp_messages": self.tcp_messages,
            "frames_duplicate": self.frames_duplicate,
            "frames_unroutable": self.frames_unroutable,
            "heartbeats_sent": self.heartbeats_sent,
            "reconnects": sum(s.reconnects for s in self.sessions.values()),
            "frames_resent": sum(s.frames_resent for s in self.sessions.values()),
            "session_messages_dropped": self.session_messages_dropped,
        }
