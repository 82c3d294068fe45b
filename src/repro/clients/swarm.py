"""The open-loop client swarm driving a live cluster over TCP.

A :class:`ClientSwarm` hosts one *shard* of the logical client
population — clients ``shard_offset, shard_offset + shard_step, ...`` of
``num_clients`` — as asyncio tasks inside whatever process calls it: the
task-mode event loop runs the whole population (shard ``0 :: 1``), and
each ``--procs`` worker runs its own interleaved slice, so thousands of
clients spread across worker subprocesses without any coordination
beyond the shard arithmetic.

Each client draws gaps from its own seeded
:class:`~repro.clients.arrivals.ArrivalModel` (per-client rate =
aggregate rate / population) and *broadcasts* every request to all
replicas over one shared per-replica connection — the paper's client
model, and what makes the replicated mempools see identical request
streams.  Requests are fire-and-forget (open loop): the swarm never
waits for a reply before issuing the next request, so offered load stays
at the configured rate even when the cluster saturates.  Completion is
the *first* :class:`~repro.clients.messages.ClientReply` from any
replica; the send-to-first-reply time lands in a mergeable
:class:`~repro.clients.stats.LatencyDigest`.

Replica connections self-heal: a refused or broken connection backs off
and redials while the outbound queue keeps absorbing traffic (bounded —
overflow is counted, never silent), so a crash-restarted replica starts
seeing client traffic again the moment it is back.
"""

from __future__ import annotations

import asyncio
import logging
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.clients.arrivals import client_rng, make_arrival
from repro.clients.messages import ClientHello, ClientReject, ClientReply, ClientRequest
from repro.clients.stats import LatencyDigest
from repro.runtime.net import read_frame, tune_writer

if TYPE_CHECKING:  # codec imports this package; resolve the cycle lazily
    from repro.runtime.codec import WireCodec

__all__ = ["ClientSwarm"]

logger = logging.getLogger("repro.clients.swarm")

#: Most frames buffered per replica link while disconnected or backlogged.
_MAX_OUTBOX = 4096

#: Most queued frames coalesced into one TCP write.
_WRITE_BATCH = 64

#: Reconnect backoff bounds for replica links, seconds.
_RECONNECT_BASE = 0.05
_RECONNECT_CAP = 0.5

#: Frame read limit (a reply/reject frame is tens of bytes).
_READ_LIMIT = 1 << 20


class _ReplicaLink:
    """One self-healing client connection to one replica."""

    def __init__(self, swarm: "ClientSwarm", pid: int, host: str, port: int) -> None:
        self.swarm = swarm
        self.pid = pid
        self.host = host
        self.port = port
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=_MAX_OUTBOX)
        self.dropped = 0  # outbox overflow, counted per link
        self.connects = 0
        self._task: Optional[asyncio.Task] = None
        self._stopping = False

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def send(self, frame: bytes) -> None:
        """Queue one pre-framed request (drops on overflow, counted)."""
        try:
            self.outbox.put_nowait(frame)
        except asyncio.QueueFull:
            self.dropped += 1

    async def stop(self) -> None:
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        backoff = _RECONNECT_BASE
        while not self._stopping:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=_READ_LIMIT
                )
                tune_writer(writer)  # TCP_NODELAY: requests must not sit in Nagle
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _RECONNECT_CAP)
                continue
            backoff = _RECONNECT_BASE
            self.connects += 1
            try:
                writer.write(self.swarm.hello_frame)
                await writer.drain()
                pump = asyncio.gather(self._read_loop(reader), self._write_loop(writer))
                try:
                    await pump
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    pump.cancel()
                    # Collect the survivor so its exception (if any) is seen.
                    try:
                        await pump
                    except (
                        asyncio.CancelledError,
                        asyncio.IncompleteReadError,
                        ConnectionError,
                        OSError,
                    ):
                        pass
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            frame = await read_frame(reader, _READ_LIMIT)
            self.swarm._on_frame(self.swarm.codec.decode(frame))

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        while True:
            chunk: List[bytes] = [await self.outbox.get()]
            while len(chunk) < _WRITE_BATCH:
                try:
                    chunk.append(self.outbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            writer.write(b"".join(chunk))
            await writer.drain()


class ClientSwarm:
    """One shard of an open-loop client population (see module docstring).

    Args:
        addresses: Endpoint map of the cluster — key-agnostic, so it
            works unchanged whether entries are keyed by replica pid
            (legacy) or by worker id (the scale-out fabric's one listener
            per worker); every request is broadcast to all endpoints.
        rate: *Aggregate* request rate of the whole population; each
            client runs at ``rate / num_clients``.
        payload_size: Modeled payload bytes per request.
        num_clients: Size of the logical client population.
        arrival: Arrival model name (see ``ARRIVAL_MODELS``).
        seed: Workload seed; per-client RNGs derive from it.
        burst_factor / period: Shape knobs of the time-varying models.
        shard_offset / shard_step: This process hosts clients
            ``shard_offset :: shard_step`` of the population.
        incarnation: Restart generation of this shard (cold-started
            workers bump it so fresh request ids never collide).
        codec: Wire codec; a default (curve-less) codec suffices because
            client frames carry only ints and strings.
    """

    def __init__(
        self,
        addresses: Mapping[int, Tuple[str, int]],
        *,
        rate: float,
        payload_size: int = 64,
        num_clients: int = 4,
        arrival: str = "poisson",
        seed: int = 42,
        burst_factor: float = 4.0,
        period: float = 1.0,
        shard_offset: int = 0,
        shard_step: int = 1,
        incarnation: int = 0,
        codec: Optional[WireCodec] = None,
    ) -> None:
        from repro.runtime.codec import WireCodec

        if shard_step < 1 or not 0 <= shard_offset < max(shard_step, 1):
            raise ValueError("shard must satisfy 0 <= offset < step")
        self.codec = codec if codec is not None else WireCodec()
        self.addresses = dict(addresses)
        self.rate = rate
        self.payload_size = payload_size
        self.num_clients = max(num_clients, 1)
        self.arrival = arrival
        self.seed = seed
        self.burst_factor = burst_factor
        self.period = period
        self.shard_offset = shard_offset
        self.shard_step = shard_step
        self.incarnation = incarnation
        self.client_ids = list(range(self.num_clients))[shard_offset::shard_step]
        self.hello_frame = self.codec.frame(
            ClientHello(client_id=shard_offset, incarnation=incarnation)
        )
        # -- stats -----------------------------------------------------------
        self.issued = 0
        self.completed = 0
        self.reject_frames: Dict[str, int] = {}
        self.digest = LatencyDigest()
        self._pending: Dict[int, float] = {}  # request id -> send loop-time
        self._links: Dict[int, _ReplicaLink] = {}
        self._tasks: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Dial every replica and start this shard's client tasks."""
        self._loop = asyncio.get_running_loop()
        for pid, (host, port) in self.addresses.items():
            link = _ReplicaLink(self, pid, host, port)
            self._links[pid] = link
            link.start()
        per_client_rate = self.rate / self.num_clients
        for client_id in self.client_ids:
            self._tasks.append(self._loop.create_task(self._client(client_id, per_client_rate)))

    async def stop(self) -> None:
        """Stop issuing, tear down links; stats remain readable."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as exc:  # a client must never kill the harness
                logger.warning("client task raised %r", exc)
        self._tasks = []
        for link in self._links.values():
            await link.stop()

    # -- the open loop ------------------------------------------------------------
    async def _client(self, client_id: int, per_client_rate: float) -> None:
        rng = client_rng(self.seed, client_id)
        model = make_arrival(
            self.arrival,
            per_client_rate,
            burst_factor=self.burst_factor,
            period=self.period,
        )
        loop = self._loop
        assert loop is not None
        started = loop.time()
        seq = 0
        id_base = (self.incarnation << 48) | (client_id << 28)
        while True:
            gap = model.gap(rng, loop.time() - started)
            await asyncio.sleep(gap)
            seq += 1
            request_id = id_base | seq
            frame = self.codec.frame(
                ClientRequest(
                    request_id=request_id,
                    client_id=client_id,
                    payload_size=self.payload_size,
                )
            )
            self._pending[request_id] = loop.time()
            self.issued += 1
            for link in self._links.values():
                link.send(frame)

    # -- inbound ------------------------------------------------------------------
    def _on_frame(self, decoded: Any) -> None:
        from repro.runtime.codec import FrameBatch

        members = decoded.messages if isinstance(decoded, FrameBatch) else (decoded,)
        for message in members:
            if isinstance(message, ClientReply):
                sent_at = self._pending.pop(message.request_id, None)
                if sent_at is not None and self._loop is not None:
                    self.completed += 1
                    self.digest.record(self._loop.time() - sent_at)
            elif isinstance(message, ClientReject):
                self.reject_frames[message.reason] = (
                    self.reject_frames.get(message.reason, 0) + 1
                )

    # -- reporting ----------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe shard stats; shards merge via :func:`merge_summaries`."""
        return {
            "shard": [self.shard_offset, self.shard_step],
            "clients": len(self.client_ids),
            "incarnation": self.incarnation,
            "issued": self.issued,
            "completed": self.completed,
            "unresolved": len(self._pending),
            "rejected_frames": dict(self.reject_frames),
            "link_drops": sum(link.dropped for link in self._links.values()),
            "link_connects": sum(link.connects for link in self._links.values()),
            "latency": self.digest.to_dict(),
        }


def merge_summaries(shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard swarm summaries into one cluster-wide record.

    Counters add, reject reasons add per key, and the latency digests
    merge exactly (see :class:`LatencyDigest`); the merged record keeps
    the same schema as a single shard's summary, minus the shard key.
    """
    merged: Dict[str, Any] = {
        "shards": len(shards),
        "clients": 0,
        "issued": 0,
        "completed": 0,
        "unresolved": 0,
        "rejected_frames": {},
        "link_drops": 0,
        "link_connects": 0,
    }
    digest = LatencyDigest()
    for shard in shards:
        for key in ("clients", "issued", "completed", "unresolved", "link_drops", "link_connects"):
            merged[key] += int(shard.get(key, 0))
        for reason, count in dict(shard.get("rejected_frames", {})).items():
            merged["rejected_frames"][reason] = (
                merged["rejected_frames"].get(reason, 0) + int(count)
            )
        digest.merge(LatencyDigest.from_dict(shard.get("latency", {})))
    merged["latency"] = digest.to_dict()
    return merged
