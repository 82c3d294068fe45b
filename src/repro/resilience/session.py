"""Supervised per-peer outbound sessions for the live runtime.

The pre-resilience transport opened one TCP connection per peer and gave
up on the first error: an established-then-broken link silently lost the
dequeued frame and every message after it.  :class:`PeerSession` replaces
that fire-and-forget writer with a small reliability layer:

* outbound protocol messages are sealed into sequence-numbered
  :class:`~repro.resilience.messages.SessionEnvelope` frames (batched up
  to ``max_batch`` per envelope, like the old opportunistic batch drain);
* envelopes stay in a bounded resend buffer until the peer's cumulative
  :class:`~repro.resilience.messages.SessionAck` — read back on the same
  TCP connection — covers their sequence number;
* a broken connection triggers reconnect with bounded, jittered
  exponential backoff, and every still-unacknowledged envelope is resent
  on the new connection (the receiver deduplicates by sequence number);
* when the resend buffer overflows, the *oldest* envelope is dropped and
  reported through ``on_drop`` so the node can count the loss in
  ``messages_dropped`` instead of hiding it.

Control frames (heartbeats) ride the same connection but are written
raw — never sequenced, buffered, or resent: a stale liveness beacon is
worthless.  The session is deliberately ignorant of the node: it talks
to the outside world only through the codec, an ``on_drop`` callback and
asyncio streams, which keeps it unit-testable against a plain
``asyncio.start_server`` echo peer.
"""

from __future__ import annotations

import asyncio
from collections import deque
from random import Random
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.resilience.messages import SessionEnvelope, SessionHello
from repro.runtime.net import read_frame, tune_writer

__all__ = ["PeerSession"]


class PeerSession:
    """One supervised outbound link from ``owner`` to ``peer``.

    Args:
        owner: Replica id of the sending node (announced in the hello).
        peer: Replica id of the destination (for logs/stats only).
        host, port: Where the peer listens.
        codec: A :class:`~repro.runtime.codec.WireCodec` shared with the
            owning node.
        max_batch: Most messages sealed into one envelope.
        resend_buffer: Most unacknowledged envelopes kept for resend;
            overflow drops the oldest envelope via ``on_drop``.
        reconnect_base / reconnect_cap: Exponential backoff bounds
            (seconds) between connect attempts, with seeded jitter.
        on_drop: Called with the number of messages lost whenever an
            envelope falls out of the resend buffer.
        on_reconnect: Called (no arguments) each time the link comes
            back up after a break — i.e. on every successful connect
            except the first.  The fabric uses it to put ``reconnect``
            events into the consensus trace.
        read_limit: Stream reader buffer limit for the ack channel, and
            the largest ack frame accepted on it: a larger length header
            breaks the link (and triggers reconnect) before any of the
            body is buffered.
    """

    def __init__(
        self,
        owner: int,
        peer: int,
        host: str,
        port: int,
        codec: Any,
        *,
        max_batch: int = 64,
        resend_buffer: int = 512,
        reconnect_base: float = 0.01,
        reconnect_cap: float = 0.25,
        on_drop: Optional[Callable[[int], None]] = None,
        on_reconnect: Optional[Callable[[], None]] = None,
        read_limit: int = 2**16,
    ) -> None:
        self.owner = owner
        self.peer = peer
        self.host = host
        self.port = port
        self.codec = codec
        self.max_batch = max(1, max_batch)
        self.resend_buffer = max(1, resend_buffer)
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.on_drop = on_drop
        self.on_reconnect = on_reconnect
        self.read_limit = read_limit
        # Jitter is seeded per (owner, peer) so reconnect storms decohere
        # deterministically under a fixed spec seed.
        self._rng = Random((owner << 16) ^ port ^ (peer * 2654435761))

        self._pending: List[Any] = []  # messages not yet sealed
        self._unacked: Dict[int, SessionEnvelope] = {}  # seq -> envelope (ordered)
        self._control: Deque[Any] = deque(maxlen=4)  # raw frames (heartbeats)
        self._next_seq = 1
        self._acked = 0
        self._sent_up_to = 0  # highest seq ever written on any connection
        self._wakeup = asyncio.Event()
        self._stopped = False
        self._broken = False
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._ack_task: Optional[asyncio.Task] = None

        self.ready = asyncio.Event()  # set after the first successful hello
        self.connected = False
        self.connects = 0  # successful connections (first + reconnects)
        self.reconnects = 0  # successful connections after the first
        self.frames_resent = 0  # envelopes written more than once
        self.messages_dropped = 0  # messages lost to resend-buffer overflow
        self.last_payload_at = 0.0  # loop-time of the last envelope send()

    # -- public API ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the supervising writer task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    def send(self, message: Any) -> None:
        """Queue one protocol message for sequenced, resendable delivery."""
        if self._stopped:
            return
        self._pending.append(message)
        self.last_payload_at = asyncio.get_running_loop().time()
        if len(self._pending) >= self.max_batch:
            self._seal()
        self._wakeup.set()

    def send_control(self, frame: Any) -> None:
        """Queue a control frame (heartbeat): raw, unsequenced, best-effort.

        Dropped on the floor while disconnected — a liveness beacon that
        arrives after reconnect says nothing about the silent interval.
        """
        if self._stopped or not self.connected:
            return
        self._control.append(frame)
        self._wakeup.set()

    @property
    def backlog(self) -> int:
        """Messages currently buffered (pending + unacknowledged)."""
        return len(self._pending) + sum(len(env) for env in self._unacked.values())

    async def wait_ready(self, timeout: float) -> bool:
        """Block until the first connection establishes, or ``timeout``."""
        try:
            await asyncio.wait_for(self.ready.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self) -> None:
        """Stop reconnecting and tear the link down."""
        self._stopped = True
        self._wakeup.set()
        for task in (self._task, self._ack_task):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._close_writer()
        self._task = None

    # -- internals -----------------------------------------------------------
    def _seal(self) -> None:
        """Move pending messages into sequenced envelopes, enforcing the
        resend-buffer bound (drop-oldest, reported through ``on_drop``)."""
        while self._pending:
            chunk = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._unacked[self._next_seq] = SessionEnvelope(self._next_seq, tuple(chunk))
            self._next_seq += 1
        while len(self._unacked) > self.resend_buffer:
            oldest = next(iter(self._unacked))
            lost = len(self._unacked.pop(oldest))
            self.messages_dropped += lost
            if self.on_drop is not None:
                self.on_drop(lost)

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None
        self.connected = False

    def _backoff(self, attempt: int) -> float:
        base = min(self.reconnect_cap, self.reconnect_base * (2**attempt))
        return base * (0.5 + self._rng.random())  # jitter in [0.5x, 1.5x)

    async def _run(self) -> None:
        attempt = 0
        while not self._stopped:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=self.read_limit
                )
            except (ConnectionError, OSError):
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1
                continue
            tune_writer(writer)  # TCP_NODELAY + sized buffers (see net.py)
            self._writer = writer
            self._broken = False
            try:
                writer.write(self.codec.frame(SessionHello(self.owner, self.connects)))
                await writer.drain()
            except (ConnectionError, OSError):
                self._close_writer()
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1
                continue
            if self.connects > 0:
                self.reconnects += 1
                if self.on_reconnect is not None:
                    self.on_reconnect()
            self.connects += 1
            attempt = 0
            self.connected = True
            self.ready.set()
            self._ack_task = asyncio.get_running_loop().create_task(
                self._read_acks(reader)
            )
            try:
                await self._drain_loop(writer)
            except (ConnectionError, OSError):
                pass
            finally:
                if self._ack_task is not None:
                    self._ack_task.cancel()
                    try:
                        await self._ack_task
                    except (asyncio.CancelledError, Exception):
                        pass
                    self._ack_task = None
                self._close_writer()
            if not self._stopped:
                await asyncio.sleep(self._backoff(attempt))
                attempt += 1

    async def _drain_loop(self, writer: asyncio.StreamWriter) -> None:
        """Write control frames and (re)send envelopes until the link breaks.

        ``cursor`` tracks the highest sequence written *on this
        connection*; it starts at the acknowledged floor, so everything
        the peer never acked goes out again after a reconnect.

        Writes coalesce: every ready envelope above the cursor goes into
        the transport buffer back-to-back and the loop drains *once* —
        under a proposal burst the kernel sees one large write instead of
        one syscall-plus-drain round trip per envelope.  Each envelope is
        still its own wire frame (the receiver acks per sequence number),
        and the resend buffer bounds how much one coalesced flush can
        hold.
        """
        cursor = self._acked
        while not self._stopped and not self._broken:
            wrote = False
            while self._control:
                writer.write(self.codec.frame(self._control.popleft()))
                wrote = True
            if self._pending:
                self._seal()
            for seq in [s for s in self._unacked if s > cursor]:
                envelope = self._unacked[seq]
                writer.write(self.codec.frame(envelope))
                if seq <= self._sent_up_to:
                    self.frames_resent += 1
                else:
                    self._sent_up_to = seq
                cursor = seq
                wrote = True
            if wrote:
                await writer.drain()
            else:
                await self._wakeup.wait()
                self._wakeup.clear()

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        """Consume cumulative acks written back on this connection."""
        from repro.resilience.messages import SessionAck  # local: avoid cycle noise

        try:
            while True:
                message = self.codec.decode(await read_frame(reader, self.read_limit))
                if isinstance(message, SessionAck) and message.acked > self._acked:
                    self._acked = message.acked
                    for seq in [s for s in self._unacked if s <= self._acked]:
                        del self._unacked[seq]
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            # Waking the writer lets it notice the dead link even if it is
            # idle-parked on the wakeup event.
            self._broken = True
            self._wakeup.set()
