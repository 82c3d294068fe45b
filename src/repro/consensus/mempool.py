"""Client request model: a shared mempool with latency accounting.

The paper's clients send requests to all replicas and wait for a quorum of
replies; throughput is measured at the replicas and latency at the
clients.  The simulator folds this into a single shared mempool object:
client processes submit timestamped requests, leaders batch them into
blocks, and the first commit of each block records per-request latency.

The live runtime adds **admission control** on top: open-loop clients
keep submitting no matter how far behind the cluster falls, so the pool
bounds its pending queue (``max_pending``) and each client's in-flight
requests (``client_window``), refusing the rest via :meth:`admit` instead
of growing without bound.  Refusals are counted, not silent — the
offered-load sweep plots them as the saturation signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.simnet.metrics import MetricsCollector

__all__ = ["ADMIT_STATES", "Request", "Mempool"]

#: Every verdict :meth:`Mempool.admit` can return.
ADMIT_STATES = ("admitted", "duplicate", "dropped", "deferred")


@dataclass(frozen=True, slots=True)
class Request:
    """A single client request.

    Attributes:
        request_id: Globally unique identifier.
        submitted_at: Virtual time the client issued the request.
        size_bytes: Payload size in bytes.
        client_id: The issuing client (for per-client statistics).
    """

    request_id: int
    submitted_at: float
    size_bytes: int
    client_id: int = 0


@lru_cache(maxsize=1, typed=True)
def _bulk_requests(
    first: int, cursor: int, count: int, time: float, size_bytes: int, clients: int
) -> Tuple[Request, ...]:
    """The requests of one :meth:`Mempool.submit_many` call.

    They are a pure function of the arguments and immutable, so the n
    replicated pools of one process, all preloading the same workload
    into the same fresh state, share one tuple instead of building n
    copies (10^5 records each at benchmark volumes).  Only the latest
    batch is kept; ``typed`` keeps a ``time`` of ``0`` and ``0.0`` apart.
    """
    return tuple(
        [
            Request(
                request_id=first + index,
                submitted_at=time,
                size_bytes=size_bytes,
                client_id=(cursor + index) % clients,
            )
            for index in range(count)
        ]
    )


class Mempool:
    """Pending client requests shared by all replicas.

    A real deployment would gossip requests among replicas; since that is
    orthogonal to vote aggregation, the simulation uses one logical pool,
    which is equivalent to every replica having seen every request.

    The live runtime gives every replica its own pool, so what one pool
    keeps is multiplied by the committee size.  A pool therefore keeps
    what is in flight and little else:

    * a :meth:`submit_many` preload stays one shared ``(first_id, batch)``
      segment, with no per-id record;
    * a per-id record (from :meth:`submit` or :meth:`admit`) is dropped
      at its first commit;
    * committed ids are a floor plus a set above it: every id in
      ``[0, _floor)`` is committed, and the floor advances over the
      contiguous committed prefix, so in-order ids leave the set again.
    """

    def __init__(
        self,
        metrics: Optional[MetricsCollector] = None,
        track_reservations: bool = False,
        max_pending: int = 0,
        client_window: int = 0,
    ) -> None:
        self.metrics = metrics or MetricsCollector()
        self._pending: List[Request] = []
        self._in_flight: Dict[str, Tuple[Request, ...]] = {}
        self._requests: Dict[int, Request] = {}
        #: ``(first_id, batch)`` per :meth:`submit_many` call: request
        #: ``first_id + i`` is ``batch[i]``.
        self._segments: List[Tuple[int, Tuple[Request, ...]]] = []
        # Committed ids: all of [0, _floor), plus the set above the floor.
        self._floor = 0
        self._committed: Set[int] = set()
        self._committed_blocks: Set[str] = set()
        #: Block ids in first-commit order (the finalized chain prefix as
        #: this pool observed it) — what the cross-runtime equivalence
        #: tests compare between the sim and live runtimes.
        self.committed_order: List[str] = []
        self._next_id = 0
        # Replicated-pool mode (live runtime): every replica holds its own
        # copy of the client stream, so requests another leader already
        # batched must be *reserved* out of the local pending queue or two
        # leaders would propose overlapping payloads.  The simulator's
        # single shared pool never needs this (the leader's ``next_batch``
        # physically removes the requests), so it defaults off and the
        # shared-pool fast path is untouched.
        self._track_reservations = track_reservations
        self._reserved: Set[int] = set()
        # Admission control (live open-loop path; 0 disables a bound).
        self.max_pending = max_pending
        self.client_window = client_window
        self._client_inflight: Dict[int, int] = {}
        self.admission: Dict[str, int] = {
            "admitted": 0,
            "duplicate": 0,
            "dropped": 0,
            "deferred": 0,
            "peak_pending": 0,
        }
        #: Called with the newly committed requests on each first commit
        #: (the live node hooks client reply routing here).
        self.on_commit: Optional[Callable[[List[Request]], None]] = None
        self._rr_cursor = 0

    # -- client side -----------------------------------------------------------
    def submit(self, time: float, size_bytes: int, client_id: int = 0) -> Request:
        request = Request(
            request_id=self._next_id,
            submitted_at=time,
            size_bytes=size_bytes,
            client_id=client_id,
        )
        self._next_id += 1
        self._pending.append(request)
        self._requests[request.request_id] = request
        return request

    def submit_many(
        self, count: int, time: float, size_bytes: int, num_clients: int = 1
    ) -> int:
        """Bulk :meth:`submit`: ``count`` identical-size requests at ``time``.

        Requests are attributed round-robin to ``num_clients`` logical
        clients, matching what ``count`` sequential :meth:`submit` calls
        would produce — but built in one pass, which matters when a
        preloaded workload pushes 10^5 requests before a run starts.
        The round-robin cursor persists across calls, so two
        ``submit_many`` calls attribute exactly like one call of the
        combined count (it used to restart at client 0 every call,
        skewing per-client stats toward the low client ids).
        Returns the number of submitted requests.
        """
        if count <= 0:
            return 0
        clients = max(num_clients, 1)
        first = self._next_id
        cursor = self._rr_cursor
        batch = _bulk_requests(first, cursor, count, time, size_bytes, clients)
        self._next_id = first + count
        self._rr_cursor = (cursor + count) % clients
        self._pending.extend(batch)
        self._segments.append((first, batch))
        return count

    def admit(
        self, request_id: int, client_id: int, size_bytes: int, now: float
    ) -> str:
        """Admission-controlled :meth:`submit` for externally-idded requests.

        The live open-loop path: the client computes ``request_id`` itself
        (so every replica that admits the broadcast copy agrees on it) and
        the pool decides one of :data:`ADMIT_STATES`:

        * ``admitted`` — enqueued; counts against the client's window.
        * ``duplicate`` — already known (possibly committed, or carried by
          a committed block this pool never saw the request of); not
          requeued.
        * ``deferred`` — the client already has ``client_window`` requests
          in flight; backpressure, the client should slow down.
        * ``dropped`` — the pending queue is at ``max_pending``; overload.
        """
        if (
            request_id in self._requests
            or self._floor > request_id >= 0
            or request_id in self._committed
            or (self._segments and self._preloaded(request_id) is not None)
        ):
            self.admission["duplicate"] += 1
            return "duplicate"
        if (
            self.client_window > 0
            and self._client_inflight.get(client_id, 0) >= self.client_window
        ):
            self.admission["deferred"] += 1
            return "deferred"
        if self.max_pending > 0 and len(self._pending) >= self.max_pending:
            self.admission["dropped"] += 1
            return "dropped"
        request = Request(
            request_id=request_id,
            submitted_at=now,
            size_bytes=size_bytes,
            client_id=client_id,
        )
        self._pending.append(request)
        self._requests[request_id] = request
        self._client_inflight[client_id] = self._client_inflight.get(client_id, 0) + 1
        self.admission["admitted"] += 1
        if len(self._pending) > self.admission["peak_pending"]:
            self.admission["peak_pending"] = len(self._pending)
        return "admitted"

    def admission_summary(self) -> Dict[str, int]:
        """JSON-safe admission counters plus the current queue depth."""
        summary = dict(self.admission)
        summary["pending"] = len(self._pending)
        return summary

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def submitted_count(self) -> int:
        return self._next_id

    @property
    def committed_count(self) -> int:
        """How many distinct request ids :meth:`is_committed` holds."""
        return self._floor + len(self._committed)

    def is_committed(self, request_id: int) -> bool:
        """Whether ``request_id`` already reached a first commit.

        Used by the live node to answer duplicate client retries
        immediately: a re-sent request whose original already committed
        gets its reply on the spot instead of silence.
        """
        return self._floor > request_id >= 0 or request_id in self._committed

    def _preloaded(self, request_id: int) -> Optional[Request]:
        """The :meth:`submit_many` record of ``request_id``, if any."""
        for first, batch in self._segments:
            if first <= request_id < first + len(batch):
                return batch[request_id - first]
        return None

    def _known(self, ids: List[int]) -> List[Request]:
        """The records of ``ids`` this pool holds, in order, dropping the
        per-id ones (``ids`` are distinct and just committed)."""
        requests = self._requests
        known = []
        for rid in ids:
            request = requests.pop(rid, None)
            if request is None and self._segments:
                request = self._preloaded(rid)
            if request is not None:
                known.append(request)
        return known

    # -- leader side --------------------------------------------------------------
    def next_batch(self, max_size: int) -> Tuple[Request, ...]:
        """Remove and return up to ``max_size`` pending requests."""
        if not self._track_reservations:
            batch = tuple(self._pending[:max_size])
            del self._pending[: len(batch)]
            return batch
        batch: List[Request] = []
        taken = 0
        reserved = self._reserved
        committed = self._committed
        floor = self._floor
        for taken, request in enumerate(self._pending, start=1):
            rid = request.request_id
            if rid in reserved or floor > rid >= 0 or rid in committed:
                continue
            batch.append(request)
            if len(batch) >= max_size:
                break
        else:
            taken = len(self._pending)
        del self._pending[:taken]
        return tuple(batch)

    def observe_proposal(self, block_id: str, payload: Tuple[int, ...]) -> None:
        """Note that a (possibly remote) leader batched ``payload``.

        In replicated-pool mode the payload's request ids are reserved so
        this replica's own ``next_batch`` skips them; in shared-pool mode
        (the simulator) this is a no-op.
        """
        if not self._track_reservations:
            return
        self._reserved.update(payload)

    def track_block(self, block_id: str, batch: Tuple[Request, ...]) -> None:
        """Remember which requests a proposed block carries."""
        self._in_flight[block_id] = batch

    def requeue_block(self, block_id: str) -> None:
        """Return a failed block's requests to the pending queue."""
        batch = self._in_flight.pop(block_id, ())
        uncommitted = [r for r in batch if not self.is_committed(r.request_id)]
        self._reserved.difference_update(r.request_id for r in uncommitted)
        self._pending = uncommitted + self._pending

    # -- commit notifications --------------------------------------------------------
    def mark_committed(self, block_id: str, payload: Tuple[int, ...], time: float) -> bool:
        """Record the first commit of ``block_id``.

        Returns True if this call was the first commit (latency and
        throughput are recorded exactly once per block).
        """
        if block_id in self._committed_blocks:
            return False
        self._committed_blocks.add(block_id)
        self.committed_order.append(block_id)
        self._in_flight.pop(block_id, None)
        floor = self._floor
        committed = self._committed
        # Every payload id is marked, known to this pool or not: a replica
        # that caught up by sync must still refuse a late copy as a duplicate.
        fresh = []
        for rid in payload:
            if not floor > rid >= 0 and rid not in committed:
                committed.add(rid)
                fresh.append(rid)
        while floor in committed:
            committed.remove(floor)
            floor += 1
        self._floor = floor
        self._reserved.difference_update(fresh)
        newly_committed = self._known(fresh)
        if self._client_inflight:
            inflight = self._client_inflight
            for request in newly_committed:
                held = inflight.get(request.client_id, 0)
                if held > 1:
                    inflight[request.client_id] = held - 1
                elif held:
                    del inflight[request.client_id]
        self.metrics.record_latencies(time, [time - r.submitted_at for r in newly_committed])
        self.metrics.record_commit(time, len(newly_committed))
        if self.on_commit is not None and newly_committed:
            self.on_commit(newly_committed)
        return True
