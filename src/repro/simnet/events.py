"""Event queue and virtual clock for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

__all__ = ["EventHandle", "EventQueue", "Simulator"]


class EventHandle:
    """A cancellable scheduled event: the event itself and its handle.

    Only events scheduled through :meth:`EventQueue.push` (timers, fault
    schedules) get one; fire-and-forget events (:meth:`Simulator.post` /
    :meth:`Simulator.post_at`: message deliveries, CPU-backlog
    re-deliveries, client arrivals) sit in the heap as bare tuples.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        queue: "Optional[EventQueue]",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The queue whose heap still holds this event; ``None`` once popped.
        self._queue = queue

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            # Cancelling an event that already fired (popped) must not
            # touch the queue's count — it no longer occupies the heap.  The
            # pacemaker does this constantly (a timeout handler re-arms
            # the timer that just fired), and a spurious count change
            # used to starve far-future events such as restart schedules.
            if self._queue is not None:
                self._queue._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventHandle(time={self.time}, cancelled={self.cancelled})"


class EventQueue:
    """A deterministic min-heap of timestamped events.

    Ties are broken by insertion order so runs are fully reproducible.
    Heap entries are ``(time, sequence, handle_or_None, callback, args)``
    tuples, ordered by C-level tuple comparison (the unique sequence number
    guarantees nothing past it is ever compared).  Only cancellable events
    carry an :class:`EventHandle`; a cancelled one stays in the heap until
    it surfaces and is discarded.  ``len()`` and truthiness count *live*
    (non-cancelled) events, so ``while queue: queue.pop()`` always
    terminates cleanly.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        # Cancelled handles still in the heap: len() == len(heap) - this.
        self._cancelled = 0

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a cancellable event."""
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._heap, (time, next(self._counter), handle, callback, args))
        return handle

    def pop(self) -> EventHandle:
        """Pop the earliest live event, discarding cancelled ones."""
        while True:
            time, _, handle, callback, args = heapq.heappop(self._heap)
            if handle is None:
                return EventHandle(time, callback, args, None)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._queue = None
            return handle

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][2] is not None and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled


class Simulator:
    """The virtual clock driving all processes and the network.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.5, callback, arg1)
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events fired so far; a :meth:`run` in progress adds its own when it returns."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        return self._queue.push(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise ValueError("cannot schedule events in the past")
        return self._queue.push(time, callback, *args)

    # The two fire-and-forget verbs carry nearly every event of a run
    # (message deliveries, CPU-backlog re-deliveries): one heap tuple with
    # no handle, pushed here rather than through another call.
    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule`, but fire-and-forget: no handle is made."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        queue = self._queue
        heapq.heappush(queue._heap, (self._now + delay, next(queue._counter), None, callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule_at`, but fire-and-forget: no handle is made."""
        if time < self._now:
            raise ValueError("cannot schedule events in the past")
        queue = self._queue
        heapq.heappush(queue._heap, (time, next(queue._counter), None, callback, args))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until``, or ``max_events``.

        Stopping at ``until`` (or draining the queue before it) leaves the
        clock at ``until``; stopping after ``max_events`` leaves it at the
        last event fired.  The clock never moves backwards: an ``until``
        earlier than :attr:`now` fires nothing and keeps the clock.
        Returns the virtual time at which the run stopped.
        """
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        horizon = float("inf") if until is None else until
        # A max_events below one still stops after one event, as it always has.
        budget = -1 if max_events is None else max(max_events, 1)
        processed = 0
        try:
            while heap:
                entry = pop(heap)
                time, _, handle, callback, args = entry
                if time > horizon:
                    heapq.heappush(heap, entry)  # same tuple, same place in the order
                    break
                if handle is not None:
                    if handle.cancelled:
                        queue._cancelled -= 1
                        continue
                    handle._queue = None
                self._now = time
                callback(*args)
                processed += 1
                if processed == budget:
                    return self._now
        finally:
            self._events_processed += processed
        if until is not None and self._now < until:
            self._now = until
        return self._now
