"""The live runtime's event loop, socket tuning and frame reading.

Every live event loop — the task-mode cluster and each ``--procs``
worker — is built by :func:`run_loop`.  Stock asyncio on Linux waits in
``epoll_wait``, whose timeout is whole milliseconds, so
``selectors.EpollSelector`` rounds every idle wait *up* to the next
millisecond: on a stock loop a 0.5 ms shaped hop or timer fires after
1 ms, and a live cluster runs its links about twice as slow as their
spec.
:class:`MicrosecondEpollSelector` keeps epoll for the I/O but does the
timed wait with ``select()`` on the epoll descriptor itself, which takes
a microsecond timeout; epoll(7) makes that descriptor readable as soon
as any registered fd is ready, so socket I/O and
``call_soon_threadsafe`` still wake the loop at once.  Where the
platform's default selector is not epoll (kqueue already waits to the
nanosecond) the stock selector is used.

Consensus traffic is many small frames (votes, acks, heartbeats are tens
of bytes) punctuated by proposal bursts, exchanged over long-lived
connections.  Default socket settings fight that profile twice over:
Nagle's algorithm holds small frames back waiting for acks — directly in
the commit critical path — and default send/receive buffers are sized
for generic streams, not for a worker pair multiplexing hundreds of
replicas' traffic through one connection.  Every peer and client socket
the runtime opens (or accepts) goes through :func:`tune_socket`:

* ``TCP_NODELAY`` — small vote/ack frames leave immediately;
* ``SO_SNDBUF`` / ``SO_RCVBUF`` sized to :data:`SOCKET_BUFFER_BYTES`, so
  a proposal burst for a 200-replica committee queues in the kernel
  instead of blocking the event loop on ``drain()``.

All options are best-effort: a platform that rejects one (or a test
double without a real socket) is left at its defaults rather than
failing the connection.

The module also owns the reading half of the frame format:
:meth:`repro.runtime.codec.WireCodec.frame` writes a 4-byte big-endian
length prefix and :func:`read_frame` is the one place that consumes it,
for peer links, client links and the session ack channel alike.  It
lives here rather than in the codec because the session layer cannot
import the codec (the codec imports the session layer's messages).
"""

from __future__ import annotations

import asyncio
import select
import selectors
import socket
from typing import Any, Awaitable, List, Optional, Tuple, TypeVar

__all__ = [
    "SOCKET_BUFFER_BYTES",
    "read_frame",
    "run_loop",
    "tune_socket",
    "tune_writer",
]

_T = TypeVar("_T")

#: Send/receive buffer request for peer and client sockets (the kernel
#: may clamp it).  1 MiB absorbs a full proposal fan-in burst at n=200
#: without backpressuring the writing coroutine.
SOCKET_BUFFER_BYTES = 1 << 20

#: ``select()`` can only watch descriptors below this (the C library's
#: fixed ``fd_set`` size, which the ``select`` module does not export).
FD_SETSIZE = 1024


if hasattr(selectors, "EpollSelector"):

    class MicrosecondEpollSelector(selectors.EpollSelector):
        """An epoll selector whose timed wait is not rounded to milliseconds.

        A positive timeout is spent in ``select()`` on the epoll
        descriptor (microsecond resolution); the ready events are then
        collected with a zero-timeout epoll poll.  If the epoll
        descriptor itself is at or above :data:`FD_SETSIZE`, ``select()``
        cannot watch it and this selector waits exactly like its parent.
        """

        def __init__(self) -> None:
            super().__init__()
            epoll_fd = self.fileno()
            self._wait_on: Optional[List[int]] = [epoll_fd] if epoll_fd < FD_SETSIZE else None

        def select(
            self, timeout: Optional[float] = None
        ) -> List[Tuple[selectors.SelectorKey, int]]:
            if timeout is not None and timeout > 0 and self._wait_on is not None:
                if not select.select(self._wait_on, [], [], timeout)[0]:
                    return []
                timeout = 0
            return super().select(timeout)


def _selector() -> selectors.BaseSelector:
    if selectors.DefaultSelector is getattr(selectors, "EpollSelector", None):
        return MicrosecondEpollSelector()
    return selectors.DefaultSelector()


def run_loop(main: Awaitable[_T]) -> _T:
    """``asyncio.run(main)`` on a fresh loop with the finest-resolution selector.

    Works on Python 3.10, which has no ``asyncio.Runner(loop_factory=…)``,
    and keeps ``asyncio.run``'s cleanup: leftover tasks are cancelled,
    async generators and the default executor are shut down, and the
    loop is closed.
    """
    loop = asyncio.SelectorEventLoop(_selector())
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(asyncio.gather(*leftover, return_exceptions=True))
            for task in leftover:
                if not task.cancelled() and task.exception() is not None:
                    loop.call_exception_handler(
                        {
                            "message": "unhandled exception during run_loop() shutdown",
                            "exception": task.exception(),
                            "task": task,
                        }
                    )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()


def tune_socket(sock: socket.socket) -> None:
    """Apply the live runtime's TCP tuning to one connected socket.

    Best-effort by design: each option is attempted independently and an
    unsupported one is skipped, so the same code path serves Linux CI,
    macOS laptops and test doubles.
    """
    for level, option, value in (
        (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1),
        (socket.SOL_SOCKET, socket.SO_SNDBUF, SOCKET_BUFFER_BYTES),
        (socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_BUFFER_BYTES),
    ):
        try:
            sock.setsockopt(level, option, value)
        except (OSError, ValueError):  # pragma: no cover - platform quirk
            pass


def tune_writer(writer: Any) -> None:
    """Tune the socket behind an ``asyncio.StreamWriter`` (if it has one)."""
    try:
        sock = writer.get_extra_info("socket")
    except AttributeError:
        return
    if isinstance(sock, socket.socket):
        tune_socket(sock)


async def read_frame(reader: asyncio.StreamReader, limit: int) -> bytes:
    """Read one length-prefixed frame body from ``reader``.

    The 4-byte header comes from the peer, so it is checked against
    ``limit`` *before* the body is awaited: an oversized header raises
    :class:`ConnectionError` without buffering a byte of the body.  A
    stream that ends mid-frame raises :class:`asyncio.IncompleteReadError`
    from the underlying ``readexactly``.
    """
    size = int.from_bytes(await reader.readexactly(4), "big")
    if size > limit:
        raise ConnectionError(f"oversized frame ({size} bytes, limit {limit})")
    return await reader.readexactly(size)
