"""Socket tuning and frame reading for the live runtime's TCP links.

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
import socket
from typing import Any

__all__ = [
    "SOCKET_BUFFER_BYTES",
    "read_frame",
    "tune_socket",
    "tune_writer",
]

#: Send/receive buffer request for peer and client sockets (the kernel
#: may clamp it).  1 MiB absorbs a full proposal fan-in burst at n=200
#: without backpressuring the writing coroutine.
SOCKET_BUFFER_BYTES = 1 << 20


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
