"""Per-link traffic shaping for live nodes.

A :class:`LinkShaper` reproduces, on one node's *outbound* traffic, the
three link properties the simulated network applies on every send —
probabilistic loss, model-sampled propagation latency and per-link FIFO
bandwidth queuing — in the same order the simulator applies them, from a
node-local seeded RNG.  The live runtime asks it one question per
message: *drop, or deliver after how long?*

The shaped delay is additive on top of the real localhost one-way delay:
one loop iteration on the colocated fast path, and about 60–110 µs for
an 8-byte frame through asyncio streams on loopback TCP (2-vCPU Linux
host).  The live loop waits with microsecond resolution
(:func:`repro.runtime.net.run_loop`), so on that host a shaped 0.5 ms
hop arrives after about 0.6 ms; stock asyncio rounds each idle wait up
to whole milliseconds and delivered the same hop after about 1.2 ms.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simnet.latency import LatencyModel, LinkBandwidth

__all__ = ["LinkShaper", "shaper_seed"]


def shaper_seed(seed: int, pid: int) -> int:
    """The per-node shaping RNG seed: decorrelated across nodes and from
    the crash/attacker draws (which use the raw spec seed), stable across
    task and worker-subprocess deployments."""
    return (seed * 0x9E3779B1 + pid * 7919 + 0x5DEECE66D) & 0xFFFFFFFFFF


class LinkShaper:
    """Shapes one node's outbound messages to match a scenario topology.

    Args:
        pid: The owning process id (the ``src`` of every shaped link).
        latency_model: Propagation-delay model from the compiled scenario
            (``None`` adds no latency).
        loss_probability: Probability of dropping any individual message.
        bandwidth_bytes_per_sec: Per-link capacity with FIFO queuing
            (``None`` disables transmission delay).
        seed: Scenario seed; the node RNG derives via :func:`shaper_seed`.
    """

    def __init__(
        self,
        pid: int,
        latency_model: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        bandwidth_bytes_per_sec: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if not 0 <= loss_probability < 1:
            raise ValueError("loss probability must be in [0, 1)")
        self.pid = pid
        self.latency_model = latency_model
        self.loss_probability = loss_probability
        self.bandwidth = (
            LinkBandwidth(bandwidth_bytes_per_sec) if bandwidth_bytes_per_sec else None
        )
        self.rng = random.Random(shaper_seed(seed, pid))

    def shape(self, dst: int, size_bytes: int, now: float) -> Optional[float]:
        """Decide one outbound message's fate on the link ``pid -> dst``.

        Returns ``None`` to drop the message (probabilistic loss), or the
        delay in seconds to hold it before the real send.  Mutates the
        per-link bandwidth queue, so calls must happen in send order.
        """
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return None
        delay = 0.0
        if self.latency_model is not None:
            delay = self.latency_model.sample(self.rng, self.pid, dst)
        if self.bandwidth is not None:
            delay += self.bandwidth.transmission_delay(self.pid, dst, size_bytes, now)
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinkShaper(pid={self.pid}, loss={self.loss_probability}, "
            f"latency={type(self.latency_model).__name__ if self.latency_model else None})"
        )
