"""Network latency models.

The paper's cluster has sub-millisecond latency on a 10 Gbps switch; the
experiment configurations therefore default to a normal distribution with
a 0.5 ms mean.  All models are seeded and deterministic.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "NormalLatency",
    "LinkBandwidth",
]


class LatencyModel(ABC):
    """Samples one-way message latencies in seconds."""

    @abstractmethod
    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Return the propagation latency for a message from src to dst."""

    @property
    @abstractmethod
    def upper_bound(self) -> float:
        """The synchrony bound Delta assumed by the protocol timers."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds."""

    def __init__(self, delay: float = 0.0005) -> None:
        if delay < 0:
            raise ValueError("latency cannot be negative")
        self.delay = delay

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return self.delay

    @property
    def upper_bound(self) -> float:
        return self.delay


class NormalLatency(LatencyModel):
    """Truncated normal latency (mean/std), never below ``minimum``.

    ``upper_bound`` reports ``mean + 4 * std`` which the protocol uses as
    its synchrony assumption Delta.
    """

    def __init__(self, mean: float = 0.0005, std: float = 0.0001, minimum: float = 0.00005) -> None:
        if mean <= 0 or std < 0 or minimum < 0:
            raise ValueError("invalid latency parameters")
        self.mean = mean
        self.std = std
        self.minimum = minimum

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        return max(self.minimum, rng.gauss(self.mean, self.std))

    @property
    def upper_bound(self) -> float:
        return self.mean + 4 * self.std


class LinkBandwidth:
    """Per-link transmission capacity with FIFO queuing delay.

    Unlike the network's legacy scalar ``bandwidth_bytes_per_sec`` (a pure
    size-proportional delay), this models each directed link as a serial
    pipe: a message can only start transmitting once the link has finished
    the previous one, so a burst on a thin link queues up and the delay of
    the k-th message includes the backlog in front of it.  This is what
    makes WAN scenarios saturate realistically instead of scaling latency
    linearly with size alone.

    Args:
        default_bytes_per_sec: Capacity of every link without an override.
            ``None`` or ``0`` means that link adds no transmission delay.
        link_overrides: Optional per-directed-link ``(src, dst) -> rate``
            capacities (e.g. thin cross-region links).
    """

    def __init__(
        self,
        default_bytes_per_sec: Optional[float],
        link_overrides: Optional[Mapping[Tuple[int, int], float]] = None,
    ) -> None:
        if default_bytes_per_sec is not None and default_bytes_per_sec < 0:
            raise ValueError("bandwidth cannot be negative")
        self.default = default_bytes_per_sec
        self._overrides: Dict[Tuple[int, int], float] = dict(link_overrides or {})
        if any(rate < 0 for rate in self._overrides.values()):
            raise ValueError("bandwidth cannot be negative")
        self._busy_until: Dict[Tuple[int, int], float] = {}

    def rate(self, src: int, dst: int) -> Optional[float]:
        return self._overrides.get((src, dst), self.default)

    def transmission_delay(self, src: int, dst: int, size_bytes: int, now: float) -> float:
        """Delay until ``size_bytes`` finish transmitting on ``src -> dst``.

        Mutates the link's queue state: the returned delay covers both the
        wait behind messages already occupying the link and this message's
        own transmission time.
        """
        rate = self.rate(src, dst)
        if not rate or size_bytes <= 0:
            return 0.0
        link = (src, dst)
        start = max(now, self._busy_until.get(link, 0.0))
        finished = start + size_bytes / rate
        self._busy_until[link] = finished
        return finished - now

    def reset(self) -> None:
        """Clear all queue state (e.g. between epochs of a scenario)."""
        self._busy_until.clear()
