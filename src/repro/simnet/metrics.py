"""Metric collection for protocol experiments.

Collects the quantities reported in the paper's evaluation: throughput
(committed operations per second), client-perceived latency, view
outcomes (successful / failed), quorum-certificate sizes (vote inclusion)
and per-process CPU utilisation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = ["MetricsCollector", "LatencyStats"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (seconds)."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(count=0, mean=0.0, median=0.0, p90=0.0, p99=0.0, maximum=0.0)
        ordered = sorted(samples)

        def percentile(fraction: float) -> float:
            index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
            return ordered[index]

        # Float summation can drift the mean a ULP outside [min, max]
        # (e.g. many identical samples); clamp to the exact-arithmetic
        # envelope so the stats invariants hold for downstream consumers.
        mean = sum(ordered) / len(ordered)
        mean = min(max(mean, ordered[0]), ordered[-1])
        return cls(
            count=len(ordered),
            mean=mean,
            median=percentile(0.5),
            p90=percentile(0.9),
            p99=percentile(0.99),
            maximum=ordered[-1],
        )

    def to_dict(self) -> Dict[str, float]:
        """A JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p99": self.p99,
            "maximum": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "LatencyStats":
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            median=float(data["median"]),
            p90=float(data["p90"]),
            p99=float(data["p99"]),
            maximum=float(data["maximum"]),
        )


class MetricsCollector:
    """Accumulates measurements during a simulation run.

    Every replica of a live committee holds one, so the latency samples
    sit in a flat typed array (8 bytes a value) rather than a list of
    boxed floats, and commits are two counters; the samples and their
    order are the same either way.
    """

    def __init__(self, warmup: float = 0.0) -> None:
        #: Samples recorded before ``warmup`` virtual seconds are discarded,
        #: mirroring the paper's 5-second warm-up period.
        self.warmup = warmup
        self._committed_blocks = 0
        self._committed_ops = 0
        self._latencies = array("d")
        self._view_outcomes: List[tuple[int, bool]] = []
        self._qc_sizes: List[int] = []
        self._second_chance_inclusions = 0
        self.start_time = 0.0
        self.end_time = 0.0
        #: Optional consensus event tracer (:class:`repro.observe.trace.Tracer`).
        #: The collector is the one object every replica and aggregator
        #: already holds, so it doubles as the tracer attachment point;
        #: emission sites check ``is None`` and skip, keeping the traced-off
        #: hot path free.  Typed ``object`` to avoid importing repro.observe
        #: here (simnet sits below it in the layer diagram).
        self.tracer: object = None

    # -- recording -------------------------------------------------------------
    def record_commit(self, time: float, operation_count: int) -> None:
        """A block with ``operation_count`` client operations committed."""
        if time >= self.warmup:
            self._committed_blocks += 1
            self._committed_ops += operation_count

    def record_latencies(self, time: float, latencies: List[float]) -> None:
        """Record a block's per-request latency samples (seconds) — one
        warmup check for the whole batch.

        Commit handlers record a latency sample per request in the block;
        at batch sizes in the hundreds a per-sample call is measurable on
        the live hot path, so they hand the whole batch over as one list.
        """
        if time >= self.warmup:
            self._latencies.fromlist(latencies)

    def record_view(self, view: int, succeeded: bool) -> None:
        self._view_outcomes.append((view, succeeded))

    def record_qc_size(self, size: int) -> None:
        self._qc_sizes.append(size)

    def record_second_chance_inclusion(self, count: int = 1) -> None:
        self._second_chance_inclusions += count

    def mark_window(self, start_time: float, end_time: float) -> None:
        """Record the measurement window used for rate computations."""
        self.start_time = start_time
        self.end_time = end_time

    # -- summaries --------------------------------------------------------------
    @property
    def measurement_duration(self) -> float:
        duration = self.end_time - max(self.start_time, self.warmup)
        return max(duration, 0.0)

    def throughput(self) -> float:
        """Committed operations per second over the measurement window."""
        duration = self.measurement_duration
        if duration <= 0:
            return 0.0
        return self._committed_ops / duration

    def committed_operations(self) -> int:
        return self._committed_ops

    def committed_blocks(self) -> int:
        return self._committed_blocks

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self._latencies)

    def latency_samples(self) -> List[float]:
        """The raw post-warmup latency samples, in seconds (the registry
        histogram fill reads these at summary time)."""
        return list(self._latencies)

    def total_views(self) -> int:
        return len(self._view_outcomes)

    def average_qc_size(self) -> float:
        if not self._qc_sizes:
            return 0.0
        return sum(self._qc_sizes) / len(self._qc_sizes)

    def qc_sizes(self) -> List[int]:
        return list(self._qc_sizes)

    def second_chance_inclusions(self) -> int:
        return self._second_chance_inclusions
