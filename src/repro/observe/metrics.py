"""A unified registry of named counters, gauges, and histograms.

Telemetry grew organically: transport counters live on ``LiveNode``,
resilience counters on sessions and the supervisor, client counters on
the admission path — each with its own merge logic in
``_experiment_result``.  The registry subsumes them behind one
snapshot-and-merge API with fixed semantics:

- **counters** add across shards (messages, bytes, drops, restarts),
- **gauges** take the max (peak queue depth, highest incarnation),
- **histograms** are :class:`~repro.clients.stats.LatencyDigest`
  instances, which merge by adding log-buckets.

Nodes fill a registry at summary time from their existing counters
(zero hot-path rewiring), workers ship ``snapshot()`` dicts over the
stdout summary channel, and the parent folds them with
:func:`merge_snapshots` — the same shape the tracer uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional

from ..clients.stats import LatencyDigest

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.metrics import MetricsCollector

__all__ = ["MetricsRegistry", "merge_snapshots"]


class MetricsRegistry:
    """Named counters/gauges/histograms with one JSON-safe snapshot."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyDigest] = {}

    # -- recording ---------------------------------------------------------------
    def counter(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        """Record a gauge observation; merged snapshots keep the max."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = float(value)

    def histogram(self, name: str) -> LatencyDigest:
        """The named histogram, created on first use."""
        digest = self._histograms.get(name)
        if digest is None:
            digest = LatencyDigest()
            self._histograms[name] = digest
        return digest

    def observe(self, name: str, seconds: float) -> None:
        """Shorthand: record one sample into the named histogram."""
        self.histogram(name).record(seconds)

    def fill_counters(self, counters: Mapping[str, int], *, prefix: str = "") -> None:
        """Bulk-import an existing ad-hoc counter dict (summary-time)."""
        for name, value in counters.items():
            self.counter(f"{prefix}{name}", int(value))

    def fill_consensus(self, metrics: "MetricsCollector") -> None:
        """Import the ``consensus.*`` counters and commit-latency histogram.

        The names both runtimes report from a run's
        :class:`~repro.simnet.metrics.MetricsCollector`; each runtime adds
        its own extras around them.
        """
        self.counter("consensus.committed_blocks", metrics.committed_blocks())
        self.counter("consensus.committed_operations", metrics.committed_operations())
        self.counter("consensus.views_recorded", metrics.total_views())
        self.counter("consensus.second_chance_inclusions", metrics.second_chance_inclusions())
        histogram = self.histogram("consensus.commit_latency")
        for sample in metrics.latency_samples():
            histogram.record(sample)

    # -- reading -----------------------------------------------------------------
    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        return self._gauges.get(name, 0.0)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe form; histograms serialise as LatencyDigest dicts."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: digest.to_dict() for name, digest in self._histograms.items()},
        }


def merge_snapshots(snapshots: Iterable[Optional[Dict[str, object]]]) -> Dict[str, object]:
    """Fold registry snapshots from many nodes/workers into one.

    Counters add, gauges take the max, histograms merge bucket-wise.
    ``None``/empty entries (salvaged workers that died before summary)
    are tolerated and contribute nothing.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, LatencyDigest] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in dict(snap.get("counters", {})).items():  # type: ignore[arg-type]
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in dict(snap.get("gauges", {})).items():  # type: ignore[arg-type]
            current = gauges.get(name)
            numeric = float(value)
            if current is None or numeric > current:
                gauges[name] = numeric
        for name, payload in dict(snap.get("histograms", {})).items():  # type: ignore[arg-type]
            digest = LatencyDigest.from_dict(payload)
            if name in histograms:
                histograms[name].merge(digest)
            else:
                histograms[name] = digest
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: digest.to_dict() for name, digest in histograms.items()},
    }
