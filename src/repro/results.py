"""The result types every run in the repository returns.

:class:`ExperimentResult` holds the headline metrics of one deployment.
:class:`RunResult` wraps the run's :class:`ExperimentResult` together
with the resolved spec (config echo), the seed and the attacker
coalition, and round-trips through a stable, versioned JSON schema via
:meth:`RunResult.to_dict` / :meth:`RunResult.from_dict`.

``repro.scenarios.run_scenario``, the live runtime and the
:mod:`repro.api` facade all return :class:`RunResult`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.export import FigureArtifact
from repro.simnet.metrics import LatencyStats

if TYPE_CHECKING:  # imported lazily at runtime: scenarios.engine imports us
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ExperimentResult",
    "RunResult",
    "RESULT_SCHEMA",
    "RESULT_LIST_SCHEMA",
]

#: Version tag embedded in every serialized result; bump on breaking change.
RESULT_SCHEMA = "repro.run-result/2"

#: Version tag of the multi-run document (``repro sweep --format json``):
#: ``{"schema": ..., "runs": [RunResult documents]}``.
RESULT_LIST_SCHEMA = "repro.run-result-list/1"


@dataclass(frozen=True)
class ExperimentResult:
    """Headline metrics of one experiment run.

    The fields mirror what the paper reports: throughput (ops/sec), client
    latency, failed-view percentage, average QC size (vote inclusion) and
    mean CPU utilisation, plus message counters for the overhead analysis.

    ``transport`` holds per-replica transport counters (messages/bytes
    sent, messages received) keyed by the process id as a string; the sim
    and live runtimes fill the same schema so their results diff cleanly.

    ``resilience`` carries the recovery telemetry of runs with faults:
    per-replica crash/recovery timestamps, catch-up sync stats and (live
    runtime) suspicion timelines, reconnect counts and worker supervision
    events.  Empty for fault-free runs and absent from old documents.

    ``clients`` carries the live runtime's client-layer telemetry:
    admission counters (admitted/duplicate/dropped/deferred, queue
    depths), the merged open-loop swarm summary and the client-observed
    goodput and latency percentiles the saturation sweep plots.  Empty
    for sim runs and absent from pre-client documents.

    ``observability`` carries the merged consensus trace and metrics
    registry of runs with ``observe.enabled`` (see :mod:`repro.observe`):
    ``{"run_id", "enabled", "trace": {...}, "metrics": {...}}``.  Empty
    when tracing is off and absent from pre-observability documents.
    """

    config_label: str
    duration: float
    throughput: float
    latency: LatencyStats
    failed_view_fraction: float
    total_views: int
    successful_views: int
    average_qc_size: float
    second_chance_inclusions: int
    cpu_utilisation_mean: float
    cpu_utilisation_max: float
    committed_operations: int
    committed_blocks: int
    message_counters: Dict[str, int] = field(default_factory=dict)
    transport: Dict[str, Dict[str, int]] = field(default_factory=dict)
    resilience: Dict[str, object] = field(default_factory=dict)
    clients: Dict[str, object] = field(default_factory=dict)
    observability: Dict[str, object] = field(default_factory=dict)

    def row(self) -> Dict[str, float]:
        """A flat representation used by the benchmark reporting."""
        return {
            "throughput_ops_per_sec": round(self.throughput, 1),
            "latency_mean_ms": round(self.latency.mean * 1000, 2),
            "latency_p90_ms": round(self.latency.p90 * 1000, 2),
            "failed_views_pct": round(self.failed_view_fraction * 100, 2),
            "avg_qc_size": round(self.average_qc_size, 2),
            "cpu_mean_pct": round(self.cpu_utilisation_mean * 100, 2),
            "cpu_max_pct": round(self.cpu_utilisation_max * 100, 2),
        }

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "config_label": self.config_label,
            "duration": self.duration,
            "throughput": self.throughput,
            "latency": self.latency.to_dict(),
            "failed_view_fraction": self.failed_view_fraction,
            "total_views": self.total_views,
            "successful_views": self.successful_views,
            "average_qc_size": self.average_qc_size,
            "second_chance_inclusions": self.second_chance_inclusions,
            "cpu_utilisation_mean": self.cpu_utilisation_mean,
            "cpu_utilisation_max": self.cpu_utilisation_max,
            "committed_operations": self.committed_operations,
            "committed_blocks": self.committed_blocks,
            "message_counters": dict(self.message_counters),
            "transport": {pid: dict(counts) for pid, counts in self.transport.items()},
            "resilience": dict(self.resilience),
            "clients": dict(self.clients),
            "observability": dict(self.observability),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        payload = dict(data)
        payload["latency"] = LatencyStats.from_dict(payload["latency"])
        payload["message_counters"] = {
            str(key): int(value)
            for key, value in dict(payload.get("message_counters", {})).items()
        }
        payload["transport"] = {
            str(pid): {str(key): int(value) for key, value in dict(counts).items()}
            for pid, counts in dict(payload.get("transport", {})).items()
        }
        # Absent from pre-resilience / pre-client documents; default empty.
        payload["resilience"] = dict(payload.get("resilience", {}))
        payload["clients"] = dict(payload.get("clients", {}))
        payload["observability"] = dict(payload.get("observability", {}))
        return cls(**payload)


@dataclass
class RunResult:
    """Everything one ``repro.api.run`` call produced.

    Attributes:
        spec: The spec that actually ran (after any ``quick`` shrink) —
            the full config echo.
        metrics: The run's headline metrics.
        attackers: Process ids of the Byzantine coalition ("attack
            outcome" echo; empty without an active attack).
        runtime: Which substrate executed the run — ``"sim"``
            (deterministic discrete-event) or ``"live"`` (asyncio TCP
            cluster).  Both emit this same schema.
        wall_clock_seconds: Real elapsed time of the run (for sim runs
            this is the host time spent simulating, not virtual time).
    """

    spec: ScenarioSpec
    metrics: ExperimentResult
    attackers: Tuple[int, ...] = ()
    runtime: str = "sim"
    wall_clock_seconds: Optional[float] = None

    # -- convenience accessors --------------------------------------------------
    @property
    def seed(self) -> int:
        """The spec's seed — the single source of run determinism."""
        return self.spec.seed

    @property
    def latency(self):
        """Latency stats of the run (see :class:`LatencyStats`)."""
        return self.metrics.latency

    @property
    def transport(self) -> Dict[str, Dict[str, int]]:
        """Per-replica transport counters of the run."""
        return self.metrics.transport

    @property
    def resilience(self) -> Dict[str, object]:
        """Recovery telemetry of the run.

        ``per_replica`` maps process ids to crash/recovery timestamps,
        catch-up sync counts and (live runtime) suspicion timelines and
        reconnect stats; live runs add a ``cluster`` record with worker
        supervision events and the quiescence/readiness flags.  Empty for
        fault-free runs.
        """
        return self.metrics.resilience

    @property
    def clients(self) -> Dict[str, object]:
        """Client-layer telemetry of the run (live runs).

        ``admission`` sums each replica's admission verdicts (admitted /
        duplicate / dropped / deferred plus queue depths); open-loop runs
        add the merged ``swarm`` shard summary and the client-observed
        ``goodput`` and ``latency_ms`` percentiles the saturation sweep
        plots.  Empty for sim runs.
        """
        return self.metrics.clients

    @property
    def observability(self) -> Dict[str, object]:
        """The merged consensus trace and metrics registry of the run
        (runs with ``observe.enabled``; see :mod:`repro.observe`).

        ``trace`` is a mergeable tracer snapshot (``run_id`` / ``dropped``
        / ``events``) ready for :func:`repro.observe.trace_document`;
        ``metrics`` a registry snapshot (counters / gauges / histograms).
        Empty when tracing was off.
        """
        return self.metrics.observability

    # -- row/summary/artifact views ---------------------------------------------
    def rows(self) -> List[Dict[str, object]]:
        """The run as one flat export row (throughput, latency, QC size,
        fault counters) — the tabular view ``artifact()`` and the CLI
        table/CSV formats render."""
        result = self.metrics
        return [
            {
                "scenario": self.spec.name,
                "throughput_ops": round(result.throughput, 1),
                "latency_ms": round(result.latency.mean * 1000, 2),
                "latency_p90_ms": round(result.latency.p90 * 1000, 2),
                "failed_views_pct": round(result.failed_view_fraction * 100, 2),
                "avg_qc_size": round(result.average_qc_size, 2),
                "second_chance_votes": result.second_chance_inclusions,
                "committed_blocks": result.committed_blocks,
                "messages_dropped": result.message_counters.get("messages_dropped", 0),
                "messages_blocked": result.message_counters.get("messages_blocked", 0),
            }
        ]

    def summary(self) -> Dict[str, float]:
        """Run-level aggregates."""
        result = self.metrics
        failed = result.total_views - result.successful_views
        return {
            "throughput_ops": result.throughput,
            "latency_mean_ms": 1000 * result.latency.mean,
            "failed_views_pct": 100.0 * failed / result.total_views
            if result.total_views
            else 0.0,
            "avg_qc_size": result.average_qc_size,
            "committed_blocks": float(result.committed_blocks),
            "messages_blocked": float(result.message_counters.get("messages_blocked", 0)),
            "second_chance_votes": float(result.second_chance_inclusions),
        }

    def artifact(self) -> FigureArtifact:
        """Package :meth:`rows` as a :class:`FigureArtifact` whose
        ``write()`` exports CSV/JSON/Markdown files."""
        return FigureArtifact(
            name=f"scenario-{self.spec.name}",
            title=f"Scenario: {self.spec.name}"
            + (f" — {self.spec.description}" if self.spec.description else ""),
            rows=self.rows(),
        )

    # -- stable JSON schema -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The versioned JSON document (inverse of :meth:`from_dict`)."""
        return {
            "schema": RESULT_SCHEMA,
            "runtime": self.runtime,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "attackers": list(self.attackers),
            "wall_clock_seconds": self.wall_clock_seconds,
            "metrics": self.metrics.to_dict(),
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from its :meth:`to_dict` document.

        Raises ``ValueError`` when the document's ``schema`` tag is not
        :data:`RESULT_SCHEMA` — bump-and-migrate rather than guessing at
        shapes.
        """
        from repro.scenarios.spec import ScenarioSpec

        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(f"unsupported result schema {schema!r} (want {RESULT_SCHEMA!r})")
        wall_clock = data.get("wall_clock_seconds")
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            metrics=ExperimentResult.from_dict(data["metrics"]),
            attackers=tuple(int(pid) for pid in data.get("attackers", ())),
            runtime=str(data.get("runtime", "sim")),
            wall_clock_seconds=None if wall_clock is None else float(wall_clock),
        )

    def to_json(self, indent: int = 2) -> str:
        """:meth:`to_dict` rendered as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Parse a :meth:`to_json` string back into a :class:`RunResult`."""
        return cls.from_dict(json.loads(text))
