"""Declarative scenario specifications.

A :class:`ScenarioSpec` is one complete experiment description: committee
size, network topology and link capacity, crash/partition schedules, a
Byzantine strategy mix and the client workload.  Specs are plain frozen
dataclasses so they can be built in code, round-tripped through
dictionaries, or loaded from JSON or YAML-lite files — and then compiled
into a configured simulator run by :mod:`repro.scenarios.engine`.

The YAML-lite dialect (no external dependency) supports nested mappings
by indentation, ``- `` block lists, inline ``[a, b, [c]]`` lists, comments
and the usual scalars; it covers everything a scenario file needs::

    name: my-wan
    topology:
      kind: wan
      regions: 3
    faults:
      partitions:
        - at: 1.0
          heal_at: 2.0
          groups: [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.simnet.failures import PartitionEvent

__all__ = [
    "AttackSpec",
    "CommitteeSpec",
    "FaultSpec",
    "ObserveSpec",
    "ResilienceSpec",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "parse_scalar",
    "parse_yaml_lite",
]


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CommitteeSpec:
    """The committee: ``size`` replicas with process ids ``0 .. size-1``."""

    size: int = 21

    def __post_init__(self) -> None:
        if self.size < 4:
            raise ValueError("committee needs at least four replicas")


@dataclass(frozen=True)
class TopologySpec:
    """Where the replicas sit and what the links between them cost.

    Attributes:
        kind: ``"constant"``, ``"normal"`` (single rack, the paper's
            testbed), ``"rack"`` (multi-rack two-tier), ``"wan"``
            (region-level latency matrix) or ``"matrix"`` (explicit
            per-process matrix).
        regions: Number of racks/regions for ``rack``/``wan``.
        intra_delay: Mean one-way delay between co-located processes.
        inter_delay: Mean cross-rack delay (``rack`` only).
        jitter: Relative standard deviation on the sampled delays.
        matrix: Region-level (``wan``) or per-process (``matrix``)
            all-pairs one-way delay matrix; ``wan`` defaults to a built-in
            five-region cloud matrix.
        bandwidth_bytes_per_sec: Per-link capacity with FIFO queuing
            (``None`` disables transmission delay).
        loss_probability: Probability of dropping any individual message.
    """

    kind: str = "normal"
    regions: int = 1
    intra_delay: float = 0.0005
    inter_delay: float = 0.02
    jitter: float = 0.1
    matrix: Optional[Tuple[Tuple[float, ...], ...]] = None
    bandwidth_bytes_per_sec: Optional[float] = None
    loss_probability: float = 0.0

    SUPPORTED_KINDS = ("constant", "normal", "rack", "wan", "matrix")

    def __post_init__(self) -> None:
        if self.kind not in self.SUPPORTED_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.regions < 1:
            raise ValueError("need at least one region")
        if self.intra_delay <= 0 or self.inter_delay <= 0:
            raise ValueError("delays must be positive")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if not 0 <= self.loss_probability < 1:
            raise ValueError("loss probability must be in [0, 1)")
        if self.bandwidth_bytes_per_sec is not None and self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.matrix is not None:
            object.__setattr__(
                self, "matrix", tuple(tuple(float(v) for v in row) for row in self.matrix)
            )
        if self.kind == "matrix" and self.matrix is None:
            raise ValueError("matrix topology requires an explicit latency matrix")
        if self.kind == "wan":
            if self.matrix is not None:
                # The matrix defines the region count; `regions` may restate
                # it (or stay at its default of 1) but must not contradict it.
                if self.regions not in (1, len(self.matrix)):
                    raise ValueError(
                        f"regions={self.regions} contradicts the {len(self.matrix)}-region matrix"
                    )
                object.__setattr__(self, "regions", len(self.matrix))
            elif self.regions < 2:
                raise ValueError(
                    "a WAN topology needs at least two regions (or an explicit matrix)"
                )


@dataclass(frozen=True)
class FaultSpec:
    """Crash schedule, crash-restart churn and timed partitions.

    Attributes:
        crashes: Number of replicas crashed (chosen pseudo-randomly from
            the crash seed, never the attack victim).
        crash_at: Virtual time the crashes happen.
        restart_at: Virtual time the crashed cohort recovers (crash-restart
            churn); ``None`` (the default) leaves them crash-stopped.
        crash_seed: Seed for the crash draw; ``None`` uses the scenario's
            seed.
        crash_exclude: Extra process ids protected from crashing.
        protect_leader: Keep process 0 (the initial leader) out of the
            crash draw.  The paper's random placement lets the leader
            crash, so the figure specs switch this off.
        partitions: Timed :class:`PartitionEvent` s applied via link-level
            suppression.
    """

    crashes: int = 0
    crash_at: float = 0.0
    restart_at: Optional[float] = None
    crash_seed: Optional[int] = None
    crash_exclude: Tuple[int, ...] = ()
    protect_leader: bool = True
    partitions: Tuple[PartitionEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.crashes < 0:
            raise ValueError("crash count cannot be negative")
        if self.crash_at < 0:
            raise ValueError("crash time cannot be negative")
        if self.restart_at is not None and self.restart_at <= self.crash_at:
            raise ValueError("restart time must be after the crash time")
        object.__setattr__(self, "crash_exclude", tuple(self.crash_exclude))
        object.__setattr__(self, "partitions", tuple(self.partitions))


@dataclass(frozen=True)
class AttackSpec:
    """The Byzantine strategy mix attached to the deployment.

    Attributes:
        strategy: ``"none"`` or ``"omission"`` (a coalition of corrupted
            Iniva aggregators running the paper's targeted vote-omission
            attack from :mod:`repro.attacks.byzantine`).
        attackers: Coalition size (chosen pseudo-randomly, never the
            victim or the initial leader).
        victim: Process id whose vote the coalition censors.
    """

    strategy: str = "none"
    attackers: int = 0
    victim: int = 1

    SUPPORTED_STRATEGIES = ("none", "omission")

    def __post_init__(self) -> None:
        if self.strategy not in self.SUPPORTED_STRATEGIES:
            raise ValueError(f"unknown attack strategy {self.strategy!r}")
        if self.attackers < 0:
            raise ValueError("attacker count cannot be negative")
        if self.victim < 0:
            raise ValueError("victim must be a valid process id")
        if self.strategy != "none" and self.attackers == 0:
            raise ValueError("an active attack needs at least one attacker")


@dataclass(frozen=True)
class WorkloadSpec:
    """Open-loop client workload (see :class:`ClientWorkload`).

    ``arrival`` selects the arrival model — one of
    :data:`~repro.clients.arrivals.ARRIVAL_MODELS` (``"poisson"``,
    ``"uniform"``, ``"bursty"``, ``"diurnal"``); ``burst_factor`` and
    ``arrival_period`` shape the time-varying models.  ``seed`` pins the
    arrival-process RNG independently of the scenario seed; ``None`` (the
    default) derives it from the run's seed.

    ``preload`` submits the whole request volume (``rate * duration``
    requests) at time zero instead of as an arrival process.  Batching
    then no longer depends on arrival timing, which is what makes a
    fixed-seed run finalize *the same block ids* under the deterministic
    sim runtime and the live asyncio cluster — the property the
    cross-runtime equivalence tests pin.  Under the live runtime
    ``preload`` selects deterministic replay mode; with ``preload=False``
    (the default) a real open-loop client swarm drives the cluster over
    TCP, rejected or late requests and all.

    ``max_pending`` / ``client_window`` bound the live mempool's
    admission (queue depth / per-client in-flight fairness); 0 disables
    a bound.
    """

    rate: float = 2000.0
    payload_size: int = 64
    num_clients: int = 4
    seed: Optional[int] = None
    preload: bool = False
    arrival: str = "poisson"
    burst_factor: float = 4.0
    arrival_period: float = 1.0
    max_pending: int = 0
    client_window: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("workload rate cannot be negative")
        if self.payload_size < 0:
            raise ValueError("payload size cannot be negative")
        from repro.clients.arrivals import ARRIVAL_MODELS

        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(
                f"unknown arrival model {self.arrival!r} "
                f"(expected one of {', '.join(ARRIVAL_MODELS)})"
            )
        if self.burst_factor <= 1.0:
            raise ValueError("burst factor must exceed 1")
        if self.arrival_period <= 0:
            raise ValueError("arrival period must be positive")
        if self.max_pending < 0 or self.client_window < 0:
            raise ValueError("admission bounds cannot be negative")


@dataclass(frozen=True)
class ResilienceSpec:
    """Self-healing knobs of the live runtime (see :mod:`repro.resilience`).

    The defaults are tuned for localhost clusters: heartbeats every 50 ms,
    suspicion at phi 8 (odds ~1e-8 the silence is jitter), generous resend
    buffering.  ``catchup`` also applies under the sim runtime (it gates
    ``ConsensusConfig.sync_on_recover``), so sim/live parity holds for
    crash-restart scenarios.

    Attributes:
        heartbeat_interval: Seconds of link idleness before an explicit
            heartbeat is sent (any payload frame doubles as one).
        phi_threshold: Phi-accrual suspicion level at which a peer is
            declared suspect (raised/cleared transitions are recorded in
            ``RunResult.resilience``).
        detector_window: Inter-arrival samples per peer in the detector.
        catchup: Recovering replicas fetch the committed-block suffix
            from a live peer (``SyncRequest``/``SyncResponse``).
        max_sync_blocks: Most blocks one sync response carries.
        resend_buffer: Unacknowledged envelopes kept per peer session for
            resend-on-reconnect; overflow drops oldest (counted).
        reconnect_base / reconnect_cap: Exponential backoff bounds for
            session reconnects, seconds.
        ready_timeout: Seconds the readiness barrier waits for every peer
            session to establish before starting the protocol anyway;
            under ``--procs`` also how long after spawning the parent
            waits for every worker's ready line before releasing the
            ready ones.
        quiesce_after: End the serve window early once no node has made
            commit progress for this many seconds (``None`` disables the
            watchdog and keeps the fixed wall budget).
        worker_restart_attempts: Restarts the ``--procs`` supervisor
            grants one worker subprocess (0 disables restarting).
        worker_restart_backoff: Base backoff between worker restarts.
    """

    heartbeat_interval: float = 0.05
    phi_threshold: float = 8.0
    detector_window: int = 32
    catchup: bool = True
    max_sync_blocks: int = 64
    resend_buffer: int = 512
    reconnect_base: float = 0.01
    reconnect_cap: float = 0.25
    ready_timeout: float = 5.0
    quiesce_after: Optional[float] = None
    worker_restart_attempts: int = 2
    worker_restart_backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.phi_threshold <= 0:
            raise ValueError("phi threshold must be positive")
        if self.detector_window < 2:
            raise ValueError("detector window needs at least two samples")
        if self.max_sync_blocks < 1:
            raise ValueError("max_sync_blocks must be positive")
        if self.resend_buffer < 1:
            raise ValueError("resend buffer must hold at least one envelope")
        if self.reconnect_base <= 0 or self.reconnect_cap < self.reconnect_base:
            raise ValueError("reconnect backoff bounds must satisfy 0 < base <= cap")
        if self.ready_timeout <= 0:
            raise ValueError("ready timeout must be positive")
        if self.quiesce_after is not None and self.quiesce_after <= 0:
            raise ValueError("quiesce_after must be positive (or None to disable)")
        if self.worker_restart_attempts < 0:
            raise ValueError("worker restart attempts cannot be negative")
        if self.worker_restart_backoff < 0:
            raise ValueError("worker restart backoff cannot be negative")


@dataclass(frozen=True)
class ObserveSpec:
    """Observability knobs (see :mod:`repro.observe`).

    Tracing is off by default: the hot path pays one attribute load and
    an ``is None`` check per emission site and nothing else.  With
    ``enabled=True`` every replica records consensus events into a
    bounded ring buffer; ``sample_rate < 1`` thins hot-path events
    (share arrivals, client admissions) by deterministic view/tick
    sampling so sim and live sample the *same* subset.

    Attributes:
        enabled: Record consensus events into per-replica tracers and
            surface the merged trace as ``RunResult.observability``.
        capacity: Ring-buffer size per tracer; overflow drops oldest
            (counted in the snapshot, never an error).
        sample_rate: Fraction of views/ticks whose hot-path events are
            traced; milestone events (propose/qc/commit/view) are
            always recorded.
    """

    enabled: bool = False
    capacity: int = 4096
    sample_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("trace capacity must be positive")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample rate must be in (0, 1]")


# ---------------------------------------------------------------------------
# The scenario spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative adversarial/WAN campaign, ready to compile and run."""

    name: str
    description: str = ""
    aggregation: str = "iniva"
    signature_scheme: str = "hashsig"
    batch_size: int = 100
    leader_policy: str = "round-robin"
    duration: float = 4.0
    warmup: float = 0.5
    seed: int = 1
    # Protocol timers; ``None`` derives them from the topology's latency
    # bound so WAN scenarios don't need hand-tuned Δ values.
    delta: Optional[float] = None
    second_chance_timeout: Optional[float] = None
    view_timeout: Optional[float] = None
    # Tree shape: internal aggregators; ``None`` is the balanced default.
    num_internal: Optional[int] = None
    # Hot-path pacing knob (see ConsensusConfig), default off: the
    # paper-faithful timer-paced behaviour the figures and goldens pin.
    # ``optimistic_responsiveness`` enters a view the moment its QC forms
    # instead of waiting out the 2Δ propose delay (timers stay armed as
    # the fallback).
    optimistic_responsiveness: bool = False
    # Extra ConsensusConfig knobs for baseline schemes (gossip fanout,
    # free-riding, Kauri fallback ...), stored as a sorted tuple of pairs
    # so the spec stays hashable; accepts a mapping.
    scheme_params: Tuple[Tuple[str, Any], ...] = ()
    committee: CommitteeSpec = field(default_factory=CommitteeSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    observe: ObserveSpec = field(default_factory=ObserveSpec)

    #: ConsensusConfig fields the spec already controls through dedicated
    #: fields — they may not be smuggled in through ``scheme_params``.
    RESERVED_SCHEME_PARAMS = frozenset(
        {
            "committee_size",
            "batch_size",
            "payload_size",
            "aggregation",
            "signature_scheme",
            "leader_policy",
            "delta",
            "second_chance_timeout",
            "view_timeout",
            "seed",
            "num_internal",
            "cpu_model",
            "sync_on_recover",
            "max_sync_blocks",
            "optimistic_responsiveness",
        }
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        params = self.scheme_params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(key), value) for key, value in params))
        object.__setattr__(self, "scheme_params", params)
        # Every range check below is a comparison, and comparisons with
        # NaN are false: a NaN or infinite number must be caught first.
        bad = _non_finite_field({**_spec_to_dict(self), "scheme_params": dict(params)})
        if bad is not None:
            raise ValueError(f"{bad} must be a finite number")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        if self.num_internal is not None and self.num_internal < 1:
            raise ValueError("num_internal must be positive")
        from repro.consensus.config import ConsensusConfig

        known = {f.name for f in fields(ConsensusConfig)}
        for key, _ in params:
            if key in self.RESERVED_SCHEME_PARAMS:
                raise ValueError(
                    f"scheme param {key!r} is controlled by a dedicated spec field"
                )
            if key not in known:
                raise ValueError(f"unknown scheme param {key!r}")
        if self.attack.strategy == "omission" and self.aggregation != "iniva":
            raise ValueError("the omission attack corrupts Iniva aggregators")
        if self.attack.strategy != "none" and self.attack.victim >= self.committee.size:
            raise ValueError("victim must be inside the committee")
        for event in self.faults.partitions:
            max_pid = max((pid for group in event.groups for pid in group), default=0)
            if max_pid >= self.committee.size:
                raise ValueError("partition group references a process outside the committee")

    # -- convenience -----------------------------------------------------------
    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with overrides; nested specs also accept partial dicts.

        ``spec.with_(aggregation="star", faults={"crashes": 4})`` merges
        the given keys over the existing nested spec, which is what lets
        the examples stay one-liners.
        """
        nested = {
            "committee": CommitteeSpec,
            "topology": TopologySpec,
            "faults": FaultSpec,
            "attack": AttackSpec,
            "workload": WorkloadSpec,
            "resilience": ResilienceSpec,
            "observe": ObserveSpec,
        }
        converted: Dict[str, Any] = {}
        for key, value in overrides.items():
            if key in nested and isinstance(value, Mapping):
                current = _spec_to_dict(getattr(self, key))
                current.update(value)
                if key == "faults":
                    converted[key] = _fault_spec_from_dict(current)
                else:
                    converted[key] = _spec_from_dict(nested[key], current)
            elif key == "scheme_params" and isinstance(value, Mapping):
                merged = dict(self.scheme_params)
                merged.update(value)
                converted[key] = merged
            else:
                converted[key] = value
        return replace(self, **converted)

    def quick(self) -> "ScenarioSpec":
        """A shrunken copy that finishes in seconds (for --quick / CI).

        Durations shrink, event times scale proportionally so partitions
        and crashes still land inside the run, committees cap at 13 (never
        below what explicit partition groups reference), and crash counts
        clamp to the new committee's fault budget.
        """
        # High-latency topologies need several protocol rounds' worth of
        # virtual time (Δ covers a wide-area hop), so their quick window
        # is longer; sub-millisecond topologies commit plenty in 1.2 s.
        worst_hop = self.topology.intra_delay
        if self.topology.kind in ("rack", "wan", "matrix"):
            worst_hop = max(
                worst_hop,
                self.topology.inter_delay,
                max((v for row in (self.topology.matrix or ()) for v in row), default=0.0),
            )
        if self.topology.bandwidth_bytes_per_sec:
            # Thin links make serialization part of the hop: timers scale
            # with one proposal's transmission time (see compile_scenario).
            worst_hop += (
                self.batch_size * self.workload.payload_size
                / self.topology.bandwidth_bytes_per_sec
            )
        quick_window = 3.0 if worst_hop > 0.01 else 1.2
        duration = min(self.duration, quick_window)
        factor = duration / self.duration
        size = min(self.committee.size, 13)
        for event in self.faults.partitions:
            max_pid = max((pid for group in event.groups for pid in group), default=0)
            size = max(size, max_pid + 1)
        if self.attack.strategy != "none":
            size = max(size, self.attack.victim + 1, self.attack.attackers + 2)
        max_faulty = size - ((2 * size) // 3 + 1)
        faults = replace(
            self.faults,
            crashes=min(self.faults.crashes, max_faulty),
            crash_at=self.faults.crash_at * factor,
            restart_at=None if self.faults.restart_at is None
            else self.faults.restart_at * factor,
            partitions=tuple(event.scaled(factor) for event in self.faults.partitions),
        )
        return replace(
            self,
            duration=duration,
            warmup=min(self.warmup * factor, 0.2),
            committee=replace(self.committee, size=size),
            faults=faults,
            workload=replace(self.workload, rate=min(self.workload.rate, 2500.0)),
        )

    # -- dict / file round-tripping ---------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "aggregation": self.aggregation,
            "signature_scheme": self.signature_scheme,
            "batch_size": self.batch_size,
            "leader_policy": self.leader_policy,
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "delta": self.delta,
            "second_chance_timeout": self.second_chance_timeout,
            "view_timeout": self.view_timeout,
            "num_internal": self.num_internal,
            "optimistic_responsiveness": self.optimistic_responsiveness,
            "scheme_params": dict(self.scheme_params),
            "committee": _spec_to_dict(self.committee),
            "topology": _spec_to_dict(self.topology),
            "faults": _spec_to_dict(self.faults),
            "attack": _spec_to_dict(self.attack),
            "workload": _spec_to_dict(self.workload),
            "resilience": _spec_to_dict(self.resilience),
            "observe": _spec_to_dict(self.observe),
        }
        data["faults"]["partitions"] = [
            {"at": event.at, "groups": [list(group) for group in event.groups],
             "heal_at": event.heal_at}
            for event in self.faults.partitions
        ]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {
            key: value
            for key, value in data.items()
            if key
            not in (
                "committee",
                "topology",
                "faults",
                "attack",
                "workload",
                "resilience",
                "observe",
            )
        }
        if "committee" in data:
            kwargs["committee"] = _spec_from_dict(CommitteeSpec, data["committee"])
        if "topology" in data:
            kwargs["topology"] = _spec_from_dict(TopologySpec, data["topology"])
        if "faults" in data:
            kwargs["faults"] = _fault_spec_from_dict(data["faults"])
        if "attack" in data:
            kwargs["attack"] = _spec_from_dict(AttackSpec, data["attack"])
        if "workload" in data:
            kwargs["workload"] = _spec_from_dict(WorkloadSpec, data["workload"])
        if "resilience" in data:
            kwargs["resilience"] = _spec_from_dict(ResilienceSpec, data["resilience"])
        if "observe" in data:
            kwargs["observe"] = _spec_from_dict(ObserveSpec, data["observe"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(parse_yaml_lite(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec file; the format follows the file extension."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".json":
            return cls.from_json(text)
        return cls.from_yaml(text)


def _spec_to_dict(spec: Any) -> Dict[str, Any]:
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def _non_finite_field(value: Any, path: str = "") -> Optional[str]:
    """The dotted path of the first NaN or infinite float inside ``value``
    (nested specs, mappings, tuples and lists), or ``None``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if is_dataclass(value):
        children = [(f.name, getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, Mapping):
        children = list(value.items())
    elif isinstance(value, (tuple, list)):
        children = list(enumerate(value))
    else:
        return None
    for key, child in children:
        found = _non_finite_field(child, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _spec_from_dict(cls: type, data: Mapping[str, Any]) -> Any:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**dict(data))


def _fault_spec_from_dict(data: Mapping[str, Any]) -> FaultSpec:
    data = dict(data)
    events = []
    for item in data.pop("partitions", ()):
        if isinstance(item, PartitionEvent):
            events.append(item)
        else:
            extra = set(item) - {"at", "groups", "heal_at"}
            if extra:
                raise ValueError(f"unknown partition keys: {sorted(extra)}")
            events.append(
                PartitionEvent(
                    at=float(item["at"]),
                    groups=tuple(tuple(int(pid) for pid in group) for group in item["groups"]),
                    heal_at=None if item.get("heal_at") is None else float(item["heal_at"]),
                )
            )
    spec = _spec_from_dict(FaultSpec, data)
    return replace(spec, partitions=tuple(events))


# ---------------------------------------------------------------------------
# YAML-lite parser
# ---------------------------------------------------------------------------
def parse_yaml_lite(text: str) -> Dict[str, Any]:
    """Parse the YAML subset scenario files use into nested dicts/lists.

    Supported: nested mappings by indentation, ``- `` block lists (scalar
    items or inline maps with continuation lines), inline ``[...]`` lists
    (arbitrarily nested), ``#`` comments, quoted strings and the scalars
    int / float / bool / null.  Anchors, multi-line strings and flow
    mappings are deliberately out of scope.
    """
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append((indent, stripped.strip()))
    if not lines:
        return {}
    value, index = _parse_block(lines, 0, lines[0][0])
    if index != len(lines):
        raise ValueError(f"could not parse line: {lines[index][1]!r}")
    if not isinstance(value, dict):
        raise ValueError("top level of a scenario file must be a mapping")
    return value


def _strip_comment(line: str) -> str:
    in_quote: Optional[str] = None
    # A quote only *opens* a string where a scalar can start (after ':',
    # ',', '[' or '-', or at the start of the line) — an apostrophe inside
    # a bare word like ``it's`` must not swallow a trailing comment.
    previous = None
    for position, char in enumerate(line):
        if in_quote:
            if char == in_quote:
                in_quote = None
                previous = char
            continue
        if char in "\"'" and previous in (None, ":", ",", "[", "-"):
            in_quote = char
        elif char == "#":
            return line[:position]
        if not char.isspace():
            previous = char
    return line


def _parse_block(lines: List[Tuple[int, str]], index: int, indent: int) -> Tuple[Any, int]:
    if lines[index][1].startswith("- "):
        return _parse_list(lines, index, indent)
    return _parse_map(lines, index, indent)


def _parse_map(lines: List[Tuple[int, str]], index: int, indent: int) -> Tuple[Dict[str, Any], int]:
    result: Dict[str, Any] = {}
    while index < len(lines):
        line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise ValueError(f"unexpected indentation at: {content!r}")
        if content.startswith("- "):
            break
        if ":" not in content:
            raise ValueError(f"expected 'key: value' at: {content!r}")
        key, _, rest = content.partition(":")
        key = key.strip()
        rest = rest.strip()
        if rest:
            result[key] = _parse_scalar(rest)
            index += 1
        else:
            index += 1
            if index < len(lines) and lines[index][0] > indent:
                result[key], index = _parse_block(lines, index, lines[index][0])
            else:
                result[key] = None
    return result, index


def _parse_list(lines: List[Tuple[int, str]], index: int, indent: int) -> Tuple[List[Any], int]:
    result: List[Any] = []
    while index < len(lines):
        line_indent, content = lines[index]
        if line_indent != indent or not content.startswith("- "):
            break
        item_text = content[2:].strip()
        # The item's own keys sit two columns right of the dash.
        item_indent = indent + 2
        if ":" in item_text and not item_text.startswith("["):
            # Inline first entry of a map item, continuation lines follow.
            key, _, rest = item_text.partition(":")
            item: Dict[str, Any] = {}
            rest = rest.strip()
            if rest:
                item[key.strip()] = _parse_scalar(rest)
                index += 1
            else:
                index += 1
                if index < len(lines) and lines[index][0] > item_indent:
                    value, index = _parse_block(lines, index, lines[index][0])
                    item[key.strip()] = value
                else:
                    item[key.strip()] = None
            if index < len(lines) and lines[index][0] == item_indent and not lines[index][1].startswith("- "):
                more, index = _parse_map(lines, index, item_indent)
                item.update(more)
            result.append(item)
        else:
            result.append(_parse_scalar(item_text))
            index += 1
    return result, index


def parse_scalar(text: str) -> Any:
    """Parse one YAML-lite scalar: quoted string, bool, null, number or
    inline ``[...]`` list, falling back to the bare string.

    Public because the CLI reuses it for ``sweep --set field=value``
    parsing, so spec files and sweep cells coerce values identically.
    """
    return _parse_scalar(text)


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text.startswith("["):
        value, position = _parse_inline_list(text, 0)
        if text[position:].strip():
            raise ValueError(f"trailing characters after list: {text!r}")
        return value
    if len(text) >= 2 and text[0] in "\"'" and text[-1] == text[0]:
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    if lowered in ("null", "none", "~"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_inline_list(text: str, position: int) -> Tuple[List[Any], int]:
    if text[position] != "[":
        raise ValueError(f"expected '[' in {text!r}")
    position += 1
    items: List[Any] = []
    current = ""

    def flush() -> None:
        if current.strip():
            items.append(_parse_scalar(current))

    in_quote: Optional[str] = None
    while position < len(text):
        char = text[position]
        if in_quote:
            current += char
            if char == in_quote:
                in_quote = None
            position += 1
            continue
        if char in "\"'":
            in_quote = char
            current += char
            position += 1
            continue
        if char == "[":
            nested, position = _parse_inline_list(text, position)
            items.append(nested)
            continue
        if char == "]":
            flush()
            return items, position + 1
        if char == ",":
            flush()
            current = ""
            position += 1
            continue
        current += char
        position += 1
    raise ValueError(f"unterminated list in {text!r}")
