"""Compile and run declarative scenarios.

:func:`compile_scenario` turns a :class:`ScenarioSpec` into the concrete
ingredients of a run — a :class:`ConsensusConfig`, a latency model and
the :class:`~repro.chaos.plan.ChaosPlan` (crash draw, partition schedule,
attacker coalition, link shaping) — and :func:`run_scenario` executes it
through :mod:`repro.experiments.runner`, with the plan's faults armed by
:func:`attach_chaos`.

Everything is seeded from the spec, so a fixed spec produces identical
finalized-view metrics on every run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import Dict, Optional, Sequence, Tuple

from repro.chaos import ChaosDriver, ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.experiments.runner import build_deployment, summarise
from repro.experiments.workloads import ClientWorkload
from repro.results import RunResult
from repro.scenarios.spec import ScenarioSpec, TopologySpec
from repro.simnet.latency import (
    ConstantLatency,
    LatencyModel,
    LinkBandwidth,
    NormalLatency,
)
from repro.simnet.network import Network
from repro.simnet.topology import (
    WAN_REGION_MATRIX,  # noqa: F401  (canonical home: repro.simnet.topology)
    MatrixLatency,
    RackTopologyLatency,
    RegionMatrixLatency,
)

__all__ = [
    "CompiledScenario",
    "WAN_REGION_MATRIX",
    "attach_chaos",
    "build_latency_model",
    "build_scenario_deployment",
    "compile_scenario",
    "run_scenario",
]


def build_latency_model(topology: TopologySpec, committee_size: int) -> LatencyModel:
    """The latency model a topology spec describes, sized for the committee."""
    if topology.kind == "constant":
        return ConstantLatency(topology.intra_delay)
    if topology.kind == "normal":
        return NormalLatency(
            mean=topology.intra_delay,
            std=topology.intra_delay * max(topology.jitter, 0.01),
            minimum=topology.intra_delay * 0.1,
        )
    if topology.kind == "rack":
        return RackTopologyLatency.evenly_spread(
            committee_size,
            topology.regions,
            intra_delay=topology.intra_delay,
            inter_delay=topology.inter_delay,
            jitter=topology.jitter,
        )
    if topology.kind == "wan":
        matrix = topology.matrix
        if matrix is None:
            if topology.regions > len(WAN_REGION_MATRIX):
                raise ValueError(
                    f"built-in WAN matrix covers {len(WAN_REGION_MATRIX)} regions; "
                    "provide an explicit matrix for more"
                )
            matrix = tuple(
                row[: topology.regions] for row in WAN_REGION_MATRIX[: topology.regions]
            )
        return RegionMatrixLatency.evenly_spread(
            committee_size, matrix, intra_delay=topology.intra_delay, jitter=topology.jitter
        )
    if topology.kind == "matrix":
        if len(topology.matrix) < committee_size:
            raise ValueError("latency matrix must cover every committee process id")
        return MatrixLatency(topology.matrix, jitter=topology.jitter)
    raise ValueError(f"unknown topology kind {topology.kind!r}")


@dataclass
class CompiledScenario:
    """A spec resolved into concrete run ingredients."""

    spec: ScenarioSpec
    config: ConsensusConfig
    latency_model: LatencyModel
    plan: ChaosPlan

    @property
    def attacker_ids(self) -> Tuple[int, ...]:
        return self.plan.attackers

    def link_bandwidth(self) -> Optional[LinkBandwidth]:
        """A fresh (queue-empty) bandwidth model for one run."""
        rate = self.spec.topology.bandwidth_bytes_per_sec
        if rate is None:
            return None
        return LinkBandwidth(rate)


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Resolve a spec into a :class:`CompiledScenario` (no run yet)."""
    size = spec.committee.size
    latency_model = build_latency_model(spec.topology, size)
    bound = latency_model.upper_bound
    # On thin links, serialization dominates propagation: a hop is only
    # "delivered" once a full proposal has finished transmitting, so the
    # synchrony bound must cover one batch's transmission time or
    # bandwidth-crunched scenarios live in permanent view timeout.
    if spec.topology.bandwidth_bytes_per_sec:
        proposal_bytes = spec.batch_size * spec.workload.payload_size
        bound += proposal_bytes / spec.topology.bandwidth_bytes_per_sec
    # Timers derive from the topology unless pinned: Δ covers one hop plus
    # processing headroom, the 2ND-CHANCE δ one extra round trip, and the
    # pacemaker must outlast Iniva's 7Δ critical path.
    delta = spec.delta if spec.delta is not None else max(0.0025, 1.25 * bound)
    second_chance = (
        spec.second_chance_timeout if spec.second_chance_timeout is not None else max(0.005, bound)
    )
    view_timeout = spec.view_timeout if spec.view_timeout is not None else max(0.25, 8.0 * delta)
    config = ConsensusConfig(
        committee_size=size,
        batch_size=spec.batch_size,
        payload_size=spec.workload.payload_size,
        aggregation=spec.aggregation,
        signature_scheme=spec.signature_scheme,
        leader_policy=spec.leader_policy,
        delta=delta,
        second_chance_timeout=second_chance,
        view_timeout=view_timeout,
        num_internal=spec.num_internal,
        seed=spec.seed,
        sync_on_recover=spec.resilience.catchup,
        max_sync_blocks=spec.resilience.max_sync_blocks,
        optimistic_responsiveness=spec.optimistic_responsiveness,
        **dict(spec.scheme_params),
    )

    victim = spec.attack.victim if spec.attack.strategy != "none" else None
    protected = {0} if spec.faults.protect_leader else set()
    protected |= set(spec.faults.crash_exclude)
    if victim is not None:
        protected.add(victim)

    attacker_ids: Tuple[int, ...] = ()
    if spec.attack.strategy == "omission":
        candidates = [pid for pid in range(1, size) if pid != victim]
        if spec.attack.attackers > len(candidates):
            raise ValueError("more attackers than available committee seats")
        # Knuth-style mix keeps the attacker draw independent of the crash
        # draw (both derive from spec.seed) and stable across processes.
        rng = random.Random(spec.seed * 2654435761 + 97)
        attacker_ids = tuple(sorted(rng.sample(candidates, spec.attack.attackers)))
        protected |= set(attacker_ids)

    crashes: Dict[int, float] = {}
    restarts: Dict[int, float] = {}
    if spec.faults.crashes:
        crash_seed = (
            spec.faults.crash_seed if spec.faults.crash_seed is not None else spec.seed
        )
        rng = random.Random(crash_seed)
        candidates = [pid for pid in range(size) if pid not in protected]
        if spec.faults.crashes > len(candidates):
            raise ValueError("cannot crash more processes than are available")
        # The plan keeps the draw order: the sim arms drivers in it, so
        # faults due at one instant fire in that order.
        chosen = rng.sample(candidates, spec.faults.crashes)
        crashes = {pid: spec.faults.crash_at for pid in chosen}
        if spec.faults.restart_at is not None:
            restarts = {pid: spec.faults.restart_at for pid in chosen}

    return CompiledScenario(
        spec=spec,
        config=config,
        latency_model=latency_model,
        plan=ChaosPlan(
            seed=spec.seed,
            crashes=crashes,
            restarts=restarts,
            partitions=tuple(spec.faults.partitions),
            attackers=attacker_ids,
            victim=victim if attacker_ids else None,
            loss_probability=spec.topology.loss_probability,
            latency_model=latency_model,
            bandwidth_bytes_per_sec=spec.topology.bandwidth_bytes_per_sec,
        ),
    )


def attach_chaos(replicas: Sequence, network: Network, plan: ChaosPlan) -> Dict[int, ChaosDriver]:
    """Attach one armed :class:`ChaosDriver` to every replica of a sim run.

    Call it before the replicas start: the driver swaps an attacker's
    aggregator at construction and applies a fault already due inside
    ``arm()``.  Replicas in ``plan.crashes`` are armed first, in the crash
    draw's order, so restarts due at the same instant fire in that order
    (each recovery draws from the network RNG).  ``network`` asks the
    drivers for cut links only when the plan has a partition.
    """
    order = list(plan.crashes) + [pid for pid in range(len(replicas)) if pid not in plan.crashes]
    drivers: Dict[int, ChaosDriver] = {}
    for pid in order:
        replica = replicas[pid]
        driver = drivers[pid] = ChaosDriver(
            replica, len(replicas), plan, crash=replica.crash, recover=replica.recover
        )
        driver.arm()
    if plan.partitions:
        network.link_faults = drivers
    return drivers


def build_scenario_deployment(compiled: CompiledScenario, runtime: str = "sim"):
    """Wire the run's deployment: workload attached, faults armed.

    This is the single spec→deployment path — :func:`run_scenario` calls
    it, and :func:`repro.api.deploy` exposes it to callers
    that need the live :class:`Deployment` (custom drop rules, QC
    audits) rather than just the summarised metrics.

    ``runtime`` selects the substrate.  ``"sim"`` (default) returns the
    fully wired simulator :class:`Deployment`: after the workload is
    attached, :func:`attach_chaos` gives every replica an armed
    :class:`~repro.chaos.driver.ChaosDriver` for the plan's crashes,
    restarts, partitions and cartel.  ``"live"`` returns a
    not-yet-started :class:`~repro.runtime.live.LiveCluster` that runs
    the same spec as an asyncio TCP cluster, where each
    :class:`~repro.runtime.live.LiveNode` arms the same driver and also
    shapes its links to the spec's topology.
    """
    if runtime == "live":
        # Imported lazily: repro.runtime.live imports this module.
        from repro.runtime.live import LiveCluster

        return LiveCluster(spec=compiled.spec, compiled=compiled)
    if runtime != "sim":
        raise ValueError(f"unknown runtime {runtime!r} (expected 'sim' or 'live')")
    spec = compiled.spec
    config = compiled.config
    deployment = build_deployment(
        config,
        warmup=min(spec.warmup, spec.duration / 4),
        latency_model=compiled.latency_model,
        loss_probability=compiled.plan.loss_probability,
        link_bandwidth=compiled.link_bandwidth(),
    )
    if spec.observe.enabled:
        # One tracer for the whole deployment (the sim shares one metrics
        # collector; events carry the pid).  The per-replica capacity the
        # spec names scales by committee size so a sim trace holds as many
        # events as the live runtime's n per-node rings would.
        from repro.observe.trace import Tracer, seeded_run_id

        deployment.metrics.tracer = Tracer(
            seeded_run_id(spec.name, spec.seed),
            capacity=spec.observe.capacity * spec.committee.size,
            sample_rate=spec.observe.sample_rate,
            seed=spec.seed,
        )
    workload_seed = spec.workload.seed if spec.workload.seed is not None else config.seed
    workload = ClientWorkload(
        rate=spec.workload.rate,
        payload_size=spec.workload.payload_size,
        num_clients=spec.workload.num_clients,
        arrival=spec.workload.arrival,
        burst_factor=spec.workload.burst_factor,
        period=spec.workload.arrival_period,
        seed=workload_seed,
    )
    if spec.workload.preload:
        workload.preload_into(deployment.mempool, spec.duration)
    else:
        workload.attach(deployment.simulator, deployment.mempool, spec.duration)

    attach_chaos(deployment.replicas, deployment.network, compiled.plan)
    return deployment


def run_scenario(spec: ScenarioSpec, quick: bool = False) -> RunResult:
    """Run a scenario end to end on the simulator and collect its metrics.

    With ``quick`` the spec is first shrunk via :meth:`ScenarioSpec.quick`
    so the run finishes in seconds.  Fixed spec ⇒ identical metrics.
    """
    wall_started = time.perf_counter()
    if quick:
        spec = spec.quick()
    compiled = compile_scenario(spec)
    deployment = build_scenario_deployment(compiled)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    result = summarise(
        deployment, spec.duration, label=f"{spec.name} {deployment.config.describe()}"
    )
    tracer = deployment.metrics.tracer
    if tracer is not None:
        from repro.observe.metrics import MetricsRegistry

        # Mirror the live node's registry namespace (consensus.* /
        # transport.*) so merged sim and live snapshots are directly
        # comparable; the sim's deployment-wide message counters land
        # under transport.* like the live per-node transport dict.
        metrics = deployment.metrics
        registry = MetricsRegistry()
        registry.fill_counters(deployment.network.counters(), prefix="transport.")
        registry.fill_consensus(metrics)
        registry.gauge("consensus.average_qc_size", metrics.average_qc_size())
        result = dataclass_replace(
            result,
            observability={
                "run_id": tracer.run_id,
                "enabled": True,
                "trace": tracer.snapshot(),
                "metrics": registry.snapshot(),
            },
        )
    return RunResult(
        spec=spec,
        metrics=result,
        attackers=compiled.attacker_ids,
        runtime="sim",
        wall_clock_seconds=time.perf_counter() - wall_started,
    )
