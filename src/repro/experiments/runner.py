"""The simulator deployment builder and the shared sweep pool.

:func:`build_deployment` wires a simulated committee (simulator, network,
keys, mempool, replicas) for one :class:`ConsensusConfig`, and
:func:`summarise` reads an :class:`~repro.results.ExperimentResult` off
it after the run.  :mod:`repro.scenarios.engine` compiles every
:class:`~repro.scenarios.spec.ScenarioSpec` down to these two; callers
go through the :mod:`repro.api` facade (``run`` / ``sweep`` /
``deploy``).

Sweeps over many configurations are embarrassingly parallel — every run
owns its own simulator, network and committee — so :func:`parallel_map`
fans independent jobs out over worker processes with
``concurrent.futures`` while preserving input order and per-run
determinism.  Set the ``REPRO_MAX_WORKERS`` environment variable (or the
``max_workers`` argument) to bound or disable the parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.consensus.config import ConsensusConfig
from repro.consensus.leader import make_leader_election
from repro.consensus.mempool import Mempool
from repro.consensus.replica import HotStuffReplica
from repro.crypto.keys import Committee
from repro.crypto.multisig import run_scheme
from repro.results import ExperimentResult
from repro.simnet.events import Simulator
from repro.simnet.latency import NormalLatency
from repro.simnet.metrics import MetricsCollector
from repro.simnet.network import Network

__all__ = ["Deployment", "build_deployment", "default_sweep_workers", "parallel_map", "summarise"]


@dataclass
class Deployment:
    """A fully wired simulated committee, ready to run."""

    config: ConsensusConfig
    simulator: Simulator
    network: Network
    committee: Committee
    mempool: Mempool
    metrics: MetricsCollector
    replicas: List[HotStuffReplica]

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def correct_replicas(self) -> List[HotStuffReplica]:
        return [replica for replica in self.replicas if not replica.crashed]


def build_deployment(
    config: ConsensusConfig,
    warmup: float = 0.0,
    latency_model=None,
    loss_probability: float = 0.0,
    link_bandwidth=None,
) -> Deployment:
    """Instantiate simulator, network, keys and replicas for ``config``."""
    simulator = Simulator()
    network = Network(
        simulator,
        # The paper's cluster has sub-millisecond latency; Δ (config.delta)
        # is the protocol's synchrony assumption and includes processing
        # headroom, so the raw network latency is configured independently.
        latency_model=latency_model or NormalLatency(mean=0.0005, std=0.0001),
        seed=config.seed,
        loss_probability=loss_probability,
        link_bandwidth=link_bandwidth,
    )
    scheme = run_scheme(config.signature_scheme)
    committee = Committee(scheme, config.committee_size, seed=config.seed)
    metrics = MetricsCollector(warmup=warmup)
    mempool = Mempool(metrics=metrics)
    election = make_leader_election(config.leader_policy, config.committee_size)
    replicas = [
        HotStuffReplica(
            process_id=pid,
            simulator=simulator,
            network=network,
            committee=committee,
            config=config,
            mempool=mempool,
            election=election,
            metrics=metrics,
        )
        for pid in range(config.committee_size)
    ]
    return Deployment(
        config=config,
        simulator=simulator,
        network=network,
        committee=committee,
        mempool=mempool,
        metrics=metrics,
        replicas=replicas,
    )


def default_sweep_workers() -> int:
    """Worker count for sweeps: ``REPRO_MAX_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_MAX_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_MAX_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], max_workers: Optional[int] = None
) -> List[_R]:
    """Map ``fn`` over ``items`` through the shared worker-process pool.

    This is the one fan-out primitive every sweep in the repository uses:
    :func:`repro.api.sweep` and the per-cell grids of the figure modules
    all go through it.  ``fn`` and the items must be picklable
    (module-level functions and plain data).  Results preserve
    input order regardless of which worker finishes first; with
    ``max_workers`` (or ``REPRO_MAX_WORKERS``) equal to one everything
    runs serially in-process, which is bit-identical to the parallel run.
    """
    item_list: Sequence[_T] = list(items)
    if max_workers is None:
        max_workers = default_sweep_workers()
    max_workers = max(1, min(max_workers, len(item_list)))
    if max_workers == 1 or len(item_list) <= 1:
        return [fn(item) for item in item_list]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, item_list))


def summarise(deployment: Deployment, duration: float, label: Optional[str] = None) -> ExperimentResult:
    """Collect the post-run metrics from a deployment."""
    metrics = deployment.metrics
    metrics.mark_window(0.0, duration)
    restarts_by_pid = {replica.process_id: replica.restarts for replica in deployment.replicas}
    correct = deployment.correct_replicas()
    max_view = max((replica.current_view for replica in correct), default=0)
    successful_views = metrics.total_views()  # record_view(True) per formed QC
    total_views = max(max_view - 1, successful_views)
    failed_fraction = 0.0
    if total_views > 0:
        failed_fraction = max(0.0, 1.0 - successful_views / total_views)
    cpu = [replica.cpu_utilisation(duration) for replica in deployment.replicas]
    latency = metrics.latency_stats()
    # Recovery telemetry, only for replicas that actually crashed or
    # restarted — fault-free runs keep an empty resilience record.
    per_replica = {}
    for replica in deployment.replicas:
        if replica.restarts == 0 and getattr(replica, "crashed_at", None) is None:
            continue
        recovered_at = replica.recovered_at
        first_commit = replica.first_commit_after_recovery
        time_to_rejoin = None
        if recovered_at is not None and first_commit is not None:
            time_to_rejoin = max(first_commit - recovered_at, 0.0)
        per_replica[str(replica.process_id)] = {
            "restarts": replica.restarts,
            "crashed_at": replica.crashed_at,
            "recovered_at": recovered_at,
            "first_commit_after_recovery": first_commit,
            "time_to_rejoin": time_to_rejoin,
            "catchup_blocks": replica.catchup_blocks,
            "sync_requests_sent": replica.sync_requests_sent,
            "sync_requests_served": replica.sync_requests_served,
        }
    resilience = {"per_replica": per_replica} if per_replica else {}
    return ExperimentResult(
        config_label=label or deployment.config.describe(),
        duration=duration,
        throughput=metrics.throughput(),
        latency=latency,
        failed_view_fraction=failed_fraction,
        total_views=total_views,
        successful_views=successful_views,
        average_qc_size=metrics.average_qc_size(),
        second_chance_inclusions=metrics.second_chance_inclusions(),
        cpu_utilisation_mean=sum(cpu) / len(cpu) if cpu else 0.0,
        cpu_utilisation_max=max(cpu) if cpu else 0.0,
        committed_operations=metrics.committed_operations(),
        committed_blocks=metrics.committed_blocks(),
        message_counters=deployment.network.counters(),
        # The network owns the framing-layer counters; restart counts live
        # on the processes (crash-restart churn) and are merged in here so
        # sim and live report the same per-replica transport schema.
        transport={
            str(pid): {**counts, "restarts": restarts_by_pid.get(pid, 0)}
            for pid, counts in deployment.network.per_replica_counters().items()
        },
        resilience=resilience,
    )
