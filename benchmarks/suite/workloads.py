"""The five workloads: their specs, their sizes and why each exists.

Sizes are *fixed work*, not wall windows: ``--seconds`` picks how many
blocks (or virtual seconds, or stage seconds) a run measures, scaled so
that the reference host spends about that long measuring.  A faster or
slower program measures the same work in less or more time, which keeps
counts comparable between commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.scenarios.spec import (
    CommitteeSpec,
    FaultSpec,
    ObserveSpec,
    ResilienceSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

BATCH_SIZE = 10
#: The sim workload's crash set is part of the workload, not of the seed:
#: where the ten dead leaders sit in the round-robin decides how many
#: three-chains break, and that swamps everything else when it varies.
SIM_CRASH_SEED = 11
SIM_WARMUP = 2.0
SIM_RATE = 600.0
#: Virtual seconds simulated per second of ``--seconds``.
SIM_VIRTUAL_PER_SECOND = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "saturated" | "clients" | "sim"
    size: int = 4
    scheme: str = "hashsig"
    procs: int = 1
    warmup_blocks: int = 0
    blocks_per_second: int = 0  # measured blocks per second of --seconds
    segment: int = 50  # blocks per throughput segment (detail only)
    #: One-way delay the chaos shaper injects on every live link (seconds).
    link_delay: float = 0.0005

    @property
    def delta(self) -> float:
        """Δ, the protocol's bound on message delay: 2.5 ms, or twice the
        injected link delay where that is more."""
        return max(0.0025, 2.0 * self.link_delay)

    def measured_blocks(self, seconds: float) -> int:
        """Measured block count: whole segments, at least one."""
        wanted = int(self.blocks_per_second * seconds)
        return max(1, wanted // self.segment) * self.segment


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "clients-n4-openloop",
            "open-loop client ladder over TCP at n=4: codec, mempool admission and "
            "batching, commit replies; consensus is trivial, so tree and crypto work "
            "should not move it",
            kind="clients",
        ),
        Workload(
            "committee-n50",
            "closed-loop saturated n=50 in one event loop: tree aggregation, replica "
            "logic and colocated fabric dispatch do the work; codec and sessions do none",
            kind="saturated",
            size=50,
            warmup_blocks=50,
            blocks_per_second=60,
        ),
        Workload(
            "procs2-n16",
            "n=16 over two worker processes: every cross-worker message goes through "
            "codec and sessions on loopback TCP, the path committee-n50 bypasses",
            kind="saturated",
            size=16,
            procs=2,
            warmup_blocks=50,
            blocks_per_second=40,
            # Two saturated workers need both vCPUs of the reference host
            # to themselves.  Whenever a neighbour takes part of one, that
            # worker's replicas become stragglers and every view waits out
            # the 2ND-CHANCE timer: the same 600 blocks took 4.3 to 13.9 s
            # within one set of ten runs.  3 ms links pace the views instead
            # and leave each worker ~40 % busy, so the TCP path's cost shows
            # in cpu_ms_per_block and the rate repeats.
            link_delay=0.003,
        ),
        Workload(
            "bls-n16",
            "n=16 with BLS signatures: pairings and aggregation dominate, tree logic and "
            "transport are minor; the hashsig workloads are its bypass",
            kind="saturated",
            size=16,
            scheme="bls",
            warmup_blocks=30,
            blocks_per_second=32,
            segment=30,
        ),
        Workload(
            "sim-n100-crash10",
            "deterministic simulator, n=100 with 10 crashed replicas and Poisson clients: "
            "the protocol core without asyncio, the only run where 2ND-CHANCE fires, "
            "and the source of exact counts",
            kind="sim",
            size=100,
        ),
    )
}


def live_spec(workload: Workload, seed: int, *, blocks: int = 0, rate: float = 0.0,
              stage_seconds: float = 0.0, observe: bool = False) -> ScenarioSpec:
    """The live spec of ``workload``.

    ``blocks`` > 0 selects preload (replay) mode with enough requests that
    the mempool outlasts ``blocks`` full batches; otherwise the built-in
    open-loop swarm offers ``rate`` ops/s for ``stage_seconds``.
    """
    if blocks:
        # preload_into submits int(rate * duration) requests at time zero.
        preload = (blocks + 50 + blocks // 10) * BATCH_SIZE
        duration = 10.0
        client_load = WorkloadSpec(rate=preload / duration, payload_size=64, preload=True, seed=seed)
    else:
        duration = stage_seconds
        client_load = WorkloadSpec(
            rate=rate,
            payload_size=64,
            num_clients=32,
            seed=seed,
            arrival="poisson",
            max_pending=20_000,
        )
    return ScenarioSpec(
        name=f"suite-{workload.name}",
        aggregation="iniva",
        signature_scheme=workload.scheme,
        batch_size=BATCH_SIZE,
        duration=duration,
        warmup=0.0,
        seed=seed,
        delta=workload.delta,
        second_chance_timeout=2.0 * workload.delta,
        # No view should time out on these clean runs.  One second keeps a
        # stall of the shared host (0.3 s happens) from being taken for a
        # dead leader, which sets off a burst of view changes.
        view_timeout=1.0,
        committee=CommitteeSpec(size=workload.size),
        topology=TopologySpec(kind="constant", intra_delay=workload.link_delay),
        workload=client_load,
        observe=ObserveSpec(enabled=observe, capacity=1 << 16),
        # Worker processes do not tell each other to stop: the one that is
        # a block short when the other reaches the target would idle out
        # the whole wall cap.  The commit-progress watchdog ends it.
        resilience=ResilienceSpec(quiesce_after=1.5 if workload.procs > 1 else None),
    )


def sim_spec(workload: Workload, seed: int, virtual_seconds: float, *,
             aggregation: str = "iniva", observe: bool = False) -> ScenarioSpec:
    """The simulator spec: ``virtual_seconds`` measured after the warm-up."""
    return ScenarioSpec(
        name=f"suite-{workload.name}-{aggregation}",
        aggregation=aggregation,
        signature_scheme=workload.scheme,
        batch_size=100,
        duration=SIM_WARMUP + virtual_seconds,
        warmup=SIM_WARMUP,
        seed=seed,
        committee=CommitteeSpec(size=workload.size),
        faults=FaultSpec(crashes=10, crash_seed=SIM_CRASH_SEED),
        workload=WorkloadSpec(rate=SIM_RATE, payload_size=64, arrival="poisson", seed=seed),
        # The sim keeps one ring for the whole deployment, scaled by n.
        observe=ObserveSpec(enabled=observe, capacity=1 << 13),
    )
