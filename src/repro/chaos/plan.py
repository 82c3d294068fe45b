"""The chaos plan: one scenario's faults and shaping, ready to execute.

:func:`repro.scenarios.engine.compile_scenario` resolves a spec into a
:class:`ChaosPlan` — the flat, runtime-agnostic schedule a fault driver
executes: which process crashes (and restarts) when, the timed partition
events, the Byzantine coalition and its victim, and the link-shaping
parameters.  The crash draw, the attacker draw and the timers all derive
from the spec seed, so the same spec + seed yields the same plan in every
process of a cluster, which is what lets worker subprocesses shape their
own links without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import LatencyModel

__all__ = ["ChaosPlan"]


@dataclass(frozen=True)
class ChaosPlan:
    """Everything a fault driver must do to one cluster, by process id.

    Attributes:
        seed: The scenario seed (shaping RNGs derive per-node seeds from it).
        crashes: ``process id -> crash time`` (seconds since protocol start),
            in the order the crash draw picked the processes.
        restarts: ``process id -> restart time`` for crash-restart churn;
            every restarting process must crash first.
        partitions: Timed partition events, applied as reference-counted
            outbound link suppression at every sender.
        attackers: The Byzantine omission coalition (empty = no attack).
        victim: The process whose votes the coalition censors.
        loss_probability: Per-message drop probability on every link.
        latency_model: Propagation-delay model emulated on every link
            (``None`` leaves raw localhost latency).
        bandwidth_bytes_per_sec: Per-link FIFO capacity (``None`` = fat links).
    """

    seed: int
    crashes: Dict[int, float] = field(default_factory=dict)
    restarts: Dict[int, float] = field(default_factory=dict)
    partitions: Tuple[PartitionEvent, ...] = ()
    attackers: Tuple[int, ...] = ()
    victim: Optional[int] = None
    loss_probability: float = 0.0
    latency_model: Optional[LatencyModel] = None
    bandwidth_bytes_per_sec: Optional[float] = None

    def __post_init__(self) -> None:
        for pid, restart_time in self.restarts.items():
            crash_time = self.crashes.get(pid)
            if crash_time is None:
                raise ValueError(f"process {pid} restarts but never crashes")
            if restart_time <= crash_time:
                raise ValueError(f"process {pid} restarts before it crashes")
