"""Timed network partitions: the one description both runtimes execute.

A :class:`PartitionEvent` says which processes can still talk to each
other between two instants.  It carries no mechanics of its own: the
fault executor of both runtimes (:class:`repro.chaos.driver.ChaosDriver`)
reads its :meth:`PartitionEvent.severs` predicate and suppresses each
sender's crossing links from ``at`` to ``heal_at``.  Crashes, restarts and
the Byzantine cartel are scheduled by the same driver from a
:class:`repro.chaos.plan.ChaosPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

__all__ = ["PartitionEvent"]


@dataclass(frozen=True)
class PartitionEvent:
    """A timed network partition with an optional heal time.

    Attributes:
        at: Time the partition takes effect.
        groups: The connectivity components; messages only flow within a
            group while the partition is active.  Processes not listed in
            any group are isolated from everyone.  A process may be listed
            once only.
        heal_at: Time the partition heals (all links restored); ``None``
            means it never heals.
    """

    at: float
    groups: Tuple[Tuple[int, ...], ...]
    heal_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("partition time cannot be negative")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal time must be after the partition time")
        if not self.groups:
            raise ValueError("a partition needs at least one group")
        # Normalise to hashable tuples so specs stay frozen/comparable.
        object.__setattr__(self, "groups", tuple(tuple(group) for group in self.groups))
        listed: Set[int] = set()
        for pid in (pid for group in self.groups for pid in group):
            if pid in listed:
                raise ValueError(f"process {pid} is listed twice in the partition groups")
            listed.add(pid)

    def scaled(self, factor: float) -> "PartitionEvent":
        """The same partition with both times scaled (for --quick runs)."""
        return PartitionEvent(
            at=self.at * factor,
            groups=self.groups,
            heal_at=None if self.heal_at is None else self.heal_at * factor,
        )

    def group_map(self) -> Dict[int, int]:
        """Process id -> connectivity-group index (unlisted ids absent)."""
        return {
            pid: index for index, group in enumerate(self.groups) for pid in group
        }

    def severs(self, src: int, dst: int, group_of: Optional[Dict[int, int]] = None) -> bool:
        """Whether this partition cuts the directed link ``src -> dst``.

        Messages flow only within a group, and processes not listed in any
        group are isolated from everyone (never from themselves).
        """
        if src == dst:
            return False
        if group_of is None:
            group_of = self.group_map()
        return not (
            src in group_of and dst in group_of and group_of[src] == group_of[dst]
        )
