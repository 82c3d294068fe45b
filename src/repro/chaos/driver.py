"""The scheduled fault driver executing a :class:`ChaosPlan` on one replica.

Both runtimes attach one :class:`ChaosDriver` to every replica: the
simulator through :func:`repro.scenarios.engine.attach_chaos`, the live
cluster in :class:`~repro.runtime.live.LiveNode`.  It is deliberately
decentralised: because the plan is deterministic from the spec seed,
every replica arms the *same* schedule against its runtime clock, so
partitions cut both directions of a link without any cross-node (or
cross-worker-process) coordination — each sender suppresses its own
outbound half, and its transport asks :meth:`ChaosDriver.blocked` before
sending.

The driver only uses the runtime verbs ``now`` and ``set_timer``; it
never touches a socket, the simulator or the network itself.
"""

from __future__ import annotations

from typing import Callable, Dict, KeysView, List, Set

from repro.attacks.byzantine import corrupt_replica
from repro.chaos.plan import ChaosPlan
from repro.simnet.failures import PartitionEvent

__all__ = ["ChaosDriver"]


class ChaosDriver:
    """Executes crashes, restarts, partitions and the cartel for one replica.

    Args:
        replica: The process the faults happen to: its ``process_id`` and
            ``runtime`` (for ``now``/``set_timer``); an attacker's
            aggregator is swapped here, before the replica starts.
        committee_size: Process ids a partition can cut this replica from.
        plan: The cluster-wide chaos plan (identical on every replica).
        crash: Called when the plan crashes this replica.
        recover: Called when the plan restarts it.
    """

    def __init__(
        self,
        replica,
        committee_size: int,
        plan: ChaosPlan,
        crash: Callable[[], None],
        recover: Callable[[], None],
    ) -> None:
        self.pid = replica.process_id
        self.runtime = replica.runtime
        self.committee_size = committee_size
        self.plan = plan
        self._crash = crash
        self._recover = recover
        # Reference-counted suppression of this replica's outbound links:
        # overlapping partitions compose, healing one never unblocks a link
        # another still holds.
        self._cut: Dict[int, int] = {}
        if self.pid in plan.attackers:
            corrupt_replica(replica, plan.victim)

    def blocked(self, dst: int) -> bool:
        """Whether the outbound link to ``dst`` is partition-suppressed."""
        return dst in self._cut

    @property
    def blocked_links(self) -> KeysView[int]:
        """Every peer whose outbound link is currently suppressed."""
        return self._cut.keys()

    def arm(self) -> None:
        """Arm every timer-driven fault; call once, before the replica starts.

        Times in the plan are seconds on the runtime clock.  A fault already
        due is applied here, synchronously, not from a zero-delay timer, so a
        replica crashed from the start never runs its ``start()``.
        """
        now = self.runtime.now
        crash_at = self.plan.crashes.get(self.pid)
        if crash_at is not None:
            self._at(crash_at, now, self._crash)
            restart_at = self.plan.restarts.get(self.pid)
            if restart_at is not None:
                self._at(restart_at, now, self._recover)
        for event in self.plan.partitions:
            self._arm_partition(event, now)

    def _at(self, when: float, now: float, action: Callable[[], None]) -> None:
        if when <= now:
            action()
        else:
            self.runtime.set_timer(when - now, action)

    def _arm_partition(self, event: PartitionEvent, now: float) -> None:
        blocked: Set[int] = set()

        def apply() -> None:
            for dst in self._crossing_destinations(event):
                self._cut[dst] = self._cut.get(dst, 0) + 1
                blocked.add(dst)

        def heal() -> None:
            for dst in blocked:
                count = self._cut.get(dst, 0)
                if count <= 1:
                    self._cut.pop(dst, None)
                else:
                    self._cut[dst] = count - 1
            blocked.clear()

        if event.heal_at is not None and event.heal_at <= now:
            return  # already healed before it could take effect
        self._at(event.at, now, apply)
        if event.heal_at is not None:
            self.runtime.set_timer(event.heal_at - now, heal)

    def _crossing_destinations(self, event: PartitionEvent) -> List[int]:
        """Peers this replica loses while ``event`` is active (directed links)."""
        group_of = event.group_map()
        return [
            dst
            for dst in range(self.committee_size)
            if event.severs(self.pid, dst, group_of)
        ]
