"""The scheduled fault driver executing a :class:`ChaosPlan` on one node.

One :class:`ChaosDriver` is attached to every live node.  It is
deliberately decentralised: because the plan is deterministic from the
spec seed, every node arms the *same* schedule against the shared cluster
epoch clock, so partitions cut both directions of a link without any
cross-node (or cross-worker-process) coordination — each sender
suppresses its own outbound half, exactly like the simulated network
blocks directed links.

The driver only needs the narrow node surface the live runtime already
provides: ``pid``, ``replica``, ``runtime`` (for ``now``/``set_timer``)
and the committee size; it never touches sockets itself.
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional, Set

from repro.attacks.byzantine import corrupt_replica
from repro.chaos.plan import ChaosPlan
from repro.chaos.shaping import LinkShaper
from repro.simnet.failures import PartitionEvent

__all__ = ["ChaosDriver"]


class ChaosDriver:
    """Executes crashes, restarts, partitions and attacks for one node.

    Args:
        node: The owning live node (duck-typed: ``pid``, ``replica``,
            ``runtime`` and ``compiled.config.committee_size``).
        plan: The cluster-wide chaos plan (identical on every node).
    """

    def __init__(self, node, plan: ChaosPlan) -> None:
        self.node = node
        self.plan = plan
        self.shaper: Optional[LinkShaper] = None
        if plan.shapes_traffic:
            self.shaper = LinkShaper(
                pid=node.pid,
                latency_model=plan.latency_model,
                loss_probability=plan.loss_probability,
                bandwidth_bytes_per_sec=plan.bandwidth_bytes_per_sec,
                seed=plan.seed,
            )
        # Reference-counted suppression of this node's outbound links,
        # mirroring ``Network._blocked_links``: overlapping partitions
        # compose, healing one never unblocks a link another still holds.
        self._blocked_links: Dict[int, int] = {}
        if plan.attackers and node.pid in plan.attackers:
            corrupt_replica(node.replica, plan.victim)

    # -- shaping ---------------------------------------------------------------
    def blocked(self, dst: int) -> bool:
        """Whether the outbound link to ``dst`` is partition-suppressed."""
        return dst in self._blocked_links

    @property
    def blocked_links(self) -> KeysView[int]:
        """Every peer whose outbound link is currently suppressed."""
        return self._blocked_links.keys()

    # -- scheduled faults --------------------------------------------------------
    def arm(self) -> None:
        """Arm every timer-driven fault; call once, at protocol start.

        Times in the plan are seconds since protocol start, which is what
        the runtime clock reports, so scheduling is a plain ``set_timer``.
        """
        runtime = self.node.runtime
        now = runtime.now
        crash_at = self.plan.crashes.get(self.node.pid)
        if crash_at is not None:
            # Route through the node's fault hooks when it has them (the
            # live node resets failure-detector clocks on recovery); fall
            # back to the bare replica for stub nodes in tests.
            crash = getattr(self.node, "crash_replica", self.node.replica.crash)
            runtime.set_timer(max(crash_at - now, 0.0), crash)
            restart_at = self.plan.restarts.get(self.node.pid)
            if restart_at is not None:
                recover = getattr(self.node, "recover_replica", self.node.replica.recover)
                runtime.set_timer(max(restart_at - now, 0.0), recover)
        for event in self.plan.partitions:
            self._arm_partition(event, now)

    def _arm_partition(self, event: PartitionEvent, now: float) -> None:
        """Mirror of :meth:`FailureInjector.schedule_partition`, outbound-only."""
        blocked: Set[int] = set()
        runtime = self.node.runtime

        def apply() -> None:
            for dst in self._crossing_destinations(event):
                self._blocked_links[dst] = self._blocked_links.get(dst, 0) + 1
                blocked.add(dst)

        def heal() -> None:
            for dst in blocked:
                count = self._blocked_links.get(dst, 0)
                if count <= 1:
                    self._blocked_links.pop(dst, None)
                else:
                    self._blocked_links[dst] = count - 1
            blocked.clear()

        if event.heal_at is not None and event.heal_at <= now:
            return  # already healed before it could take effect
        if event.at <= now:
            apply()
        else:
            runtime.set_timer(event.at - now, apply)
        if event.heal_at is not None:
            runtime.set_timer(event.heal_at - now, heal)

    def _crossing_destinations(self, event: PartitionEvent) -> List[int]:
        """Peers this node loses while ``event`` is active (directed links).

        Uses the same :meth:`PartitionEvent.severs` predicate the sim's
        ``FailureInjector`` applies, so the substrates cannot drift.
        """
        group_of = event.group_map()
        src = self.node.pid
        return [
            dst
            for dst in range(self.node.compiled.config.committee_size)
            if event.severs(src, dst, group_of)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChaosDriver(pid={self.node.pid}, shaping={self.shaper is not None}, "
            f"faults={self.plan.has_scheduled_faults}, "
            f"attacker={self.node.pid in self.plan.attackers})"
        )
