"""Byzantine aggregator behaviours for protocol-level attack experiments.

The Monte-Carlo analysis in :mod:`repro.attacks.omission` reasons about
targeted vote omission *structurally*; this module provides the matching
behaviours for the discrete-event protocol implementation so the same
claims can be exercised end-to-end: a corrupted internal aggregator that
silently drops its victim's share, and a corrupted collector that withholds
the victim's 2ND-CHANCE and discards its direct contributions.

A spec's omission cartel reaches the replicas through the fault
executor of both runtimes: :class:`repro.chaos.driver.ChaosDriver` calls
:func:`corrupt_replica` for every attacker in the plan before the replica
starts.  The integration tests drive such plans to demonstrate Theorem 4
on whole runs: a single corrupted role is never enough to omit the
victim — the fallback path (honest collector) or the indivisible parent
aggregate (honest parent) always re-adds it — while a coalition holding
both roles succeeds.
"""

from __future__ import annotations

from repro.aggregation.messages import SecondChanceReply
from repro.aggregation.tree_agg import signers_of
from repro.consensus.block import Block
from repro.core.iniva import InivaAggregator

__all__ = ["OmittingInivaAggregator", "corrupt_replica"]


class OmittingInivaAggregator(InivaAggregator):
    """An Iniva aggregator that tries to censor one victim's vote.

    The behaviour follows the paper's targeted vote omission attack with
    collateral 0:

    * as an internal node it leaves the victim's share out of its
      aggregate (and consequently never acknowledges the victim);
    * as the collector it never sends the victim a 2ND-CHANCE message and
      discards any individual contribution or fallback reply that could
      only add the victim;
    * it never discards aggregates that already contain the victim —
      doing so would exclude other processes and exceed the collateral
      budget (and the multi-signature is indivisible, so the victim cannot
      be carved out of them).
    """

    # Deliberately NOT added to the aggregator registry: experiment configs
    # cannot select it by name; a plan's attackers get it from the fault
    # driver, through `corrupt_replica`.
    name = "byzantine-omitting-iniva"

    def __init__(self, replica, victim: int) -> None:
        super().__init__(replica)
        self.victim = victim

    # -- internal node behaviour --------------------------------------------
    def _internal_send_up(self, block: Block) -> None:
        self._tree_round(block).children_shares.pop(self.victim, None)
        super()._internal_send_up(block)

    # -- collector behaviour ---------------------------------------------------
    def _send_second_chances(self, block: Block) -> None:
        from repro.aggregation.messages import SecondChanceMessage

        state = self._tree_round(block)
        if state.done or state.second_chance_sent:
            return
        state.second_chance_sent = True
        missing = [
            pid
            for pid in range(self.config.committee_size)
            if pid not in state.included and pid != self.victim
        ]
        if not missing:
            # Everyone except (possibly) the victim is in: finalise without it.
            self._root_finalise(block)
            return
        proof = self.scheme.aggregate(state.contributions) if state.contributions else None
        message = SecondChanceMessage(block=block, proof=proof)
        self.replica.multicast(missing, message, size_bytes=message.size_bytes)
        self.replica.set_timer(
            self.config.second_chance_timeout, self._second_chance_timeout, block
        )

    def _root_add_contribution(self, block: Block, contribution, source: int) -> int:
        # Drop contributions whose only effect would be adding the victim
        # (its individual share or a fallback reply centred on it).
        if signers_of(contribution) == {self.victim}:
            return 0
        return super()._root_add_contribution(block, contribution, source)

    def _on_second_chance_reply(self, sender: int, message: SecondChanceReply) -> None:
        if sender == self.victim:
            return
        super()._on_second_chance_reply(sender, message)


def corrupt_replica(replica, victim: int) -> None:
    """Swap one replica's aggregator for the omission attacker.

    Runtime-agnostic: works on any :class:`HotStuffReplica` regardless of
    the substrate it runs on (the simulator's deployment or a live
    :class:`~repro.runtime.live.LiveNode`), as long as the replica has not
    started yet.  The consensus layer of the corrupted replica is left
    untouched: it still proposes, votes and commits correctly — the attack
    is purely about which votes it aggregates, exactly as in the paper's
    threat model.
    """
    if replica.process_id == victim:
        raise ValueError("the victim cannot be one of the attacker processes")
    replica.aggregator = OmittingInivaAggregator(replica, victim=victim)

