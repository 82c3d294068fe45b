"""Gosig-style randomised gossip vote aggregation (baseline).

Gosig (Li et al., SoCC 2020) replaces the aggregation tree with a
randomised overlay: every process repeatedly sends its current aggregate
to ``k`` peers drawn uniformly at random from the committee, and merges
every aggregate it receives into its own.  The collector (the next
leader in the LSO model) finalises the QC once it holds a quorum.

Two behaviours the paper's security analysis (Section VII) highlights are
modelled explicitly:

* **Free-riding** — a configurable fraction of processes skips the costly
  verify-and-merge step and only ever forwards its own signature.  The
  paper shows this sharply increases the success of targeted vote
  omission; the Monte-Carlo model in :mod:`repro.attacks.gosig_sim`
  quantifies that effect, while this aggregator lets the same behaviour
  run inside the discrete-event experiments.
* **Probabilistic inclusion** — even without faults the final certificate
  may miss correct processes (Gosig is not inclusive), which shows up in
  the QC-size metric.

The merge rule only folds in aggregates that contribute at least one new
signer, keeping multiplicities bounded while preserving the indivisible
aggregation semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.aggregation.base import Aggregator, Round, register_aggregator
from repro.aggregation.messages import SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare

__all__ = ["GosigAggregator"]

#: Seconds between two gossip rounds of one process.
GOSSIP_INTERVAL = 0.002


@dataclass(slots=True)
class GosigRound(Round):
    """A Gosig round: this replica's share, running aggregate and gossip state."""

    own_share: Optional[SignatureShare] = None
    aggregate: Optional[AggregateSignature] = None
    #: The gossip rounds sent so far and the peer-sampling rng.
    rounds_sent: int = 0
    rng: Optional[random.Random] = None


@register_aggregator
class GosigAggregator(Aggregator):
    """Randomised gossip aggregation with parameter ``k`` (``gossip_fanout``).

    Every replica folds what it receives into a running aggregate when it
    adds new signers and gossips that aggregate to ``k`` random peers every
    :data:`GOSSIP_INTERVAL`; the collector finalises at a quorum.
    """

    name = "gosig"
    round_type = GosigRound

    # -- behaviour classification --------------------------------------------------
    def is_free_rider(self, block: Block) -> bool:
        """Whether this process skips aggregation work for ``block``.

        Free-riders are a deterministic prefix of the committee so that
        experiments are reproducible; the collector never free-rides (it
        must aggregate to form a QC at all).
        """
        count = int(round(self.config.free_rider_fraction * self.config.committee_size))
        if self.process_id >= count:
            return False
        return self.replica.collector_for(block) != self.process_id

    # -- proposal path ---------------------------------------------------------------
    def _on_proposal(self, block: Block) -> None:
        state = self._round(block.block_id)
        if state.own_share is not None:
            return
        share = self.replica.process_proposal(block)
        if share is None:
            return
        state.own_share = share
        state.aggregate = self.scheme.aggregate([(share, 1)])
        self._replay_pending(state)
        state.rng = random.Random(
            (self.config.seed * 1_000_003 + self.process_id) * 1_000_003 + block.view
        )
        self._gossip_round(block)
        if self._is_collector(block):
            # The collector also arms a deadline: with message loss or many
            # free-riders the aggregate may never reach the full committee.
            self.replica.set_timer(
                self.config.aggregation_timer(height=2), self._collector_check, block
            )

    # -- merging incoming aggregates ----------------------------------------------------
    def _awaits_proposal(self, state: Optional[GosigRound]) -> bool:
        return state is None or state.own_share is None

    def _on_vote(self, sender: int, message: SignatureMessage) -> None:
        block = self._vote_block(sender, message)
        if block is None:
            return
        merged = self._merge(block, self._round(block.block_id), message.signature)
        if merged and self._is_collector(block):
            self._collector_check(block)

    def _merge(self, block: Block, state: GosigRound, incoming: Any) -> bool:
        """Fold ``incoming`` into the local aggregate if it adds new signers."""
        if self.is_free_rider(block):
            # Free-riders do not verify or merge other processes' work.
            return False
        current = state.aggregate
        if isinstance(incoming, SignatureShare):
            new_signers = {incoming.signer} - set(current.signers)
            if not new_signers:
                return False
            self.replica.consume_cpu(self.config.cpu_model.verify_share)
            if not self.committee.verify_share(incoming, block.signing_payload()):
                return False
        elif isinstance(incoming, AggregateSignature):
            new_signers = set(incoming.signers) - set(current.signers)
            if not new_signers:
                return False
            self.replica.consume_cpu(
                self.config.cpu_model.aggregate_verify_cost(len(incoming.signers))
            )
            if not self.committee.verify_aggregate(incoming, block.signing_payload()):
                return False
        else:
            return False
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share)
        state.aggregate = self.scheme.aggregate([(current, 1), (incoming, 1)])
        return True

    # -- gossip rounds --------------------------------------------------------------
    def _gossip_round(self, block: Block) -> None:
        state = self._round(block.block_id)
        if state.done or state.rounds_sent >= self.config.gossip_rounds:
            return
        state.rounds_sent += 1
        payload: Union[SignatureShare, AggregateSignature]
        if self.is_free_rider(block):
            payload = state.own_share
        else:
            payload = state.aggregate
        peers = self._pick_peers(state.rng)
        message = SignatureMessage(block_id=block.block_id, view=block.view, signature=payload)
        self.replica.multicast(peers, message, size_bytes=message.size_bytes)
        self.replica.set_timer(GOSSIP_INTERVAL, self._gossip_round, block)

    def _pick_peers(self, rng: random.Random) -> List[int]:
        population = [pid for pid in range(self.config.committee_size) if pid != self.process_id]
        fanout = min(self.config.gossip_fanout, len(population))
        return rng.sample(population, fanout)

    # -- collector --------------------------------------------------------------------------
    def _is_collector(self, block: Block) -> bool:
        return self.replica.collector_for(block) == self.process_id

    def _collector_check(self, block: Block) -> None:
        """Finalise at a quorum; also the collector's deadline callback."""
        state = self._round(block.block_id)
        if state.done or state.aggregate is None:
            return
        if len(state.aggregate.signers) >= self.config.quorum_size:
            self._finalise(block, state.aggregate)
