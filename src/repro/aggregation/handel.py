"""Handel-style multi-level randomised aggregation (baseline).

Handel (Bégassat et al., 2019) aggregates signatures over ``log n``
levels: the committee is recursively split into halves, and at level ``l``
each process tries to obtain the aggregate of the half it does *not*
belong to by contacting a few peers from that half, contributing its own
best aggregate of all lower levels in return.  Aggregation is therefore
redundant (many processes hold overlapping aggregates), which — like
Gosig — protects individual votes probabilistically but invites
free-riding and is not inclusive.

The implementation follows Handel's structure in a simplified form
suitable for the discrete-event experiments:

* the level partition is derived from the per-view deterministic shuffle
  (Handel's verification-priority permutation);
* level ``l`` activates ``l * handel_level_delay`` seconds after a process
  delivers the proposal, and the process then sends its running aggregate
  to ``handel_peers_per_level`` peers of the opposite half;
* incoming aggregates are verified and merged when they add new signers;
* the collector finalises at a quorum (or all signers), like the other
  baselines.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.aggregation.base import Aggregator, register_aggregator
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.tree.shuffle import deterministic_shuffle, view_seed

__all__ = ["HandelAggregator"]


@register_aggregator
class HandelAggregator(Aggregator):
    """Level-based randomised aggregation in the style of Handel."""

    name = "handel"

    # -- dissemination ---------------------------------------------------------
    def disseminate(self, block: Block) -> None:
        message = ProposalMessage(block)
        others = [pid for pid in range(self.config.committee_size) if pid != self.process_id]
        self.replica.multicast(others, message, size_bytes=message.size_bytes)
        self._on_proposal(block)

    # -- message handling --------------------------------------------------------
    def handle(self, sender: int, message: Any) -> bool:
        if isinstance(message, ProposalMessage):
            self._on_proposal(message.block)
            return True
        if isinstance(message, SignatureMessage):
            self._on_contribution(sender, message)
            return True
        return False

    # -- level structure ------------------------------------------------------------
    def num_levels(self) -> int:
        return max(1, math.ceil(math.log2(max(self.config.committee_size, 2))))

    def _ranking(self, block: Block) -> List[int]:
        """The per-view permutation the level partition is derived from."""
        seed = view_seed(self.config.seed, block.view, b"handel|" + block.qc.digest())
        return deterministic_shuffle(list(range(self.config.committee_size)), seed)

    def level_peers(self, block: Block, level: int) -> List[int]:
        """The peer group this process contacts at ``level`` (1-based).

        With the committee laid out in ranked order, the level-``l`` peers
        of a process are the other half of its size-``2^l`` bucket — the
        standard Handel binary partition.
        """
        if level < 1:
            raise ValueError("levels are 1-based")
        ranking = self._ranking(block)
        position = ranking.index(self.process_id)
        bucket = 1 << level
        start = (position // bucket) * bucket
        half = bucket // 2
        if position < start + half:
            peer_slice = ranking[start + half : start + bucket]
        else:
            peer_slice = ranking[start : start + half]
        return [pid for pid in peer_slice if pid != self.process_id]

    # -- proposal path ---------------------------------------------------------------
    def _on_proposal(self, block: Block) -> None:
        state = self._handel_state(block.block_id)
        if state["proposal_handled"]:
            return
        share = self.replica.process_proposal(block)
        if share is None:
            return
        state["proposal_handled"] = True
        state["own_share"] = share
        state["aggregate"] = self.scheme.aggregate([(share, 1)])
        self._drain_pending(block)
        # Activate the levels one after another.
        for level in range(1, self.num_levels() + 1):
            self.replica.set_timer(
                level * self.config.handel_level_delay, self._activate_level, block, level
            )
        if self._is_collector(block):
            self.replica.set_timer(
                self.config.aggregation_timer(height=2), self._collector_timeout, block
            )

    def _activate_level(self, block: Block, level: int) -> None:
        state = self._handel_state(block.block_id)
        if state["done"] or not state["proposal_handled"]:
            return
        peers = self.level_peers(block, level)
        if not peers:
            return
        targets = peers[: max(1, self.config.handel_peers_per_level)]
        message = SignatureMessage(
            block_id=block.block_id, view=block.view, signature=state["aggregate"]
        )
        self.replica.multicast(targets, message, size_bytes=message.size_bytes)

    # -- merging --------------------------------------------------------------------------
    def _on_contribution(self, sender: int, message: SignatureMessage) -> None:
        if self._is_done(message.block_id):
            return
        block = self.replica.known_block(message.block_id)
        state = self._handel_state(message.block_id)
        if block is None or not state["proposal_handled"]:
            state["pending"].append((sender, message))
            return
        incoming = message.signature
        current: AggregateSignature = state["aggregate"]
        if isinstance(incoming, SignatureShare):
            if incoming.signer in current.signers:
                return
            self.replica.consume_cpu(self.config.cpu_model.verify_share)
            if not self.committee.verify_share(incoming, block.signing_payload()):
                return
        elif isinstance(incoming, AggregateSignature):
            if not set(incoming.signers) - set(current.signers):
                return
            self.replica.consume_cpu(
                self.config.cpu_model.aggregate_verify_cost(len(incoming.signers))
            )
            if not self.committee.verify_aggregate(incoming, block.signing_payload()):
                return
        else:
            return
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share)
        state["aggregate"] = self.scheme.aggregate([(current, 1), (incoming, 1)])
        if self._is_collector(block):
            self._collector_check(block)

    # -- collector --------------------------------------------------------------------------
    def _is_collector(self, block: Block) -> bool:
        return self.replica.collector_for(block) == self.process_id

    def _collector_check(self, block: Block) -> None:
        state = self._handel_state(block.block_id)
        if state["done"]:
            return
        aggregate: AggregateSignature = state["aggregate"]
        if len(aggregate.signers) >= self.config.quorum_size:
            self._finalise(block, aggregate)

    def _collector_timeout(self, block: Block) -> None:
        state = self._handel_state(block.block_id)
        if state["done"] or state["aggregate"] is None:
            return
        if len(state["aggregate"].signers) >= self.config.quorum_size:
            self._finalise(block, state["aggregate"])

    # -- state -------------------------------------------------------------------------------
    def _handel_state(self, block_id: str) -> Dict[str, Any]:
        state = self._state.get(block_id)
        if state is None:
            state = {
                "proposal_handled": False,
                "own_share": None,
                "aggregate": None,
                "pending": [],
                "done": False,
            }
            self._state[block_id] = state
            self._prune()
        return state

    def _drain_pending(self, block: Block) -> None:
        state = self._handel_state(block.block_id)
        pending, state["pending"] = state["pending"], []
        for sender, message in pending:
            self._on_contribution(sender, message)
