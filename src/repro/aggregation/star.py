"""Star-topology vote aggregation (the HotStuff baseline).

The proposer broadcasts the block to every replica; each replica validates
it, votes and sends its signature share directly to the collector (the
next leader).  The collector verifies each share and finalises the QC as
soon as it holds a quorum — which is precisely why the baseline's QCs
contain only a quorum of votes (Figure 4d) and why a malicious collector
can omit any vote it likes (0-omission probability ``m``, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.aggregation.base import Aggregator, Round, register_aggregator
from repro.aggregation.messages import SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import SignatureShare

__all__ = ["StarAggregator"]


@dataclass(slots=True)
class StarRound(Round):
    """The collector's verified shares, keyed by signer."""

    shares: Dict[int, SignatureShare] = field(default_factory=dict)


@register_aggregator
class StarAggregator(Aggregator):
    """HotStuff-style direct vote collection at the next leader."""

    name = "star"
    round_type = StarRound

    # -- message handling -------------------------------------------------------
    def _on_proposal(self, block: Block) -> None:
        share = self.replica.process_proposal(block)
        collector = self.replica.collector_for(block)
        if share is not None:
            vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=share)
            if collector == self.process_id:
                self._record_share(block, share)
            else:
                self.replica.send(collector, vote, size_bytes=vote.size_bytes)
        if collector == self.process_id:
            self._replay_pending(self._round(block.block_id))

    def _on_vote(self, sender: int, message: SignatureMessage) -> None:
        block = self._vote_block(sender, message)
        if block is None:
            return
        if self.replica.collector_for(block) != self.process_id:
            return
        share = message.signature
        if not isinstance(share, SignatureShare):
            return
        self._trace_hot(
            "share_recv", block.view, block=block.block_id[:12], src=sender, role="collector"
        )
        self.replica.consume_cpu(self.config.cpu_model.verify_share)
        if not self.committee.verify_share(share, block.signing_payload()):
            return
        self._record_share(block, share)

    # -- collection state ----------------------------------------------------------
    def _record_share(self, block: Block, share: SignatureShare) -> None:
        state = self._round(block.block_id)
        if state.done:
            return
        state.shares[share.signer] = share
        self._trace_hot(
            "share_verified",
            block.view,
            block=block.block_id[:12],
            src=share.signer,
            signers=1,
            included=len(state.shares),
        )
        if len(state.shares) < self.config.quorum_size:
            return
        shares = list(state.shares.values())
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share * len(shares))
        aggregate = self.scheme.aggregate([(share, 1) for share in shares])
        self._finalise(block, aggregate)
