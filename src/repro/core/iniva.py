"""The Iniva vote aggregation protocol (Algorithm 1 of the paper).

Iniva extends plain tree aggregation with two fallback mechanisms that
make it *inclusive* without redundant work in the fault-free case:

* **ACK** — after an internal node forwards its aggregate to the root it
  acknowledges its children with that aggregate.  The ack doubles as proof
  of inclusion and as the safe reply to later 2ND-CHANCE messages
  (answering with an individual signature would let a malicious collector
  exclude the replier's siblings, so processes answer with the aggregate).

* **2ND-CHANCE** — the root (the next leader) contacts every process whose
  signature is still missing, either once it holds a quorum or when its
  aggregation timer fires.  Replies are folded into the final QC before
  the second-chance timer ``δ`` expires.

Together with the indivisibility of the multi-signature scheme this
reduces the probability of a targeted 0-collateral vote omission from
``m`` to ``m²`` (Theorem 4) while guaranteeing Inclusiveness within
``7Δ`` (Theorem 2).

The root folds 2ND-CHANCE replies the way it folds tree votes
(:mod:`repro.aggregation.tree_agg`): a reply carrying an aggregate is
verified on arrival, a bare share is counted once it is well formed and
checked with the root's other unchecked shares as one batch before the
QC is folded.
"""

from __future__ import annotations

from typing import Any, List, Set, Union

from repro.aggregation.base import register_aggregator
from repro.aggregation.messages import (
    AckMessage,
    SecondChanceMessage,
    SecondChanceReply,
)
from repro.aggregation.tree_agg import TreeAggregator, TreeRound
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare

__all__ = ["InivaAggregator"]


@register_aggregator
class InivaAggregator(TreeAggregator):
    """Tree aggregation with ACK confirmations and 2ND-CHANCE fallback."""

    name = "iniva"

    # -- message handling -------------------------------------------------------
    def handle(self, sender: int, message: Any) -> bool:
        if isinstance(message, AckMessage):
            self._on_ack(sender, message)
            return True
        if isinstance(message, SecondChanceMessage):
            self._on_second_chance(sender, message)
            return True
        if isinstance(message, SecondChanceReply):
            self._on_second_chance_reply(sender, message)
            return True
        return super().handle(sender, message)

    # -- internal node: acknowledge aggregated children ---------------------------
    def _after_internal_send(
        self, block: Block, aggregate: AggregateSignature, aggregated_children: List[int]
    ) -> None:
        ack = AckMessage(block_id=block.block_id, view=block.view, aggregate=aggregate)
        self.replica.multicast(aggregated_children, ack, size_bytes=ack.size_bytes)

    # -- child: store the parent's ack as proof of inclusion ------------------------
    def _on_ack(self, sender: int, message: AckMessage) -> None:
        state = self._rounds.get(message.block_id)
        if state is None or state.tree is None:
            return
        tree = state.tree
        if tree.is_root(self.process_id):
            return
        if tree.parent(self.process_id) != sender:
            return
        aggregate = message.aggregate
        if self.process_id not in aggregate:
            # An ack that does not include our own signature is useless as a
            # 2ND-CHANCE reply; ignore it (Algorithm 1, line 30 asserts validity).
            return
        # The ack is stored without an eager pairing check: it is only ever
        # replayed to the root, which verifies it before inclusion, so a bad
        # ack cannot do damage and the common case saves a verification.
        state.parent_ack = aggregate

    # -- root: quorum / timeout → give missing processes a second chance --------------
    def _root_on_quorum(self, block: Block) -> None:
        state = self._tree_round(block)
        if not state.second_chance_sent:
            self._send_second_chances(block)
        elif state.second_chance_expired:
            # The fallback window is over and we (now) hold a quorum:
            # finalise with whatever arrived late.
            self._root_finalise(block)

    def _root_timeout(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.done:
            return
        # Unlike the plain tree, Iniva also falls back below quorum: the
        # 2ND-CHANCE replies may be what completes the quorum.
        self._send_second_chances(block)

    def _send_second_chances(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.done or state.second_chance_sent:
            return
        state.second_chance_sent = True
        missing = [
            pid
            for pid in range(self.config.committee_size)
            if pid not in state.included
        ]
        if not missing:
            self._root_finalise(block)
            return
        # Always traced (never sampled out): the forensic report's
        # omission-cartel visibility hangs on exactly this list of pids.
        self._trace(
            "second_chance",
            phase="request",
            view=block.view,
            block=block.block_id[:12],
            missing=missing,
        )
        proof = None
        if state.contributions:
            proof = self.scheme.aggregate(state.contributions)
        message = SecondChanceMessage(block=block, proof=proof)
        self.replica.multicast(missing, message, size_bytes=message.size_bytes)
        self.replica.set_timer(
            self.config.second_chance_timeout, self._second_chance_timeout, block
        )

    def _second_chance_timeout(self, block: Block) -> None:
        state = self._tree_round(block)
        state.second_chance_expired = True
        if state.done:
            return
        self._root_finalise(block)

    def _root_check_shares(self, block: Block) -> Set[int]:
        bad = super()._root_check_shares(block)
        # A forged bare reply was counted as recovered on arrival; it was not.
        forged_replies = bad & (self._tree_round(block).second_chance_shares or set())
        if forged_replies:
            self.replica.metrics.record_second_chance_inclusion(-len(forged_replies))
        return bad

    # -- recipient of a 2ND-CHANCE ------------------------------------------------------
    def _on_second_chance(self, sender: int, message: SecondChanceMessage) -> None:
        block = message.block
        # Only the block's collector may ask; anything else must not touch
        # (or, through pruning, evict) this replica's rounds.
        if sender != self.replica.collector_for(block):
            return
        state = self._tree_round(block)
        if not self._second_chance_is_valid(message, state):
            return
        if state.own_share is None:
            # The block never reached us through the tree: deliver it now
            # (Algorithm 1, lines 34-37).
            share = self.replica.process_proposal(block)
            if share is None:
                return
            state.own_share = share
        reply_signature: Union[SignatureShare, AggregateSignature]
        if state.parent_ack is not None:
            # Reply with the parent's aggregate so the collector cannot use the
            # 2ND-CHANCE path to strip our siblings out of the certificate.
            reply_signature = state.parent_ack
        else:
            reply_signature = state.own_share
        reply = SecondChanceReply(
            block_id=block.block_id, view=block.view, signature=reply_signature
        )
        self.replica.send(sender, reply, size_bytes=reply.size_bytes)

    def _second_chance_is_valid(self, message: SecondChanceMessage, state: TreeRound) -> bool:
        """The ``isValid`` predicate of Algorithm 1 (line 33)."""
        proof = message.proof
        if proof is not None:
            if self.process_id in proof:
                # Our signature is already included — a correct root would not
                # ask us again, so this is an exclusion attempt.
                return False
            if len(proof.signers) >= self.config.quorum_size:
                return True
            tree = state.tree
            parent = tree.parent(self.process_id) if not tree.is_root(self.process_id) else None
            if parent is not None and parent in proof:
                return True
        # Fallback: sufficient time has passed since block creation.
        elapsed = self.replica.now - message.block.timestamp
        return elapsed >= 2.0 * self.config.delta

    # -- root: fold 2ND-CHANCE replies into the aggregate -----------------------------------
    def _on_second_chance_reply(self, sender: int, message: SecondChanceReply) -> None:
        if self._is_done(message.block_id):
            return
        block = self.replica.known_block(message.block_id)
        state = self._rounds.get(message.block_id)
        if block is None or state is None or state.tree is None:
            return
        if not state.tree.is_root(self.process_id):
            return
        signature = message.signature
        if isinstance(signature, SignatureShare):
            if signature.signer != sender:
                return
            self.replica.consume_cpu(self.config.cpu_model.verify_share)
            if not self.scheme.well_formed(signature):
                return
        elif isinstance(signature, AggregateSignature):
            self.replica.consume_cpu(
                self.config.cpu_model.aggregate_verify_cost(len(signature.signers))
            )
            if not self.committee.verify_aggregate(signature, block.signing_payload()):
                return
        else:
            return
        added = self._root_add_contribution(block, signature, source=sender)
        if added > 0:
            if isinstance(signature, SignatureShare):
                if state.second_chance_shares is None:
                    state.second_chance_shares = set()
                state.second_chance_shares.add(sender)
            self.replica.metrics.record_second_chance_inclusion(added)
            self._trace(
                "second_chance",
                phase="recovered",
                view=block.view,
                block=block.block_id[:12],
                src=sender,
                added=added,
            )
