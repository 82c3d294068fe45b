"""Two-level tree vote aggregation without fallback paths (Iniva-No2C).

This is the Kauri/ByzCoin-style baseline: the proposer pushes the block to
the tree root (the next leader) and the root's children; internal nodes
forward it to their leaves, aggregate their children's signatures and send
the aggregate up; the root finalises once it holds a quorum or its
aggregation timer fires.  There is no ACK and no 2ND-CHANCE, so the
failure of an internal node silently loses its whole subtree — exactly the
weakness Iniva's fallback paths remove (the Iniva aggregator in
:mod:`repro.core.iniva` subclasses this one).

The multiplicity encoding of Iniva's reward scheme is already applied here
(each aggregated child is included twice, plus one extra copy of the
parent's own signature per child) so that the reward layer can be used
with either variant.

Collection points check the fold, not each vote.  BLS aggregation on one
message is point addition, so one pairing equation decides a whole sum
(Handel's "verify the aggregate, not each signature"):

* an internal node stores a child's share once its signer is the sender
  and its value is well formed (``scheme.well_formed``, no pairing), and
  at send-up verifies the exact aggregate it is about to send; only if
  that fails does it check each child, drop the bad ones and refold.  The
  aggregate that goes up is the one checked, so with one scheme per
  process the root's own check of it is a memo hit;
* the root counts bare shares on arrival the same way and checks them
  as one batch when their validity first matters: before an arriving
  contribution is skipped as overlapping one of them, and before the QC
  is folded.  A failed batch falls back to one check per share and
  drops the bad ones.  Aggregates are still checked on arrival — an
  unchecked one could shadow the honest signers it overlaps.

No node waits longer than it would for its own checks: nothing is
penned, and the simulator still charges one ``verify_share`` of CPU
per arriving share where it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.aggregation.base import Aggregator, Round, register_aggregator
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.tree.overlay import AggregationTree

__all__ = ["TreeAggregator", "signers_of"]


def signers_of(contribution: Any) -> frozenset:
    """The signers a share or an aggregate covers."""
    if isinstance(contribution, AggregateSignature):
        return contribution.signers
    return frozenset({contribution.signer})


@dataclass(slots=True)
class TreeRound(Round):
    """A tree round.

    A replica plays one role per block (root, internal node or leaf), but
    the tree, the own share and the buffer are common to all three, so one
    record holds every role's fields.
    """

    #: Built on first use with the block at hand (a buffered vote has none).
    tree: Optional[AggregationTree] = None
    #: This replica's vote; set once the proposal has been handled.
    own_share: Optional[SignatureShare] = None
    # Internal node: the children's well-formed shares (checked as one
    # fold at send-up), and whether they went up.
    children_shares: Dict[int, SignatureShare] = field(default_factory=dict)
    sent_up: bool = False
    # Root: the contributions for the QC, the signers they cover, and the
    # bare shares among them not checked yet, by signer.  Only a root
    # fills the last two, so they are made on first use.
    contributions: List[Tuple[Any, int]] = field(default_factory=list)
    included: Set[int] = field(default_factory=set)
    unchecked: Optional[Dict[int, SignatureShare]] = None
    # Iniva: the parent's ACK (a leaf's proof of inclusion), the root's
    # 2ND-CHANCE progress, and the signers a bare 2ND-CHANCE reply added.
    parent_ack: Optional[AggregateSignature] = None
    second_chance_sent: bool = False
    second_chance_expired: bool = False
    second_chance_shares: Optional[Set[int]] = None


@register_aggregator
class TreeAggregator(Aggregator):
    """Kauri-style tree aggregation; also the paper's Iniva-No2C variant."""

    name = "tree"
    round_type = TreeRound

    # -- dissemination ---------------------------------------------------------
    def disseminate(self, block: Block) -> None:
        tree = self._tree_round(block).tree
        message = ProposalMessage(block)
        # The proposer sends the block to the root (the next leader) and the
        # root's children (Figure 1-A of the paper).
        targets = {tree.root, *tree.children(tree.root)}
        targets.discard(self.process_id)
        self.replica.multicast(sorted(targets), message, size_bytes=message.size_bytes)
        # The proposer also participates in its own tree role.
        self._on_proposal(block)

    # -- proposal path --------------------------------------------------------------
    def _on_proposal(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.own_share is not None:
            return
        share = self.replica.process_proposal(block)
        if share is None:
            return
        state.own_share = share
        tree = state.tree
        pid = self.process_id
        if tree.is_root(pid):
            self._root_add_contribution(block, share, source=pid)
            self.replica.set_timer(
                self.config.aggregation_timer(height=2), self._root_timeout, block
            )
        elif tree.is_internal(pid):
            children = tree.children(pid)
            proposal = ProposalMessage(block)
            self.replica.multicast(children, proposal, size_bytes=proposal.size_bytes)
            self.replica.set_timer(
                self.config.aggregation_timer(height=1), self._internal_timeout, block
            )
            self._internal_check_complete(block)
        else:
            # Leaf (either under an internal node or directly under the root).
            parent = tree.parent(pid)
            vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=share)
            self.replica.send(parent, vote, size_bytes=vote.size_bytes)
        self._replay_pending(state)

    # -- signatures travelling up the tree ----------------------------------------------
    def _awaits_proposal(self, state: Optional[TreeRound]) -> bool:
        return state is None or state.own_share is None

    def _on_vote(self, sender: int, message: SignatureMessage) -> None:
        block = self._vote_block(sender, message)
        if block is None:
            return
        tree = self._tree_round(block).tree
        pid = self.process_id
        if tree.is_root(pid):
            self._root_on_signature(block, sender, message.signature)
        elif tree.is_internal(pid) and sender in tree.children(pid):
            self._internal_on_child_share(block, sender, message.signature)

    # -- internal-node behaviour -----------------------------------------------------------
    def _internal_on_child_share(self, block: Block, sender: int, signature: Any) -> None:
        if not isinstance(signature, SignatureShare) or signature.signer != sender:
            return
        state = self._tree_round(block)
        if state.sent_up:
            return
        self._trace_hot(
            "share_recv", block.view, block=block.block_id[:12], src=sender, role="internal"
        )
        self.replica.consume_cpu(self.config.cpu_model.verify_share)
        if not self.scheme.well_formed(signature):
            return
        state.children_shares[sender] = signature
        self._internal_check_complete(block)

    def _internal_check_complete(self, block: Block) -> None:
        state = self._tree_round(block)
        children = state.tree.children(self.process_id)
        if len(state.children_shares) >= len(children):
            self._internal_send_up(block)

    def _internal_timeout(self, block: Block) -> None:
        self._internal_send_up(block)

    def _internal_send_up(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.sent_up or state.own_share is None:
            return
        state.sent_up = True
        children_shares = dict(state.children_shares)
        self.replica.consume_cpu(
            self.config.cpu_model.aggregate_per_share * (len(children_shares) + 1)
        )
        aggregate = self._internal_fold(state.own_share, children_shares)
        payload = block.signing_payload()
        if children_shares and not self.committee.verify_aggregate(aggregate, payload):
            # Some child's share is bad: find it, and send up the rest.
            children_shares = {
                child: share
                for child, share in children_shares.items()
                if self.committee.verify_share(share, payload)
            }
            aggregate = self._internal_fold(state.own_share, children_shares)
            # Every part was just checked, so by linearity the fold verifies.
            self.committee.trust_aggregate(aggregate, payload)
        vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=aggregate)
        self.replica.send(state.tree.root, vote, size_bytes=vote.size_bytes)
        self._after_internal_send(block, aggregate, sorted(children_shares))

    def _internal_fold(
        self, own_share: SignatureShare, children_shares: Dict[int, SignatureShare]
    ) -> AggregateSignature:
        """Iniva's multiplicity encoding: each aggregated child twice, plus
        one extra copy of the parent's own signature per aggregated child."""
        contributions = [(own_share, 1 + len(children_shares))]
        contributions.extend((share, 2) for share in children_shares.values())
        return self.scheme.aggregate(contributions)

    def _after_internal_send(
        self, block: Block, aggregate: AggregateSignature, aggregated_children: list
    ) -> None:
        """Hook for Iniva: send ACKs to the aggregated children."""

    # -- root behaviour ------------------------------------------------------------------------
    def _root_on_signature(self, block: Block, sender: int, signature: Any) -> None:
        state = self._tree_round(block)
        if state.done:
            return
        self._trace_hot(
            "share_recv",
            block.view,
            block=block.block_id[:12],
            src=sender,
            role="root",
            kind="aggregate" if isinstance(signature, AggregateSignature) else "share",
        )
        tree = state.tree
        if isinstance(signature, AggregateSignature):
            if sender not in tree.internal_nodes:
                return
            self.replica.consume_cpu(
                self.config.cpu_model.aggregate_verify_cost(len(signature.signers))
            )
            if not self.committee.verify_aggregate(signature, block.signing_payload()):
                return
            self._root_add_contribution(block, signature, source=sender)
        elif isinstance(signature, SignatureShare):
            if signature.signer != sender or sender not in tree.children(tree.root):
                return
            self.replica.consume_cpu(self.config.cpu_model.verify_share)
            if not self.scheme.well_formed(signature):
                return
            self._root_add_contribution(block, signature, source=sender)

    def _root_add_contribution(self, block: Block, contribution: Any, source: int) -> int:
        """Count ``contribution`` towards the QC; returns how many signers it
        added that still count.

        Aggregates arrive checked.  A bare share from another process is
        counted unchecked, and checked with the others in
        :meth:`_root_check_shares`.
        """
        state = self._tree_round(block)
        if state.done:
            return 0
        signers = signers_of(contribution)
        if state.unchecked and not signers.isdisjoint(state.unchecked):
            # Whether this overlaps a vote that counts depends on that
            # vote being valid, so settle it before deciding.
            self._root_check_shares(block)
        if signers & state.included:
            # Indivisible aggregates cannot be decomposed, so overlapping
            # contributions are skipped rather than double-counted.
            return 0
        state.contributions.append((contribution, 1))
        state.included |= signers
        if isinstance(contribution, SignatureShare) and contribution.signer != self.process_id:
            if state.unchecked is None:
                state.unchecked = {}
            state.unchecked[contribution.signer] = contribution
        self._trace_hot(
            "share_verified",
            block.view,
            block=block.block_id[:12],
            src=source,
            signers=len(signers),
            included=len(state.included),
        )
        self._root_check_progress(block)
        # Progress may have run the batch check and dropped this very share.
        return len(signers & state.included)

    def _root_check_shares(self, block: Block) -> Set[int]:
        """Check the bare shares counted unchecked; drop and return the bad.

        One pairing equation over their sum when they are all valid; one
        per share only when that fails.
        """
        state = self._tree_round(block)
        if not state.unchecked:
            return set()
        shares = list(state.unchecked.values())
        state.unchecked = None
        payload = block.signing_payload()
        if self.committee.verify_aggregate(self.scheme.aggregate(shares), payload):
            return set()
        bad = {
            share.signer for share in shares if not self.committee.verify_share(share, payload)
        }
        if bad:
            state.contributions = [
                (part, weight)
                for part, weight in state.contributions
                if not (isinstance(part, SignatureShare) and part.signer in bad)
            ]
            state.included -= bad
        return bad

    def _root_check_progress(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.done:
            return
        included = len(state.included)
        if included >= self.config.committee_size:
            self._root_finalise(block)
        elif included >= self.config.quorum_size:
            self._root_on_quorum(block)

    def _root_on_quorum(self, block: Block) -> None:
        """Quorum reached at the root.  The plain tree finalises immediately."""
        self._root_finalise(block)

    def _root_timeout(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.done:
            return
        if len(state.included) >= self.config.quorum_size:
            self._root_on_quorum(block)
        # Below quorum there is nothing the aggregation layer can do; the
        # pacemaker's view timeout will eventually fail the view.

    def _root_finalise(self, block: Block) -> None:
        state = self._tree_round(block)
        if state.done or len(state.included) < self.config.quorum_size:
            return
        self._root_check_shares(block)
        if len(state.included) < self.config.quorum_size:
            return
        contributions = state.contributions
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share * len(contributions))
        aggregate = self.scheme.aggregate(contributions)
        self._finalise(block, aggregate)

    # -- shared state helpers --------------------------------------------------------------------
    def _build_tree(self, block: Block) -> AggregationTree:
        """The aggregation tree used for ``block``.

        The default is the replica's per-view reshuffled tree; subclasses
        (e.g. the Kauri baseline) override this to use a stable tree with
        explicit reconfiguration.
        """
        return self.replica.build_tree(block)

    def _tree_round(self, block: Block) -> TreeRound:
        """The round for ``block``, with its tree built."""
        state = self._round(block.block_id)
        if state.tree is None:
            state.tree = self._build_tree(block)
        return state
