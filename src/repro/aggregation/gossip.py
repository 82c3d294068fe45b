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
from typing import Any, Dict, List, Union

from repro.aggregation.base import Aggregator, register_aggregator
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare

__all__ = ["GosigAggregator"]


@register_aggregator
class GosigAggregator(Aggregator):
    """Randomised gossip aggregation with parameter ``k`` (``gossip_fanout``)."""

    name = "gosig"

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
            self._on_gossip(sender, message)
            return True
        return False

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
        state = self._gossip_state(block.block_id)
        if state["proposal_handled"]:
            return
        share = self.replica.process_proposal(block)
        if share is None:
            return
        state["proposal_handled"] = True
        state["own_share"] = share
        state["aggregate"] = self.scheme.aggregate([(share, 1)])
        state["rng"] = random.Random(
            (self.config.seed * 1_000_003 + self.process_id) * 1_000_003 + block.view
        )
        self._drain_pending(block)
        self._gossip_round(block)
        if self._is_collector(block):
            # The collector also arms a deadline: with message loss or many
            # free-riders the aggregate may never reach the full committee.
            self.replica.set_timer(
                self.config.aggregation_timer(height=2), self._collector_timeout, block
            )

    # -- gossip rounds --------------------------------------------------------------
    def _gossip_round(self, block: Block) -> None:
        state = self._gossip_state(block.block_id)
        if state["done"] or state["rounds_sent"] >= self.config.gossip_rounds:
            return
        state["rounds_sent"] += 1
        rng: random.Random = state["rng"]
        payload: Union[SignatureShare, AggregateSignature]
        if self.is_free_rider(block):
            payload = state["own_share"]
        else:
            payload = state["aggregate"]
        peers = self._pick_peers(rng)
        message = SignatureMessage(block_id=block.block_id, view=block.view, signature=payload)
        self.replica.multicast(peers, message, size_bytes=message.size_bytes)
        self.replica.set_timer(self.config.gossip_interval, self._gossip_round, block)

    def _pick_peers(self, rng: random.Random) -> List[int]:
        population = [pid for pid in range(self.config.committee_size) if pid != self.process_id]
        fanout = min(self.config.gossip_fanout, len(population))
        return rng.sample(population, fanout)

    # -- merging incoming aggregates ----------------------------------------------------
    def _on_gossip(self, sender: int, message: SignatureMessage) -> None:
        if self._is_done(message.block_id):
            return
        block = self.replica.known_block(message.block_id)
        state = self._gossip_state(message.block_id)
        if block is None or not state["proposal_handled"]:
            state["pending"].append((sender, message))
            return
        if self.is_free_rider(block):
            # Free-riders do not verify or merge other processes' work.
            return
        incoming = message.signature
        merged = self._merge(block, state, incoming)
        if merged and self._is_collector(block):
            self._collector_check(block)

    def _merge(self, block: Block, state: Dict[str, Any], incoming: Any) -> bool:
        """Fold ``incoming`` into the local aggregate if it adds new signers."""
        current: AggregateSignature = state["aggregate"]
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
        state["aggregate"] = self.scheme.aggregate([(current, 1), (incoming, 1)])
        return True

    # -- collector --------------------------------------------------------------------------
    def _is_collector(self, block: Block) -> bool:
        return self.replica.collector_for(block) == self.process_id

    def _collector_check(self, block: Block) -> None:
        state = self._gossip_state(block.block_id)
        if state["done"]:
            return
        aggregate: AggregateSignature = state["aggregate"]
        if len(aggregate.signers) >= self.config.quorum_size:
            self._finalise(block, aggregate)

    def _collector_timeout(self, block: Block) -> None:
        state = self._gossip_state(block.block_id)
        if state["done"]:
            return
        aggregate: AggregateSignature = state["aggregate"]
        if aggregate is not None and len(aggregate.signers) >= self.config.quorum_size:
            self._finalise(block, aggregate)

    # -- state ------------------------------------------------------------------------------
    def _gossip_state(self, block_id: str) -> Dict[str, Any]:
        state = self._state.get(block_id)
        if state is None:
            state = {
                "proposal_handled": False,
                "own_share": None,
                "aggregate": None,
                "rounds_sent": 0,
                "rng": None,
                "pending": [],
                "done": False,
            }
            self._state[block_id] = state
            self._prune()
        return state

    def _drain_pending(self, block: Block) -> None:
        state = self._gossip_state(block.block_id)
        pending, state["pending"] = state["pending"], []
        for sender, message in pending:
            self._on_gossip(sender, message)
