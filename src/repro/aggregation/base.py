"""The abstract vote-aggregation strategy attached to each replica.

Definition 1 of the paper gives a vote aggregation scheme three
primitives: ``broadcast(B)`` invoked by the proposer, a ``deliver(B)``
upcall at every process (which emits a vote), and an
``aggregate(B, QC, md)`` upcall at the collector.  The replica supplies
``deliver`` (validation + voting rules) and consumes ``aggregate`` (QC
formation); concrete schemes implement the message flow in between.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

# ``repro.consensus`` first: its package import pulls in the replica, which
# needs ``repro.aggregation.messages`` fully initialised.
from repro.consensus.block import Block
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.crypto.multisig import AggregateSignature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consensus.replica import HotStuffReplica

__all__ = ["Aggregator", "Round", "register_aggregator", "make_aggregator"]


@dataclass(slots=True)
class Round:
    """One replica's aggregation state for one block.

    ``pending`` holds the votes that overtook their proposal until
    :meth:`Aggregator._replay_pending` feeds them back; ``done`` is set
    once the aggregate went up to the consensus layer.  Each scheme family
    subclasses this with the fields its roles need.
    """

    pending: List[Tuple[int, SignatureMessage]] = field(default_factory=list)
    done: bool = False


class Aggregator(ABC):
    """Per-replica vote aggregation strategy.

    The replica calls :meth:`disseminate` at the block's proposer and
    :meth:`handle` for every aggregation message it receives.  By default
    the proposer broadcasts the block and every message is a proposal
    (:meth:`_on_proposal`) or a vote (:meth:`_on_vote`); concrete schemes
    implement those two and call back into the replica via

    * ``replica.process_proposal(block)`` — validate + vote, returning a
      signature share or ``None`` (the paper's ``deliver``/``vote``), and
    * ``replica.complete_aggregation(block, aggregate)`` — the paper's
      ``aggregate`` upcall at the collector.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: The per-block record this scheme keeps; scheme families override.
    round_type: type = Round

    def __init__(self, replica: "HotStuffReplica") -> None:
        self.replica = replica
        #: Per-block rounds, keyed by block id, oldest first.
        self._rounds: Dict[str, Round] = {}

    # -- shorthand accessors -------------------------------------------------
    @property
    def config(self):
        return self.replica.config

    @property
    def committee(self):
        return self.replica.committee

    @property
    def scheme(self):
        return self.replica.committee.scheme

    @property
    def process_id(self) -> int:
        return self.replica.process_id

    # -- protocol hooks --------------------------------------------------------
    def disseminate(self, block: Block) -> None:
        """Start dissemination and vote collection for ``block``.

        Called exactly once, at the proposer of ``block``.  The default
        broadcasts the block to every other replica and delivers it locally.
        """
        message = ProposalMessage(block)
        others = [pid for pid in range(self.config.committee_size) if pid != self.process_id]
        self.replica.multicast(others, message, size_bytes=message.size_bytes)
        # The proposer delivers its own proposal immediately.
        self._on_proposal(block)

    def handle(self, sender: int, message: Any) -> bool:
        """Process an aggregation-related message.

        Returns True if the message type belonged to this scheme (so the
        replica knows it was consumed).
        """
        if isinstance(message, ProposalMessage):
            self._on_proposal(message.block)
            return True
        if isinstance(message, SignatureMessage):
            self._on_vote(sender, message)
            return True
        return False

    @abstractmethod
    def _on_proposal(self, block: Block) -> None:
        """Deliver ``block`` here: vote and play this replica's role."""

    @abstractmethod
    def _on_vote(self, sender: int, message: SignatureMessage) -> None:
        """Handle a vote (a share or an aggregate) for some block."""

    # -- shared helpers ----------------------------------------------------------
    def _trace(self, etype: str, **fields: Any) -> None:
        """Emit an aggregation trace event (always, when tracing is on)."""
        tracer = self.replica.metrics.tracer
        if tracer is not None:
            tracer.emit(etype, self.process_id, self.replica.now, **fields)  # type: ignore[attr-defined]

    def _trace_hot(self, etype: str, view: int, **fields: Any) -> None:
        """Per-message trace emission, thinned by deterministic view sampling.

        Share arrivals fire once per vote per collection point — the one
        stream dense enough to threaten the overhead budget — so they go
        through ``sample_view``: at ``sample_rate < 1`` only a
        deterministic subset of views is traced, the *same* subset under
        sim and live.
        """
        tracer = self.replica.metrics.tracer
        if tracer is not None and tracer.sample_view(view):  # type: ignore[attr-defined]
            tracer.emit(etype, self.process_id, self.replica.now, view=view, **fields)  # type: ignore[attr-defined]

    def _finalise(self, block: Block, aggregate: AggregateSignature) -> None:
        """Deliver the finished aggregate to the consensus layer once."""
        state = self._rounds.get(block.block_id)
        if state is not None and state.done:
            return
        if state is not None:
            state.done = True
        # Every contribution in the aggregate was verified before being
        # folded in, so the sum is known valid: seed the backend's
        # verified-aggregate cache so the QC's own verification (here and,
        # with a shared scheme, at every co-hosted replica) is a lookup.
        self.committee.trust_aggregate(aggregate, block.signing_payload())
        self.replica.complete_aggregation(block, aggregate)

    def _is_done(self, block_id: str) -> bool:
        state = self._rounds.get(block_id)
        return state is not None and state.done

    # -- per-block rounds --------------------------------------------------------
    def _round(self, block_id: str) -> Any:
        """The round for ``block_id``, created (as ``round_type``) on first use."""
        state = self._rounds.get(block_id)
        if state is None:
            state = self._rounds[block_id] = self.round_type()
            self._prune()
        return state

    def _prune(self, keep: int = 64) -> None:
        """Bound per-block state to the newest ``keep`` rounds (old views
        are never revisited); the oldest go first, in insertion order."""
        rounds = self._rounds
        while len(rounds) > keep:
            del rounds[next(iter(rounds))]

    def _awaits_proposal(self, state: Optional[Round]) -> bool:
        """Whether votes for a known block must still wait for its proposal.

        The default handles them as soon as the block is known; schemes
        that fold votes into their own first override this.
        """
        return False

    def _vote_block(self, sender: int, message: SignatureMessage) -> Optional[Block]:
        """The block ``message`` votes for, if the vote can be handled now.

        ``None`` means drop or wait: a vote for a finished round is dropped,
        and one that overtook its proposal is buffered on the round until
        :meth:`_replay_pending` feeds it back through :meth:`_on_vote`.
        """
        if self._is_done(message.block_id):
            return None
        block = self.replica.known_block(message.block_id)
        if block is None or self._awaits_proposal(self._rounds.get(message.block_id)):
            self._round(message.block_id).pending.append((sender, message))
            return None
        return block

    def _replay_pending(self, state: Round) -> None:
        """Feed the votes buffered on ``state`` back through :meth:`_on_vote`."""
        pending, state.pending = state.pending, []
        for sender, message in pending:
            self._on_vote(sender, message)


_AGGREGATOR_REGISTRY: Dict[str, type] = {}

#: The module that registers each built-in scheme when imported.
_AGGREGATOR_MODULES: Dict[str, str] = {
    "iniva": "repro.core.iniva",
    "star": "repro.aggregation.star",
    "tree": "repro.aggregation.tree_agg",
    "gosig": "repro.aggregation.gossip",
    "handel": "repro.aggregation.handel",
    "kauri": "repro.aggregation.kauri",
}


def register_aggregator(cls: type) -> type:
    """Class decorator adding an aggregation scheme to the registry."""
    _AGGREGATOR_REGISTRY[cls.name] = cls
    return cls


def make_aggregator(name: str, replica: "HotStuffReplica") -> Aggregator:
    """Instantiate the aggregation scheme ``name`` for ``replica``.

    ``"star"``, ``"tree"`` (Iniva-No2C), ``"iniva"``, ``"gosig"``,
    ``"handel"`` and ``"kauri"`` are registered by importing their modules;
    unknown names raise ``KeyError``.
    """
    if name not in _AGGREGATOR_REGISTRY and name in _AGGREGATOR_MODULES:
        # Aggregators register themselves on import; import lazily to avoid
        # circular imports between this module and the implementations.
        importlib.import_module(_AGGREGATOR_MODULES[name])
    try:
        cls = _AGGREGATOR_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_AGGREGATOR_REGISTRY))
        raise KeyError(f"unknown aggregation scheme {name!r}; known: {known}") from exc
    return cls(replica)
