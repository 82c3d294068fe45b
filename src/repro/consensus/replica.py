"""The chained HotStuff replica integrated with pluggable vote aggregation.

The replica implements the consensus state machine the paper integrates
Iniva into: chained HotStuff driven in synchronous rounds with
Leader-Speak-Once rotation.  A new block is only proposed after the votes
for the previous block have been aggregated, so any latency added by the
aggregation scheme directly shows up in throughput — which is exactly how
the paper evaluates Iniva's overhead.

Responsibilities are split as follows:

* the replica owns the consensus rules (voting safety, the three-chain
  commit rule, the pacemaker and leader election) and the chain state;
* the attached :class:`~repro.aggregation.base.Aggregator` owns block
  dissemination and vote collection; it calls back into
  :meth:`HotStuffReplica.process_proposal` (deliver + vote) and
  :meth:`HotStuffReplica.complete_aggregation` (QC formation at the
  collector).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.aggregation.messages import NewViewMessage
from repro.consensus.block import Block, GENESIS_ID, QuorumCertificate, genesis_block, genesis_qc
from repro.consensus.config import ConsensusConfig
from repro.consensus.leader import LeaderElection, RoundRobinElection
from repro.consensus.mempool import Mempool
from repro.crypto.keys import Committee
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.resilience.messages import SyncRequest, SyncResponse
from repro.simnet.metrics import MetricsCollector
from repro.simnet.process import Process, Timer
from repro.tree.overlay import AggregationTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime
    from repro.simnet.events import Simulator
    from repro.simnet.network import Network

__all__ = ["HotStuffReplica"]


class HotStuffReplica(Process):
    """One committee member running chained HotStuff with vote aggregation.

    The replica is sans-I/O: besides the committee/config/mempool wiring it
    only uses the :class:`~repro.runtime.base.Runtime` verbs inherited from
    :class:`Process`, so it runs identically under the simulator and the
    live asyncio cluster.  Pass either ``runtime=...`` or the classic
    ``(simulator, network)`` pair.
    """

    def __init__(
        self,
        process_id: int,
        simulator: "Optional[Simulator]" = None,
        network: "Optional[Network]" = None,
        committee: Optional[Committee] = None,
        config: Optional[ConsensusConfig] = None,
        mempool: Optional[Mempool] = None,
        election: Optional[LeaderElection] = None,
        metrics: Optional[MetricsCollector] = None,
        runtime: "Optional[Runtime]" = None,
    ) -> None:
        if committee is None or config is None or mempool is None:
            raise TypeError("HotStuffReplica requires committee, config and mempool")
        super().__init__(
            process_id, simulator, network, cpu_model=config.cpu_model, runtime=runtime
        )
        self.committee = committee
        self.config = config
        self.mempool = mempool
        self.election = election or RoundRobinElection(config.committee_size)
        self.metrics = metrics or mempool.metrics

        genesis = genesis_block()
        self.blocks: Dict[str, Block] = {GENESIS_ID: genesis}
        self.highest_qc: QuorumCertificate = genesis_qc()
        self.current_view = 1
        self.last_voted_view = 0
        self.locked_view = 0
        self.committed_height = 0
        self.committed_blocks: set[str] = set()
        self._votes: Dict[str, SignatureShare] = {}
        self._proposed_views: set[int] = set()
        self._propose_scheduled: set[int] = set()
        self._view_timer: Optional[Timer] = None
        # Catch-up bookkeeping (the state-transfer half of the resilience
        # layer; see repro.resilience.messages).
        self.catchup_blocks = 0
        self.sync_requests_sent = 0
        self.sync_requests_served = 0
        self.first_commit_after_recovery: Optional[float] = None

        # Imported lazily to avoid a circular import: the aggregation schemes
        # depend on consensus.block, while this module needs their registry.
        from repro.aggregation.base import make_aggregator

        self.aggregator = make_aggregator(config.aggregation, self)

    def _trace(self, etype: str, **fields: Any) -> None:
        """Emit a consensus trace event when a tracer is attached.

        The traced-off cost is one attribute load and an ``is None``
        check; all emission sites below are per-view or per-block, never
        per-message, so milestone events are always recorded (sampling
        only thins the per-share stream in the aggregators).
        """
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.emit(etype, self.process_id, self.now, **fields)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Start-up and pacemaker
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the pacemaker and, if this replica leads view 1, propose."""
        self._reset_view_timer()
        if self.leader_of(self.current_view) == self.process_id:
            self._schedule_propose(self.current_view, delay=self._propose_delay(1))

    def recover(self) -> None:
        """Restart after a crash-stop: re-arm the pacemaker and catch up.

        The chain state survived the crash (restart-from-storage model);
        what was lost is every message sent while down.  Re-arming the
        view timer lets the pacemaker resynchronise eventually; with
        ``sync_on_recover`` the replica additionally asks its peers for
        the committed-block suffix it missed (see :meth:`request_sync`),
        so it rejoins at the chain head instead of waiting to be dragged
        forward view by view.
        """
        if not self.crashed:
            return
        super().recover()
        self.first_commit_after_recovery = None
        self._reset_view_timer()
        if self.config.sync_on_recover:
            self.request_sync()

    def leader_of(self, view: int) -> int:
        return self.election.leader(view, self.highest_qc)

    def collector_for(self, block: Block) -> int:
        """The next leader, who collects the votes for ``block`` (LSO model)."""
        return self.election.leader(block.view + 1, block.qc)

    def _reset_view_timer(self) -> None:
        if self._view_timer is not None:
            self._view_timer.cancel()
        view_at_arm = self.current_view
        self._view_timer = self.set_timer(self.config.view_timeout, self._on_view_timeout, view_at_arm)

    def _on_view_timeout(self, view: int) -> None:
        if self.crashed or view != self.current_view:
            return
        # The view made no progress: advance and tell the next leader.
        self.current_view += 1
        self._reset_view_timer()
        self._trace("view_enter", view=self.current_view, reason="timeout")
        next_leader = self.leader_of(self.current_view)
        message = NewViewMessage(view=self.current_view, highest_qc=self.highest_qc)
        if next_leader == self.process_id:
            self._schedule_propose(self.current_view, delay=self._propose_delay(2))
        else:
            self.send(next_leader, message, size_bytes=message.size_bytes)

    def _propose_delay(self, deltas: int) -> float:
        """Grace delay before a scheduled proposal fires.

        The paper-faithful pacing waits ``deltas * Δ`` (one Δ at start-up,
        two after a view change) so slower replicas enter the view first.
        Under ``optimistic_responsiveness`` proposals fire immediately:
        view entry is QC-driven, so there is nothing to wait out and the
        timers degrade to a fallback.
        """
        if self.config.optimistic_responsiveness:
            return 0.0
        return deltas * self.config.delta

    def _schedule_propose(self, view: int, delay: float) -> None:
        if view in self._propose_scheduled:
            return
        self._propose_scheduled.add(view)
        self.set_timer(delay, self.propose, view)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: int, message: Any) -> None:
        self.consume_cpu(self.config.cpu_model.message_overhead)
        if self.aggregator.handle(sender, message):
            return
        if isinstance(message, NewViewMessage):
            self._on_new_view(sender, message)
        elif isinstance(message, SyncRequest):
            self._on_sync_request(sender, message)
        elif isinstance(message, SyncResponse):
            self._on_sync_response(sender, message)

    def _on_new_view(self, sender: int, message: NewViewMessage) -> None:
        self._update_highest_qc(message.highest_qc)
        if message.view > self.current_view:
            self.current_view = message.view
            self._reset_view_timer()
            self._trace("view_enter", view=self.current_view, reason="new_view")
        if (
            message.view == self.current_view
            and self.leader_of(self.current_view) == self.process_id
            and self.current_view not in self._proposed_views
        ):
            self._schedule_propose(self.current_view, delay=self._propose_delay(2))

    # ------------------------------------------------------------------
    # State-transfer catch-up (crash-restart rejoin)
    # ------------------------------------------------------------------
    def request_sync(self) -> None:
        """Ask every peer for the committed suffix above our height.

        Multicast rather than targeted: whichever live peer answers first
        wins, and duplicate responses are idempotent (committed blocks
        are deduplicated by id, QC/view updates are monotonic).
        """
        message = SyncRequest(sender=self.process_id, from_height=self.committed_height)
        peers = [p for p in range(self.config.committee_size) if p != self.process_id]
        self.sync_requests_sent += 1
        self._trace("sync", kind="request", from_height=self.committed_height)
        self.multicast(peers, message, size_bytes=message.size_bytes)

    def committed_suffix(self, from_height: int) -> list[Block]:
        """Committed blocks above ``from_height``, oldest first, capped at
        ``max_sync_blocks`` — keeping the suffix contiguous from the
        requester's height so it can apply every block it receives."""
        suffix = sorted(
            (
                block
                for block in self.blocks.values()
                if block.block_id in self.committed_blocks
                and block.height > from_height
            ),
            key=lambda block: block.height,
        )
        return suffix[: self.config.max_sync_blocks]

    def _on_sync_request(self, sender: int, message: SyncRequest) -> None:
        if sender == self.process_id:
            return
        blocks = self.committed_suffix(message.from_height)
        self.sync_requests_served += 1
        response = SyncResponse(
            sender=self.process_id,
            view=self.current_view,
            highest_qc=self.highest_qc,
            blocks=tuple(blocks),
        )
        # Always answer — even an empty suffix carries the responder's
        # view and highest QC, which re-seats the requester's pacemaker.
        self.consume_cpu(self.config.cpu_model.per_byte * response.size_bytes)
        self.send(sender, response, size_bytes=response.size_bytes)

    def _on_sync_response(self, sender: int, message: SyncResponse) -> None:
        self._trace("sync", kind="response", src=sender, blocks=len(message.blocks))
        for block in message.blocks:
            self.blocks.setdefault(block.block_id, block)
            if block.block_id in self.committed_blocks:
                continue
            self.committed_blocks.add(block.block_id)
            self.committed_height = max(self.committed_height, block.height)
            self.mempool.mark_committed(block.block_id, block.payload, self.now)
            self.catchup_blocks += 1
        self._update_highest_qc(message.highest_qc)
        if message.view > self.current_view:
            self.current_view = message.view
            self._reset_view_timer()

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def propose(self, view: int) -> None:
        """Create and disseminate a block for ``view`` (leader only)."""
        if self.crashed or view != self.current_view or view in self._proposed_views:
            return
        parent = self.blocks.get(self.highest_qc.block_id)
        if parent is None:
            return
        batch = self.mempool.next_batch(self.config.batch_size)
        payload = tuple(request.request_id for request in batch)
        payload_bytes = sum(request.size_bytes for request in batch)
        block = Block(
            height=parent.height + 1,
            view=view,
            proposer=self.process_id,
            parent_id=parent.block_id,
            qc=self.highest_qc,
            payload=payload,
            payload_bytes=payload_bytes,
            timestamp=self.now,
        )
        self._proposed_views.add(view)
        self.blocks[block.block_id] = block
        self._trace(
            "propose",
            view=view,
            block=block.block_id[:12],
            height=block.height,
            txs=len(payload),
        )
        self.mempool.track_block(block.block_id, batch)
        self.consume_cpu(self.config.cpu_model.proposal_cost(payload_bytes))
        self.aggregator.disseminate(block)

    # ------------------------------------------------------------------
    # Deliver + vote (the aggregation scheme's upcall into consensus)
    # ------------------------------------------------------------------
    def process_proposal(self, block: Block) -> Optional[SignatureShare]:
        """Validate ``block`` and return this replica's vote (or ``None``).

        Implements the paper's ``deliver``/``vote`` upcall: the block's QC
        is verified, the HotStuff voting rules are applied, the local chain
        state is updated, and — at most once per block — a signature share
        is produced.
        """
        if self.crashed:
            return None
        block_id = block.block_id
        if block_id in self._votes:
            return self._votes[block_id]
        if not self._verify_block_qc(block):
            return None
        if block.view <= self.last_voted_view or block.qc.view < self.locked_view:
            return None

        self.blocks[block_id] = block
        # Replicated-pool runtimes reserve the batched requests out of the
        # local pending queue; a no-op for the simulator's shared pool.
        self.mempool.observe_proposal(block_id, block.payload)
        self._update_highest_qc(block.qc)
        self.last_voted_view = block.view
        if block.view > self.current_view:
            self.current_view = block.view
        self._reset_view_timer()

        self.consume_cpu(self.config.cpu_model.proposal_cost(block.payload_bytes))
        self.consume_cpu(self.config.cpu_model.sign)
        share = self.committee.sign(self.process_id, block.signing_payload())
        self._votes[block_id] = share
        return share

    def _verify_block_qc(self, block: Block) -> bool:
        qc = block.qc
        if qc.is_genesis:
            return block.parent_id == GENESIS_ID or block.parent_id == qc.block_id
        if qc.block_id != block.parent_id:
            return False
        if len(qc.signers) < self.config.quorum_size:
            return False
        self.consume_cpu(self.config.cpu_model.aggregate_verify_cost(len(qc.signers)))
        return self.committee.verify_aggregate(qc.aggregate, qc.signing_payload())

    # ------------------------------------------------------------------
    # QC handling, commit rule
    # ------------------------------------------------------------------
    def _update_highest_qc(self, qc: QuorumCertificate) -> None:
        if qc.view > self.highest_qc.view or self.highest_qc.is_genesis and not qc.is_genesis:
            self.highest_qc = qc
            self.election.observe_qc(qc)
            if self.config.optimistic_responsiveness and not qc.is_genesis:
                self._advance_on_qc(qc)
        self._try_commit(qc)

    def _advance_on_qc(self, qc: QuorumCertificate) -> None:
        """Optimistic responsiveness: pace the view on QC arrival.

        Seeing a QC for view ``v`` proves a quorum finished ``v`` — there
        is nothing left to wait out, so enter ``v + 1`` now instead of
        when the view timer (or the next proposal) says so, and if this
        replica leads ``v + 1`` propose immediately.  This is what
        pipelines chained views: the next proposal goes out while the
        previous block's aggregate is still propagating to the slower
        replicas, and the pacemaker timers only matter when a view
        actually stalls.
        """
        next_view = qc.view + 1
        if next_view > self.current_view:
            self.current_view = next_view
            self._reset_view_timer()
            self._trace("view_enter", view=next_view, reason="qc")
        if (
            next_view == self.current_view
            and self.leader_of(next_view) == self.process_id
            and next_view not in self._proposed_views
        ):
            self._schedule_propose(next_view, delay=0.0)

    def _try_commit(self, qc: QuorumCertificate) -> None:
        """The chained HotStuff two-chain lock / three-chain commit rule."""
        certified = self.blocks.get(qc.block_id)
        if certified is None or certified.is_genesis:
            return
        parent = self.blocks.get(certified.qc.block_id)
        if parent is None or parent.is_genesis:
            return
        if certified.view == parent.view + 1:
            self.locked_view = max(self.locked_view, parent.view)
        grandparent = self.blocks.get(parent.qc.block_id)
        if grandparent is None or grandparent.is_genesis:
            return
        if certified.view == parent.view + 1 and parent.view == grandparent.view + 1:
            self._commit_chain(grandparent)

    def _commit_chain(self, block: Block) -> None:
        """Commit ``block`` and all its uncommitted ancestors, oldest first."""
        chain = []
        cursor: Optional[Block] = block
        while cursor is not None and not cursor.is_genesis and cursor.block_id not in self.committed_blocks:
            chain.append(cursor)
            cursor = self.blocks.get(cursor.parent_id)
        for ancestor in reversed(chain):
            self.committed_blocks.add(ancestor.block_id)
            self.committed_height = max(self.committed_height, ancestor.height)
            self.mempool.mark_committed(ancestor.block_id, ancestor.payload, self.now)
            self._trace(
                "commit",
                view=ancestor.view,
                block=ancestor.block_id[:12],
                height=ancestor.height,
            )
        if chain:
            self._release_votes(block.view)
        # Time-to-rejoin instrumentation: the first commit reached through
        # the *protocol* path after a recovery (catch-up applies in
        # _on_sync_response and deliberately does not count).
        if chain and self.recovered_at is not None and self.first_commit_after_recovery is None:
            self.first_commit_after_recovery = self.now

    def _release_votes(self, view: int) -> None:
        """Forget this replica's votes for every block at or below ``view``.

        A vote is dead once its view is decided: a 2ND-CHANCE re-ask comes
        before the block's QC, sync serves blocks rather than votes, and a
        block at or below a committed view that is not on the committed
        chain can never commit.  Votes are cast in strictly increasing
        views, so ``_votes`` is in view order and the dead ones are its
        head.
        """
        votes = self._votes
        blocks = self.blocks
        dead = []
        for block_id in votes:
            if blocks[block_id].view > view:
                break
            dead.append(block_id)
        for block_id in dead:
            del votes[block_id]

    # ------------------------------------------------------------------
    # Aggregation completion (the paper's ``aggregate`` upcall)
    # ------------------------------------------------------------------
    def complete_aggregation(self, block: Block, aggregate: AggregateSignature) -> None:
        """Form the QC for ``block`` at the collector and continue the chain."""
        if self.crashed:
            return
        qc = QuorumCertificate(
            block_id=block.block_id,
            view=block.view,
            height=block.height,
            aggregate=aggregate,
            collector=self.process_id,
        )
        self.metrics.record_qc_size(qc.size)
        self.metrics.record_view(block.view, True)
        self._trace(
            "qc_formed",
            view=block.view,
            block=block.block_id[:12],
            signers=qc.size,
        )
        self.blocks.setdefault(block.block_id, block)
        self._update_highest_qc(qc)
        next_view = block.view + 1
        if next_view >= self.current_view:
            self.current_view = next_view
            self._reset_view_timer()
            self._trace("view_enter", view=next_view, reason="aggregate")
            self.propose(next_view)

    # ------------------------------------------------------------------
    # Helpers used by the aggregation schemes
    # ------------------------------------------------------------------
    def known_block(self, block_id: str) -> Optional[Block]:
        return self.blocks.get(block_id)

    def build_tree(self, block: Block) -> AggregationTree:
        """The deterministic aggregation tree for ``block``'s view."""
        return AggregationTree.build(
            committee_size=self.config.committee_size,
            view=block.view,
            seed=self.config.seed,
            num_internal=self.config.num_internal,
            root=self.collector_for(block),
            context=block.qc.digest(),
        )
