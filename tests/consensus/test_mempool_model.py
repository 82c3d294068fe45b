"""Differential test: the mempool against a small set-based model.

The pool keeps a preload as shared segments, folds committed ids below a
floor and drops per-id records at commit; the model below keeps every
record and every committed id in plain dicts and sets.  Random
interleavings of the client, leader and commit operations must get the
same verdicts, batches, commit answers, counts and latency samples from
both.  A leader/follower pair runs in replicated-pool mode, as in the
live runtime; a single pool runs in the simulator's shared-pool mode.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.consensus.mempool import Mempool
from repro.simnet.metrics import MetricsCollector

WINDOW = 3
MAX_PENDING = 40
#: External (admitted) ids live apart from the pool's own submit ids.
EXTERNAL = range(1000, 1030)


class _Model:
    """The pool's contract, one plain container per concept."""

    def __init__(self, track_reservations: bool) -> None:
        self.track = track_reservations
        self.records: Dict[int, Tuple[float, int]] = {}  # id -> (submitted_at, client)
        self.pending: List[int] = []
        self.reserved: Set[int] = set()
        self.committed: Set[int] = set()
        self.in_flight: Dict[str, List[int]] = {}
        self.committed_blocks: Set[str] = set()
        self.inflight_of: Dict[int, int] = {}
        self.preloaded: Set[int] = set()
        self.next_id = 0
        self.cursor = 0
        self.latencies: List[float] = []
        self.commit_batches: List[List[int]] = []

    def submit(self, time: float, client: int) -> None:
        self.records[self.next_id] = (time, client)
        self.pending.append(self.next_id)
        self.next_id += 1

    def submit_many(self, count: int, time: float, clients: int) -> None:
        for _ in range(count):
            self.preloaded.add(self.next_id)
            self.submit(time, self.cursor % clients)
            self.cursor = (self.cursor + 1) % clients

    def admit(self, rid: int, client: int, now: float) -> str:
        if rid in self.records or rid in self.committed:
            return "duplicate"
        if self.inflight_of.get(client, 0) >= WINDOW:
            return "deferred"
        if len(self.pending) >= MAX_PENDING:
            return "dropped"
        self.records[rid] = (now, client)
        self.pending.append(rid)
        self.inflight_of[client] = self.inflight_of.get(client, 0) + 1
        return "admitted"

    def next_batch(self, size: int) -> List[int]:
        if not self.track:
            batch, self.pending = self.pending[:size], self.pending[size:]
            return batch
        batch: List[int] = []
        taken = 0
        for rid in self.pending:
            if len(batch) == size:
                break
            taken += 1
            if rid not in self.reserved and rid not in self.committed:
                batch.append(rid)
        del self.pending[:taken]
        return batch

    def observe(self, payload: List[int]) -> None:
        if self.track:
            self.reserved.update(payload)

    def requeue(self, block: str) -> None:
        batch = self.in_flight.pop(block, [])
        uncommitted = [rid for rid in batch if rid not in self.committed]
        self.reserved.difference_update(uncommitted)
        self.pending = uncommitted + self.pending

    def commit(self, block: str, payload: List[int], time: float) -> bool:
        if block in self.committed_blocks:
            return False
        self.committed_blocks.add(block)
        self.in_flight.pop(block, None)
        fresh: List[int] = []
        for rid in payload:
            if rid not in self.committed:
                self.committed.add(rid)
                fresh.append(rid)
        self.reserved.difference_update(fresh)
        known = [rid for rid in fresh if rid in self.records]
        for rid in known:
            client = self.records[rid][1]
            if self.inflight_of.get(client, 0) > 0:
                self.inflight_of[client] -= 1
        self.latencies.extend(time - self.records[rid][0] for rid in known)
        if known:
            self.commit_batches.append(known)
        return True


class _PoolMachine(RuleBasedStateMachine):
    TRACK = True
    POOLS = 2

    def __init__(self) -> None:
        super().__init__()
        self.metrics = [MetricsCollector() for _ in range(self.POOLS)]
        self.pools = [
            Mempool(m, track_reservations=self.TRACK, max_pending=MAX_PENDING, client_window=WINDOW)
            for m in self.metrics
        ]
        self.models = [_Model(self.TRACK) for _ in range(self.POOLS)]
        self.commits: List[List[int]] = [[] for _ in range(self.POOLS)]
        for pool, seen in zip(self.pools, self.commits):
            pool.on_commit = lambda batch, seen=seen: seen.append([r.request_id for r in batch])
        self.blocks: Dict[str, List[int]] = {}
        self.now = 0.0
        self.serial = 0

    def _tick(self) -> float:
        self.now += 0.25
        return self.now

    def _new_block(self) -> str:
        self.serial += 1
        return f"b{self.serial}"

    @rule(client=st.integers(0, 3))
    def submit(self, client: int) -> None:
        now = self._tick()
        for pool, model in zip(self.pools, self.models):
            request = pool.submit(now, 64, client_id=client)
            assert request.request_id == model.next_id
            model.submit(now, client)

    @rule(count=st.integers(0, 8), clients=st.integers(1, 3))
    def submit_many(self, count: int, clients: int) -> None:
        now = self._tick()
        for pool, model in zip(self.pools, self.models):
            pool.submit_many(count, now, 64, num_clients=clients)
            model.submit_many(count, now, clients)

    @rule(data=st.data(), client=st.integers(0, 3))
    def admit(self, data: st.DataObject, client: int) -> None:
        rid = data.draw(
            st.sampled_from(EXTERNAL)
            | st.integers(-2, max(self.models[0].next_id, 1) + 2)
        )
        now = self._tick()
        for pool, model in zip(self.pools, self.models):
            if rid >= model.next_id and rid not in EXTERNAL:
                continue  # a later submit would reuse this id
            assert pool.admit(rid, client, 64, now) == model.admit(rid, client, now)

    @rule(proposer=st.integers(0, 1), size=st.integers(1, 6))
    def propose(self, proposer: int, size: int) -> None:
        proposer %= self.POOLS
        block = self._new_block()
        batch = self.pools[proposer].next_batch(size)
        ids = self.models[proposer].next_batch(size)
        assert [r.request_id for r in batch] == ids
        self.pools[proposer].track_block(block, batch)
        self.models[proposer].in_flight[block] = ids
        for index, (pool, model) in enumerate(zip(self.pools, self.models)):
            if index != proposer:
                pool.observe_proposal(block, tuple(ids))
                model.observe(ids)
        self.blocks[block] = ids

    @precondition(lambda self: self.blocks)
    @rule(data=st.data())
    def requeue(self, data: st.DataObject) -> None:
        block = data.draw(st.sampled_from(sorted(self.blocks)))
        for pool, model in zip(self.pools, self.models):
            pool.requeue_block(block)
            model.requeue(block)

    @precondition(lambda self: self.blocks)
    @rule(data=st.data(), order=st.permutations(range(2)))
    def commit_proposed(self, data: st.DataObject, order: List[int]) -> None:
        block = data.draw(st.sampled_from(sorted(self.blocks)))
        self._commit(block, self.blocks[block], order)

    @rule(
        payload=st.lists(st.integers(-2, 60) | st.sampled_from(EXTERNAL), max_size=8),
        order=st.permutations(range(2)),
    )
    def commit_other(self, payload: List[int], order: List[int]) -> None:
        # Out-of-order, repeated and never-seen ids, as a block a replica
        # learns by sync would carry them.
        self._commit(self._new_block(), payload, order)

    def _commit(self, block: str, payload: List[int], order: List[int]) -> None:
        time = self._tick()
        for index in order:
            if index < self.POOLS:
                pool, model = self.pools[index], self.models[index]
                assert pool.mark_committed(block, tuple(payload), time) == model.commit(
                    block, payload, time
                )

    @invariant()
    def agrees_with_model(self) -> None:
        for pool, model, metrics, seen in zip(self.pools, self.models, self.metrics, self.commits):
            assert pool.pending_count == len(model.pending)
            assert pool.committed_count == len(model.committed)
            probe = model.committed | set(model.records) | {-2, -1, model.next_id}
            assert {rid for rid in probe if pool.is_committed(rid)} == model.committed
            assert metrics.latency_samples() == model.latencies
            assert metrics.committed_operations() == len(model.latencies)
            assert seen == model.commit_batches
            # What the pool keeps: no committed id the floor covers, and
            # no per-id record of a preloaded request.
            assert pool._floor not in pool._committed
            assert all(not 0 <= rid < pool._floor for rid in pool._committed)
            assert not pool._requests.keys() & model.preloaded


class _SharedPoolMachine(_PoolMachine):
    TRACK = False
    POOLS = 1


_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestReplicatedPools = _PoolMachine.TestCase
TestReplicatedPools.settings = _SETTINGS
TestSharedPool = _SharedPoolMachine.TestCase
TestSharedPool.settings = _SETTINGS
