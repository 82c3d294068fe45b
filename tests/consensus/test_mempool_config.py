"""Tests for the mempool/client model and the consensus configuration."""

import pytest

from repro.consensus.config import ConsensusConfig
from repro.consensus.mempool import Mempool
from repro.simnet.metrics import MetricsCollector


class TestMempool:
    def test_submit_and_batch(self):
        pool = Mempool()
        for i in range(5):
            pool.submit(time=float(i), size_bytes=64)
        batch = pool.next_batch(3)
        assert [r.request_id for r in batch] == [0, 1, 2]
        assert pool.pending_count == 2
        assert pool.submitted_count == 5

    def test_batch_larger_than_pending(self):
        pool = Mempool()
        pool.submit(0.0, 64)
        assert len(pool.next_batch(10)) == 1
        assert pool.next_batch(10) == ()

    def test_commit_records_latency_once(self):
        metrics = MetricsCollector()
        pool = Mempool(metrics)
        batch = tuple(pool.submit(0.0, 64) for _ in range(3))
        pool.track_block("blk", batch)
        assert pool.mark_committed("blk", tuple(r.request_id for r in batch), time=2.0)
        assert not pool.mark_committed("blk", tuple(r.request_id for r in batch), time=3.0)
        assert pool.committed_count == 3
        assert metrics.committed_operations() == 3
        assert metrics.latency_stats().mean == pytest.approx(2.0)

    def test_commit_by_payload_lookup(self):
        metrics = MetricsCollector()
        pool = Mempool(metrics)
        requests = [pool.submit(1.0, 64) for _ in range(2)]
        pool.next_batch(2)
        # No track_block call: committing by payload ids still works.
        assert pool.mark_committed("blk", tuple(r.request_id for r in requests), time=4.0)
        assert metrics.committed_operations() == 2

    def test_requeue_failed_block(self):
        pool = Mempool()
        batch = tuple(pool.submit(0.0, 64) for _ in range(3))
        pool.next_batch(3)
        pool.track_block("blk", batch)
        assert pool.pending_count == 0
        pool.requeue_block("blk")
        assert pool.pending_count == 3

    def test_duplicate_request_not_double_counted(self):
        metrics = MetricsCollector()
        pool = Mempool(metrics)
        request = pool.submit(0.0, 64)
        pool.track_block("a", (request,))
        pool.track_block("b", (request,))
        pool.mark_committed("a", (request.request_id,), 1.0)
        pool.mark_committed("b", (request.request_id,), 2.0)
        assert metrics.committed_operations() == 1

    def test_submit_many_round_robin_cursor_persists_across_calls(self):
        # Regression: the cursor used to restart at client 0 every call,
        # so two half-size calls skewed attribution toward low client ids.
        split = Mempool()
        split.submit_many(count=3, time=0.0, size_bytes=64, num_clients=4)
        split.submit_many(count=5, time=0.0, size_bytes=64, num_clients=4)
        combined = Mempool()
        combined.submit_many(count=8, time=0.0, size_bytes=64, num_clients=4)
        assert [r.client_id for r in split.next_batch(8)] == [
            r.client_id for r in combined.next_batch(8)
        ]

    def test_submit_many_matches_sequential_submits(self):
        bulk = Mempool()
        bulk.submit_many(count=7, time=1.0, size_bytes=32, num_clients=3)
        sequential = Mempool()
        for i in range(7):
            sequential.submit(time=1.0, size_bytes=32, client_id=i % 3)
        assert bulk.next_batch(7) == sequential.next_batch(7)


class TestAdmissionControl:
    def test_admit_unbounded_by_default(self):
        pool = Mempool()
        for rid in range(50):
            assert pool.admit(request_id=rid, client_id=0, size_bytes=64, now=0.0) == "admitted"
        assert pool.pending_count == 50
        assert pool.admission_summary()["admitted"] == 50

    def test_duplicate_request_not_requeued(self):
        pool = Mempool()
        assert pool.admit(request_id=7, client_id=1, size_bytes=64, now=0.0) == "admitted"
        assert pool.admit(request_id=7, client_id=1, size_bytes=64, now=0.1) == "duplicate"
        assert pool.pending_count == 1
        assert pool.admission["duplicate"] == 1

    def test_queue_full_drops(self):
        pool = Mempool(max_pending=2)
        for rid in range(2):
            pool.admit(request_id=rid, client_id=0, size_bytes=64, now=0.0)
        assert pool.admit(request_id=2, client_id=0, size_bytes=64, now=0.0) == "dropped"
        assert pool.admission["dropped"] == 1
        assert pool.pending_count == 2

    def test_client_window_defers_per_client(self):
        pool = Mempool(client_window=2)
        for rid in range(2):
            assert pool.admit(request_id=rid, client_id=5, size_bytes=64, now=0.0) == "admitted"
        assert pool.admit(request_id=2, client_id=5, size_bytes=64, now=0.0) == "deferred"
        # Fairness: another client is unaffected by client 5's backlog.
        assert pool.admit(request_id=3, client_id=6, size_bytes=64, now=0.0) == "admitted"
        assert pool.admission["deferred"] == 1

    def test_commit_releases_client_window_and_fires_hook(self):
        pool = Mempool(client_window=1)
        committed_batches = []
        pool.on_commit = committed_batches.append
        assert pool.admit(request_id=1, client_id=0, size_bytes=64, now=0.0) == "admitted"
        assert pool.admit(request_id=2, client_id=0, size_bytes=64, now=0.0) == "deferred"
        batch = pool.next_batch(10)
        pool.track_block("blk", batch)
        pool.mark_committed("blk", (1,), time=0.5)
        assert pool.is_committed(1)
        assert not pool.is_committed(2)
        assert [r.request_id for r in committed_batches[0]] == [1]
        # The window slot freed by the commit admits the retry.
        assert pool.admit(request_id=2, client_id=0, size_bytes=64, now=0.6) == "admitted"

    def test_commit_drops_request_records_and_reservations(self):
        leader, follower = Mempool(track_reservations=True), Mempool(track_reservations=True)
        for pool in (leader, follower):
            for rid in range(10):
                pool.admit(request_id=rid, client_id=rid, size_bytes=64, now=0.0)
        batch = leader.next_batch(4)
        leader.track_block("b1", batch)
        follower.observe_proposal("b1", (0, 1, 2, 3))
        for pool in (leader, follower):
            pool.mark_committed("b1", (0, 1, 2, 3), time=0.5)
        # A second block is proposed but not (yet) committed: in flight.
        leader.track_block("b2", leader.next_batch(3))
        follower.observe_proposal("b2", (4, 5, 6))
        for pool in (leader, follower):
            assert sorted(pool._requests) == [4, 5, 6, 7, 8, 9]
            assert not any(pool.is_committed(rid) for rid in pool._reserved)
            assert pool.committed_count == 4
        assert follower._reserved == {4, 5, 6}
        # Committed ids are skipped from the pending queue all the same.
        assert [r.request_id for r in follower.next_batch(10)] == [7, 8, 9]

    def test_resent_committed_request_is_still_a_duplicate(self):
        pool = Mempool(track_reservations=True, client_window=1)
        pool.admit(request_id=3, client_id=0, size_bytes=64, now=0.0)
        pool.track_block("blk", pool.next_batch(1))
        pool.mark_committed("blk", (3,), time=0.5)
        assert 3 not in pool._requests
        assert pool.admit(request_id=3, client_id=0, size_bytes=64, now=0.6) == "duplicate"
        assert pool.is_committed(3)
        assert pool.pending_count == 0
        assert pool.admission["duplicate"] == 1

    def test_commit_marks_ids_the_pool_never_saw(self):
        # A replica that caught up by sync commits blocks whose requests it
        # never admitted; a late copy of one must not be proposed again.
        metrics = MetricsCollector()
        pool = Mempool(metrics, track_reservations=True)
        pool.admit(request_id=5, client_id=0, size_bytes=64, now=0.0)
        assert pool.mark_committed("blk", (7, 5), time=1.0)
        assert pool.is_committed(7)
        assert pool.admit(request_id=7, client_id=1, size_bytes=64, now=1.5) == "duplicate"
        assert pool.committed_count == 2
        # Latency and ops count the request the pool held a record of.
        assert metrics.committed_operations() == 1
        assert metrics.latency_samples() == [1.0]
        assert pool.next_batch(10) == ()

    def test_preload_keeps_no_per_id_records(self):
        pools = [Mempool(track_reservations=True) for _ in range(3)]
        for pool in pools:
            pool.submit_many(count=50, time=0.0, size_bytes=64, num_clients=4)
        assert all(not pool._requests for pool in pools)
        # Every replica resolves the same shared records.
        assert pools[0]._segments[0][1] is pools[2]._segments[0][1]
        leader, follower = pools[0], pools[1]
        batch = leader.next_batch(10)
        leader.track_block("b1", batch)
        follower.observe_proposal("b1", tuple(r.request_id for r in batch))
        committed = []
        follower.on_commit = committed.extend
        for pool in (leader, follower):
            pool.mark_committed("b1", tuple(range(10)), time=1.0)
            # The contiguous committed prefix folds into the floor.
            assert pool._floor == 10 and not pool._committed
            assert pool.committed_count == 10
            assert pool.admit(request_id=3, client_id=0, size_bytes=64, now=1.0) == "duplicate"
            assert pool.admit(request_id=30, client_id=0, size_bytes=64, now=1.0) == "duplicate"
        assert committed == list(batch)
        assert [r.request_id for r in follower.next_batch(5)] == [10, 11, 12, 13, 14]

    def test_out_of_order_commits_fold_once_the_gap_closes(self):
        pool = Mempool(track_reservations=True)
        pool.submit_many(count=6, time=0.0, size_bytes=64)
        pool.mark_committed("b2", (3, 4), time=1.0)
        assert pool._floor == 0 and pool._committed == {3, 4}
        pool.mark_committed("b1", (0, 1, 2), time=2.0)
        assert pool._floor == 5 and not pool._committed
        assert pool.committed_count == 5
        assert [pool.is_committed(rid) for rid in (-1, 4, 5)] == [False, True, False]
        assert [r.request_id for r in pool.next_batch(10)] == [5]

    def test_peak_pending_tracks_high_water_mark(self):
        pool = Mempool()
        for rid in range(5):
            pool.admit(request_id=rid, client_id=0, size_bytes=64, now=0.0)
        pool.next_batch(5)
        summary = pool.admission_summary()
        assert summary["peak_pending"] == 5
        assert summary["pending"] == 0


class TestConsensusConfig:
    def test_quorum_sizes_match_paper(self):
        assert ConsensusConfig(committee_size=21).quorum_size == 15
        assert ConsensusConfig(committee_size=111).quorum_size == 75

    def test_max_faulty(self):
        config = ConsensusConfig(committee_size=21)
        assert config.max_faulty == 6

    def test_aggregation_timer_heuristic(self):
        config = ConsensusConfig(delta=0.005)
        assert config.aggregation_timer(1) == pytest.approx(0.010)
        assert config.aggregation_timer(2) == pytest.approx(0.020)

    def test_with_override(self):
        config = ConsensusConfig()
        other = config.with_(batch_size=800, aggregation="star")
        assert other.batch_size == 800
        assert other.aggregation == "star"
        assert config.batch_size == 100  # original untouched

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig(committee_size=2)
        with pytest.raises(ValueError):
            ConsensusConfig(aggregation="gossip")
        with pytest.raises(ValueError):
            ConsensusConfig(aggregation="handel")
        with pytest.raises(ValueError):
            ConsensusConfig(batch_size=0)
        with pytest.raises(ValueError):
            ConsensusConfig(payload_size=-1)
        with pytest.raises(ValueError, match="unknown signature scheme 'hash'"):
            ConsensusConfig(signature_scheme="hash")
        with pytest.raises(TypeError, match="unexpected keyword argument 'batch_deadline'"):
            ConsensusConfig(batch_deadline=-0.001)

    def test_describe_mentions_key_parameters(self):
        text = ConsensusConfig(aggregation="iniva", committee_size=21).describe()
        assert "iniva" in text and "n=21" in text
