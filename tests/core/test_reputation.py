"""Tests for the Rebop reputation tracker and leader election."""

from __future__ import annotations

import pytest

from repro.consensus.block import QuorumCertificate, genesis_qc
from repro.consensus.leader import make_leader_election
from repro.core.reputation import RebopElection, ReputationTracker
from repro.crypto.multisig import AggregateSignature


def _qc(view: int, collector: int, signers) -> QuorumCertificate:
    aggregate = AggregateSignature(value=b"x", multiplicities={pid: 1 for pid in signers})
    return QuorumCertificate(
        block_id=f"block-{view}", view=view, height=view, aggregate=aggregate, collector=collector
    )


# ---------------------------------------------------------------------------
# ReputationTracker
# ---------------------------------------------------------------------------
def test_tracker_records_votes_per_collector():
    tracker = ReputationTracker(committee_size=5, window=3)
    tracker.record(view=1, collector=2, votes=4)
    tracker.record(view=2, collector=2, votes=5)
    tracker.record(view=3, collector=0, votes=3)
    assert tracker.reputation(2) == 9
    assert tracker.reputation(0) == 3
    assert tracker.reputation(4) == 0
    assert tracker.leaderships(2) == 2


def test_tracker_window_is_sliding():
    tracker = ReputationTracker(committee_size=3, window=2)
    for view in range(1, 6):
        tracker.record(view=view, collector=1, votes=view)
    # Only the last two leaderships count: views 4 and 5.
    assert tracker.reputation(1) == 9


def test_tracker_ignores_duplicates_and_strangers():
    tracker = ReputationTracker(committee_size=3, window=5)
    tracker.record(view=1, collector=0, votes=3)
    tracker.record(view=1, collector=0, votes=3)  # duplicate view
    tracker.record(view=2, collector=99, votes=3)  # not a member
    assert tracker.reputation(0) == 3
    assert tracker.reputation(99) == 0


def test_tracker_observe_qc_skips_genesis():
    tracker = ReputationTracker(committee_size=3)
    tracker.observe_qc(genesis_qc())
    assert all(tracker.reputation(pid) == 0 for pid in range(3))
    tracker.observe_qc(_qc(view=1, collector=1, signers=range(3)))
    assert tracker.reputation(1) == 3


def test_tracker_ranking_orders_by_reputation_then_id():
    tracker = ReputationTracker(committee_size=4, window=5)
    tracker.record(view=1, collector=3, votes=10)
    tracker.record(view=2, collector=1, votes=10)
    tracker.record(view=3, collector=0, votes=2)
    assert tracker.ranking() == (1, 3, 0, 2)


def test_tracker_validates_arguments():
    with pytest.raises(ValueError):
        ReputationTracker(committee_size=0)
    with pytest.raises(ValueError):
        ReputationTracker(committee_size=3, window=0)


# ---------------------------------------------------------------------------
# RebopElection
# ---------------------------------------------------------------------------
def test_rebop_bootstraps_as_round_robin():
    election = RebopElection(committee_size=4)
    assert [election.leader(view) for view in range(4)] == [0, 1, 2, 3]


def test_rebop_demotes_processes_that_never_collect_votes():
    n = 4
    election = RebopElection(committee_size=n, window=10, bootstrap_rounds=1)
    # Processes 0-2 collect full certificates; process 3 never manages to.
    view = 1
    for round_index in range(3):
        for collector in range(3):
            election.observe_qc(_qc(view=view, collector=collector, signers=range(n)))
            view += 1
    leaders = {election.leader(v) for v in range(view, view + n)}
    assert leaders == {0, 1, 2, 3}  # still rotates over everyone (fairness)
    # But the starved process is always scheduled last in the rotation order.
    ranking = election.tracker.ranking()
    assert ranking[-1] == 3


def test_rebop_prefers_high_reputation_collectors():
    election = RebopElection(committee_size=3, window=10, bootstrap_rounds=1)
    for view in range(1, 10):
        collector = 2 if view % 2 else 1
        signers = range(3) if collector == 2 else range(2)
        election.observe_qc(_qc(view=view, collector=collector, signers=signers))
    ranking = election.tracker.ranking()
    assert ranking[0] == 2
    assert election.leader(99, _qc(view=99, collector=1, signers=range(3))) == ranking[99 % 3]


def test_make_leader_election_knows_rebop():
    election = make_leader_election("rebop", committee_size=7)
    assert isinstance(election, RebopElection)
    with pytest.raises(ValueError):
        make_leader_election("dictator", committee_size=7)


def test_rebop_runs_inside_a_deployment():
    """End-to-end: a committee using Rebop still commits blocks."""
    from repro import api
    from repro.experiments import specs

    spec = specs.testbed_base(
        "rebop", duration=1.0, warmup=0.1, seed=1, batch_size=10, view_timeout=0.1
    ).with_(
        committee={"size": 7},
        leader_policy="rebop",
        workload={"rate": 1_000, "payload_size": 32, "seed": 5},
    )
    result = api.run(spec).metrics
    assert result.committed_blocks > 3
