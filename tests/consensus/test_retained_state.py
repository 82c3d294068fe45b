"""What a simulated run keeps once its blocks are decided.

A replica's vote is dead once its view is decided, so the votes all
replicas hold together stay a small multiple of the committee size however
many blocks a run commits.  Until then ``process_proposal`` stays
idempotent: a 2ND-CHANCE that re-delivers a block the replica already
voted for gets the identical share back.  The ``hashsig`` memos are
bounded by ``MEMO_MAX``.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.crypto.keys import Committee
from repro.crypto.multisig import HashSigMultiSig
from repro.experiments.runner import summarise
from repro.scenarios.spec import CommitteeSpec, FaultSpec, ScenarioSpec, WorkloadSpec

N = 16


def _spec(duration: float) -> ScenarioSpec:
    # One crashed replica in sixteen: every sixteenth view's leader is
    # down, which orphans the block before it and fires 2ND-CHANCE.
    return ScenarioSpec(
        name="retained-state",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=10,
        duration=duration,
        warmup=0.5,
        seed=3,
        committee=CommitteeSpec(size=N),
        faults=FaultSpec(crashes=1, crash_seed=11),
        workload=WorkloadSpec(rate=2000.0, payload_size=64, arrival="poisson", seed=3),
    )


@pytest.fixture(scope="module")
def finished_run():
    spec = _spec(10.0)
    deployment = api.deploy(spec)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    return deployment, summarise(deployment, spec.duration)


def test_votes_held_do_not_grow_with_blocks(finished_run):
    deployment, result = finished_run
    assert len(deployment.mempool.committed_order) >= 200
    # The run exercised the paths that re-deliver a voted block.
    assert result.second_chance_inclusions > 0
    held = sum(len(replica._votes) for replica in deployment.replicas)
    assert held <= 4 * N
    for replica in deployment.correct_replicas():
        # Only votes above the committed height's view are still live.
        committed_views = [replica.blocks[block].view for block in replica.committed_blocks]
        assert all(replica.blocks[block].view > max(committed_views) for block in replica._votes)


def test_hashsig_memos_stay_bounded_in_a_run(finished_run):
    deployment, _ = finished_run
    scheme = deployment.committee.scheme
    assert isinstance(scheme, HashSigMultiSig)
    assert len(scheme._share_cache) <= scheme.MEMO_MAX
    assert len(scheme._public_of) <= scheme.MEMO_MAX
    assert len(scheme._aggregate_cache) <= scheme.AGGREGATE_CACHE_MAX


def test_redelivery_before_commit_returns_the_same_share():
    spec = _spec(1.5)
    deployment = api.deploy(spec)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    replica = deployment.correct_replicas()[0]
    pending = [block for block in replica._votes if block not in replica.committed_blocks]
    assert pending, "the chain tail is voted for but not yet committed"
    for block_id in pending:
        share = replica._votes[block_id]
        assert replica.process_proposal(replica.blocks[block_id]) is share
        assert replica.process_proposal(replica.blocks[block_id]) is share


def test_hashsig_memos_never_pass_memo_max():
    scheme = HashSigMultiSig()
    scheme.MEMO_MAX = 32
    committee = Committee(scheme, size=8, seed=1)
    for view in range(40):
        message = f"vote|{view}".encode()
        shares = [committee.sign(pid, message) for pid in range(8)]
        for share in shares:
            assert committee.verify_share(share, message)
        assert len(scheme._share_cache) <= scheme.MEMO_MAX
        assert len(scheme._public_of) <= scheme.MEMO_MAX
