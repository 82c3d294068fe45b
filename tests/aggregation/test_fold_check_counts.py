"""Collection points check the fold, not each vote — by counts, not clocks.

An Iniva internal node verifies the aggregate it sends up with one
pairing equation, the root checks its bare shares as one batch, and the
root's own check of an internal aggregate is a memo hit (one scheme per
process in the simulator).  So a fault-free block costs at most one
pairing per internal node plus one at the root, however many votes
arrive.  A share is checked on its own only after a fold that contains
it failed.

The counts come from wrapping the BLS backend's one pairing entry point
(``repro.crypto.bls.tate_check``) and its ``verify_share``, so they hold
on any host at any speed.
"""

import dataclasses
from collections import Counter

import pytest

from repro.aggregation.messages import SignatureMessage
from repro.consensus.config import ConsensusConfig
from repro.crypto import bls
from repro.crypto.bls import BlsMultiSig
from repro.crypto.multisig import SignatureShare
from repro.experiments.runner import build_deployment
from repro.experiments.workloads import ClientWorkload

pytestmark = pytest.mark.pairing

DURATION = 0.4
FORGER = 5
CONFIG = ConsensusConfig(committee_size=16, aggregation="iniva", signature_scheme="bls")


def deploy():
    deployment = build_deployment(CONFIG)  # "bls" runs on TOY_PARAMS here
    ClientWorkload(rate=2000, payload_size=64, seed=7).attach(
        deployment.simulator, deployment.mempool, DURATION
    )
    return deployment


def run(deployment):
    deployment.start()
    deployment.simulator.run(until=DURATION)
    return deployment.metrics.committed_blocks()


@pytest.fixture
def pairings(monkeypatch) -> Counter:
    counts: Counter = Counter()
    tate_check = bls.tate_check

    def counted(*args):
        counts["tate_check"] += 1
        return tate_check(*args)

    monkeypatch.setattr(bls, "tate_check", counted)
    return counts


@pytest.fixture
def share_checks(monkeypatch) -> list:
    """The messages of the per-share verifications made, in order."""
    messages: list = []
    verify_share = BlsMultiSig.verify_share

    def counted(self, share, message, public_key):
        messages.append(message)
        return verify_share(self, share, message, public_key)

    monkeypatch.setattr(BlsMultiSig, "verify_share", counted)
    return messages


def test_a_fault_free_block_pays_a_pairing_per_fold(pairings, share_checks):
    deployment = deploy()
    blocks = run(deployment)
    assert blocks >= 100
    assert CONFIG.num_internal is None  # the balanced default: 4 at n = 16
    internal_nodes = 4
    # One check per collection point's fold.  Checking each vote on
    # arrival paid one per vote: about 15 a block.
    assert pairings["tate_check"] / blocks <= internal_nodes + 1
    assert not share_checks


def test_a_forged_child_costs_share_checks_only_where_it_is_a_child(share_checks):
    deployment = deploy()
    network = deployment.network
    forger = deployment.replicas[FORGER]
    trees = {}  # view -> tree, recorded while the forger's votes are in flight
    forged = []
    resending = False

    def forge(src, dst, message):
        # Every bare vote the forger sends becomes a well-formed share on a
        # message nobody proposed: it passes the arrival checks and fails
        # the fold it lands in.
        nonlocal resending
        if resending or src != FORGER or not isinstance(message, SignatureMessage):
            return False
        if not isinstance(message.signature, SignatureShare):
            return False
        trees[message.view] = forger.build_tree(forger.known_block(message.block_id))
        share = deployment.committee.sign(FORGER, b"not the proposed block")
        replacement = dataclasses.replace(message, signature=share)
        forged.append(replacement)
        resending = True
        try:
            network.send(src, dst, replacement, replacement.size_bytes)
        finally:
            resending = False
        return True

    network.add_drop_rule(forge)
    blocks = run(deployment)
    assert forged and blocks >= 100
    assert share_checks
    for message in share_checks:
        view = int(message.split(b"|")[2])
        # The only per-share checks are the ones a failed fold falls back
        # to, in views where the forger sent a bare vote to its parent.
        assert view in trees
        assert trees[view].is_leaf(FORGER)
