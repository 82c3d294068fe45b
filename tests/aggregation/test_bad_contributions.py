"""A bad contribution sent to a collection point is dropped, not folded in.

Every collection point — the star collector, a tree internal node, the
tree root, and the root's 2ND-CHANCE reply handler — refuses a share
whose signer is not its sender or whose value the scheme cannot fold
(wrong type; for BLS also the identity or a point off the curve) on
arrival.  The star collector verifies each share before it counts it.
A tree internal node verifies the aggregate it is about to send, and the
root verifies its bare shares as one batch before it folds the QC (and
before it skips a contribution as overlapping one); only a failed check
falls back to one check per share, which finds and drops the bad one.
An aggregate is verified on arrival (Algorithm 1).  These tests put one
forger in a simulated committee: every vote it sends is rewritten in
flight into a malformed one.  The forger's signature must then be absent
from every certificate that a correct collector assembles, and those
certificates must still form from the honest remainder and verify.
"""

import dataclasses

import pytest

from repro.aggregation.messages import SecondChanceReply, SignatureMessage
from repro.consensus.config import ConsensusConfig
from repro.core.iniva import InivaAggregator
from repro.crypto.curve import Point
from repro.crypto.multisig import AggregateSignature, SignatureShare, run_scheme
from repro.crypto.params import TOY_PARAMS
from repro.experiments.runner import build_deployment
from repro.experiments.workloads import ClientWorkload
from repro.simnet.metrics import MetricsCollector

FORGER = 4
DURATION = 0.25

SCHEMES = pytest.mark.parametrize("signature_scheme", ["hashsig", "bls"])


def deploy(aggregation, signature_scheme, committee_size=7, num_internal=2):
    """Seven replicas as root + 2 internal nodes + 4 leaves: the quorum of
    five needs both subtrees, so an internal node's aggregate counts even
    when it arrives late."""
    config = ConsensusConfig(
        committee_size=committee_size,
        num_internal=num_internal,
        batch_size=10,
        aggregation=aggregation,
        signature_scheme=signature_scheme,  # "bls" runs on TOY_PARAMS here
        seed=41,
    )
    deployment = build_deployment(config)
    ClientWorkload(rate=1500, payload_size=64, seed=3).attach(
        deployment.simulator, deployment.mempool, DURATION
    )
    return deployment


def rewrite_votes(deployment, rewrite):
    """Pass every message the forger sends through ``rewrite``.

    ``rewrite(dst, message)`` returns ``None`` to let the message through,
    or the message to deliver in its place.  Returns the list of forged
    messages that were sent.
    """
    network = deployment.network
    forged = []
    resending = False

    def rule(src, dst, message):
        nonlocal resending
        if resending or src != FORGER:
            return False
        replacement = rewrite(dst, message)
        if replacement is None:
            return False
        forged.append(replacement)
        resending = True
        try:
            network.send(src, dst, replacement, replacement.size_bytes)
        finally:
            resending = False
        return True

    network.add_drop_rule(rule)
    return forged


def run(deployment):
    deployment.start()
    deployment.simulator.run(until=DURATION)


def certificates(deployment):
    """(tree, QC) for every certificate in the chain that a replica other
    than the forger assembled — each a quorum that verifies."""
    reference = deployment.replicas[0]
    # A fresh backend: the deployment's own remembers, unchecked, every
    # aggregate its collectors built (``trust_aggregate``).
    verifier = run_scheme(deployment.config.signature_scheme)
    public_keys = deployment.committee.public_keys()
    records = []
    for block in reference.blocks.values():
        if block.is_genesis or block.qc.is_genesis:
            continue
        certified = reference.blocks.get(block.qc.block_id)
        if certified is None or certified.is_genesis or block.qc.collector == FORGER:
            continue
        qc = block.qc
        assert len(qc.signers) >= deployment.config.quorum_size
        assert verifier.verify_aggregate(qc.aggregate, certified.signing_payload(), public_keys)
        records.append((reference.build_tree(certified), qc))
    assert len(records) >= 5
    return records


def wrong_value(deployment, signer):
    """A well-formed share by ``signer`` — on a message nobody proposed."""
    return deployment.committee.sign(signer, b"not the proposed block")


@SCHEMES
@pytest.mark.parametrize("forgery", ["wrong-value", "wrong-signer"])
def test_star_collector_drops_a_bad_share(signature_scheme, forgery):
    deployment = deploy("star", signature_scheme)

    def rewrite(dst, message):
        if not isinstance(message, SignatureMessage):
            return None
        if forgery == "wrong-value":
            share = wrong_value(deployment, FORGER)
        else:
            # The forger's own signature, passed off as the collector's.
            share = SignatureShare(signer=dst, value=message.signature.value)
        return dataclasses.replace(message, signature=share)

    forged = rewrite_votes(deployment, rewrite)
    run(deployment)
    assert forged
    for _tree, qc in certificates(deployment):
        assert FORGER not in qc.aggregate.multiplicities


#: Share values a scheme cannot fold, by scheme: raw bytes where BLS wants
#: a curve point and hashsig an int, and BLS's identity and an off-curve point.
WRONG_TYPES = [
    ("hashsig", b"not a signature"),
    ("bls", b"not a signature"),
    ("bls", Point.infinity(TOY_PARAMS)),
    ("bls", Point.from_ints(1, 1, TOY_PARAMS)),  # 1^2 != 1^3 + 1
]
WRONG_TYPE_IDS = ["hashsig-bytes", "bls-bytes", "bls-identity", "bls-off-curve"]
WRONG_TYPE = pytest.mark.parametrize(
    "signature_scheme, value", WRONG_TYPES, ids=WRONG_TYPE_IDS
)


def forge_bare_shares(deployment, forge=wrong_value):
    def rewrite(dst, message):
        if isinstance(message, SignatureMessage) and isinstance(message.signature, SignatureShare):
            return dataclasses.replace(message, signature=forge(deployment, FORGER))
        return None

    return rewrite_votes(deployment, rewrite)


@SCHEMES
def test_tree_internal_node_drops_a_bad_child_share(signature_scheme):
    deployment = deploy("tree", signature_scheme)
    forged = forge_bare_shares(deployment)
    run(deployment)
    assert forged
    as_leaf = 0
    for tree, qc in certificates(deployment):
        if not tree.is_leaf(FORGER):
            continue  # as root or internal node it sent no bare share
        as_leaf += 1
        parent = tree.parent(FORGER)
        (sibling,) = set(tree.children(parent)) - {FORGER}
        # The parent dropped one child, not its subtree: its aggregate
        # carries itself and the one child it did aggregate.
        assert qc.signers == set(tree.processes) - {FORGER}
        assert qc.aggregate.multiplicity(sibling) == 2
        assert qc.aggregate.multiplicity(parent) == 2
    assert as_leaf


@WRONG_TYPE
def test_tree_internal_node_refuses_a_wrong_type_child_share(signature_scheme, value):
    deployment = deploy("tree", signature_scheme)
    forged = forge_bare_shares(
        deployment, lambda _deployment, signer: SignatureShare(signer=signer, value=value)
    )
    run(deployment)
    assert forged
    as_leaf = 0
    for tree, qc in certificates(deployment):
        if not tree.is_leaf(FORGER):
            continue
        as_leaf += 1
        parent = tree.parent(FORGER)
        (sibling,) = set(tree.children(parent)) - {FORGER}
        assert qc.signers == set(tree.processes) - {FORGER}
        assert qc.aggregate.multiplicity(sibling) == 2
        assert qc.aggregate.multiplicity(parent) == 2
    assert as_leaf


@SCHEMES
def test_tree_root_drops_a_bad_direct_child_share(signature_scheme):
    # No internal nodes: every replica is the root's own child and sends
    # it a bare share.
    deployment = deploy("tree", signature_scheme, num_internal=0)
    forged = forge_bare_shares(deployment)
    run(deployment)
    assert forged
    for _tree, qc in certificates(deployment):
        assert FORGER not in qc.aggregate.multiplicities


@WRONG_TYPE
def test_tree_root_refuses_a_wrong_type_direct_child_share(signature_scheme, value):
    deployment = deploy("tree", signature_scheme, num_internal=0)
    forged = forge_bare_shares(
        deployment, lambda _deployment, signer: SignatureShare(signer=signer, value=value)
    )
    run(deployment)
    assert forged
    for _tree, qc in certificates(deployment):
        assert FORGER not in qc.aggregate.multiplicities


@SCHEMES
def test_tree_root_drops_a_corrupted_internal_aggregate(signature_scheme):
    # 13 replicas, 4 internal nodes with two leaves each: without fallback
    # paths a dropped aggregate loses its whole subtree (3 votes), which
    # still leaves the quorum of 9.
    deployment = deploy("tree", signature_scheme, committee_size=13, num_internal=4)
    scheme = deployment.committee.scheme

    def rewrite(dst, message):
        if isinstance(message, SignatureMessage) and isinstance(
            message.signature, AggregateSignature
        ):
            # Honest multiplicities over a value that does not match them.
            value = scheme.aggregate([(wrong_value(deployment, FORGER), 1)]).value
            corrupted = AggregateSignature(
                value=value, multiplicities=message.signature.multiplicities
            )
            return dataclasses.replace(message, signature=corrupted)
        return None

    forged = rewrite_votes(deployment, rewrite)
    run(deployment)
    assert forged
    as_internal = 0
    for tree, qc in certificates(deployment):
        if tree.is_internal(FORGER):
            as_internal += 1
            assert qc.signers.isdisjoint(tree.subtree(FORGER))
    assert as_internal


@SCHEMES
def test_iniva_root_drops_a_corrupted_second_chance_reply(signature_scheme):
    """The forger's tree votes are lost, so the root offers it a 2ND-CHANCE;
    its reply is malformed and must not make it into the certificate."""
    deployment = deploy("iniva", signature_scheme)

    def lose_tree_votes(src, dst, message):
        return src == FORGER and isinstance(message, SignatureMessage)

    def rewrite(dst, message):
        if isinstance(message, SecondChanceReply):
            return dataclasses.replace(message, signature=wrong_value(deployment, FORGER))
        return None

    deployment.network.add_drop_rule(lose_tree_votes)
    forged = rewrite_votes(deployment, rewrite)
    run(deployment)
    assert forged
    as_leaf = 0
    for tree, qc in certificates(deployment):
        if tree.is_leaf(FORGER):
            as_leaf += 1
            assert FORGER not in qc.aggregate.multiplicities
        # As an internal node its children answer their own 2ND-CHANCE with
        # its (honest) ACK aggregate, which carries its signature.
    assert as_leaf


@WRONG_TYPE
def test_iniva_root_refuses_a_wrong_type_second_chance_reply(signature_scheme, value):
    deployment = deploy("iniva", signature_scheme)

    def lose_tree_votes(src, dst, message):
        return src == FORGER and isinstance(message, SignatureMessage)

    def rewrite(dst, message):
        if isinstance(message, SecondChanceReply):
            share = SignatureShare(signer=FORGER, value=value)
            return dataclasses.replace(message, signature=share)
        return None

    deployment.network.add_drop_rule(lose_tree_votes)
    forged = rewrite_votes(deployment, rewrite)
    run(deployment)
    assert forged
    as_leaf = 0
    for tree, qc in certificates(deployment):
        if tree.is_leaf(FORGER):
            as_leaf += 1
            assert FORGER not in qc.aggregate.multiplicities
    assert as_leaf


@SCHEMES
def test_iniva_root_does_not_count_a_forged_second_chance_reply_as_recovered(
    signature_scheme, monkeypatch
):
    """A bare reply is counted on arrival and checked later; when the check
    finds it forged, the recovered-votes counter gives it back."""
    deployment = deploy("iniva", signature_scheme)
    counted_forgeries = []
    given_back = []

    add_contribution = InivaAggregator._root_add_contribution

    def add(self, block, contribution, source):
        added = add_contribution(self, block, contribution, source)
        if added and source == FORGER != self.process_id:
            counted_forgeries.append(block.view)
        return added

    record = MetricsCollector.record_second_chance_inclusion

    def record_inclusion(self, count=1):
        if count < 0:
            given_back.append(-count)
        return record(self, count)

    monkeypatch.setattr(InivaAggregator, "_root_add_contribution", add)
    monkeypatch.setattr(MetricsCollector, "record_second_chance_inclusion", record_inclusion)

    def lose_tree_votes(src, dst, message):
        return src == FORGER and isinstance(message, SignatureMessage)

    def rewrite(dst, message):
        if isinstance(message, SecondChanceReply):
            return dataclasses.replace(message, signature=wrong_value(deployment, FORGER))
        return None

    deployment.network.add_drop_rule(lose_tree_votes)
    rewrite_votes(deployment, rewrite)
    run(deployment)
    assert counted_forgeries
    # Each forged reply the root counted was found at its batch check (the
    # last round may end before its check) and taken back out.
    assert len(counted_forgeries) - 1 <= sum(given_back) <= len(counted_forgeries)
