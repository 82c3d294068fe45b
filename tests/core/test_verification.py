"""Tests for QC verification and reward auditing."""

from __future__ import annotations

import pytest

from repro.consensus.block import QuorumCertificate
from repro.consensus.config import ConsensusConfig
from repro.core.rewards import RewardParams, compute_rewards
from repro.core.verification import (
    BlockAuditor,
    audit_rewards,
    verify_quorum_certificate,
)
from repro.crypto.multisig import HashSigMultiSig
from repro.crypto.keys import Committee
from repro.tree.overlay import AggregationTree


COMMITTEE_SIZE = 13


@pytest.fixture(scope="module")
def committee() -> Committee:
    return Committee(HashSigMultiSig(), size=COMMITTEE_SIZE, seed=7)


@pytest.fixture(scope="module")
def tree() -> AggregationTree:
    return AggregationTree.build(
        committee_size=COMMITTEE_SIZE, view=4, seed=7, num_internal=3, root=0
    )


def _build_qc(committee: Committee, tree: AggregationTree, omit=(), second_chance=()):
    """Assemble a QC the way an honest Iniva collector would."""
    qc_stub = QuorumCertificate(
        block_id="deadbeef", view=4, height=4, aggregate=None, collector=tree.root
    )
    payload = qc_stub.signing_payload()
    scheme = committee.scheme
    shares = {pid: committee.sign(pid, payload) for pid in tree.processes}
    contributions = [(shares[tree.root], 1)]
    for internal in tree.internal_nodes:
        if internal in omit:
            continue
        aggregated_children = [
            child
            for child in tree.children(internal)
            if child not in omit and child not in second_chance
        ]
        parts = [(shares[internal], 1 + len(aggregated_children))]
        parts.extend((shares[child], 2) for child in aggregated_children)
        contributions.append((scheme.aggregate(parts), 1))
    for pid in second_chance:
        if pid not in omit:
            contributions.append((shares[pid], 1))
    aggregate = scheme.aggregate(contributions)
    return QuorumCertificate(
        block_id="deadbeef", view=4, height=4, aggregate=aggregate, collector=tree.root
    )


# ---------------------------------------------------------------------------
# verify_quorum_certificate
# ---------------------------------------------------------------------------
def test_honest_certificate_is_valid(committee, tree):
    qc = _build_qc(committee, tree)
    verdict = verify_quorum_certificate(qc, tree, committee)
    assert verdict.valid
    assert verdict.violations == ()
    assert verdict.included == frozenset(tree.processes)
    assert verdict.second_chance == frozenset()


def test_second_chance_inclusions_are_classified(committee, tree):
    victim = tree.leaves[0]
    qc = _build_qc(committee, tree, second_chance=[victim])
    verdict = verify_quorum_certificate(qc, tree, committee)
    assert verdict.valid
    assert victim in verdict.second_chance
    assert victim in verdict.included
    assert verdict.second_chance_count == 1


def test_below_quorum_certificate_is_rejected(committee, tree):
    omit = list(tree.leaves)[: COMMITTEE_SIZE - 5]  # leaves only 5 signers
    qc = _build_qc(committee, tree, omit=omit)
    verdict = verify_quorum_certificate(qc, tree, committee)
    assert not verdict.valid
    assert any("quorum" in violation for violation in verdict.violations)


def test_auditor_holds_certificates_to_the_protocol_quorum():
    # At n = 9 a root finalises at floor(2n/3) + 1 = 7 signers; a certificate
    # of ceil(2n/3) = 6 is one no honest root forms, and the auditor refuses it.
    committee = Committee(HashSigMultiSig(), size=9, seed=7)
    tree = AggregationTree.build(committee_size=9, view=4, seed=7, num_internal=2, root=0)
    assert committee.quorum_size() == ConsensusConfig(committee_size=9).quorum_size == 7
    six = _build_qc(committee, tree, omit=tree.leaves[:3])
    seven = _build_qc(committee, tree, omit=tree.leaves[:2])
    assert len(six.signers) == 6 and len(seven.signers) == 7
    verdict = BlockAuditor(committee).verify_certificate(six, tree)
    assert not verdict.valid
    assert verdict.violations == ("certificate contains 6 signers, quorum requires 7",)
    assert BlockAuditor(committee).verify_certificate(seven, tree).valid


def test_wrong_collector_is_rejected(committee, tree):
    qc = _build_qc(committee, tree)
    forged = QuorumCertificate(
        block_id=qc.block_id,
        view=qc.view,
        height=qc.height,
        aggregate=qc.aggregate,
        collector=(tree.root + 1) % COMMITTEE_SIZE,
    )
    verdict = verify_quorum_certificate(forged, tree, committee)
    assert not verdict.valid
    assert any("collector" in violation for violation in verdict.violations)


def test_bad_multiplicities_are_rejected(committee, tree):
    """A leader that mangles multiplicities is caught structurally."""
    qc = _build_qc(committee, tree)
    internal = tree.internal_nodes[0]
    tampered_mult = dict(qc.aggregate.multiplicities)
    tampered_mult[internal] = 1  # claims it aggregated nobody, children still at 2
    tampered = QuorumCertificate(
        block_id=qc.block_id,
        view=qc.view,
        height=qc.height,
        aggregate=type(qc.aggregate)(value=qc.aggregate.value, multiplicities=tampered_mult),
        collector=qc.collector,
    )
    verdict = verify_quorum_certificate(tampered, tree, committee, verify_signature=False)
    assert not verdict.valid


def test_tampered_signature_is_rejected(committee, tree):
    qc = _build_qc(committee, tree)
    other_payload_qc = QuorumCertificate(
        block_id="someotherblock", view=4, height=4, aggregate=qc.aggregate, collector=tree.root
    )
    verdict = verify_quorum_certificate(other_payload_qc, tree, committee)
    assert not verdict.valid
    assert any("signature" in violation for violation in verdict.violations)


def test_signer_outside_committee_is_rejected(committee, tree):
    qc = _build_qc(committee, tree)
    mult = dict(qc.aggregate.multiplicities)
    mult[999] = 1
    forged = QuorumCertificate(
        block_id=qc.block_id,
        view=qc.view,
        height=qc.height,
        aggregate=type(qc.aggregate)(value=qc.aggregate.value, multiplicities=mult),
        collector=qc.collector,
    )
    verdict = verify_quorum_certificate(forged, tree, committee, verify_signature=False)
    assert not verdict.valid
    assert any("outside the committee" in violation for violation in verdict.violations)


# ---------------------------------------------------------------------------
# audit_rewards / BlockAuditor
# ---------------------------------------------------------------------------
def test_honest_reward_claim_passes_audit(committee, tree):
    qc = _build_qc(committee, tree)
    params = RewardParams()
    honest = compute_rewards(tree, dict(qc.aggregate.multiplicities), params)
    report = audit_rewards(tree, dict(qc.aggregate.multiplicities), honest.payouts, params)
    assert report.consistent
    assert not report.leader_faulty
    assert report.discrepancies == {}


def test_skimming_leader_is_detected(committee, tree):
    qc = _build_qc(committee, tree)
    params = RewardParams()
    honest = compute_rewards(tree, dict(qc.aggregate.multiplicities), params)
    skimmed = dict(honest.payouts)
    victim = tree.leaves[0]
    skimmed[tree.root] += skimmed[victim] * 0.5
    skimmed[victim] *= 0.5
    report = audit_rewards(tree, dict(qc.aggregate.multiplicities), skimmed, params)
    assert not report.consistent
    assert report.leader_faulty
    assert victim in report.discrepancies
    assert tree.root in report.discrepancies


def test_wrong_total_is_flagged(committee, tree):
    qc = _build_qc(committee, tree)
    params = RewardParams()
    honest = compute_rewards(tree, dict(qc.aggregate.multiplicities), params)
    inflated = {pid: amount * 2 for pid, amount in honest.payouts.items()}
    report = audit_rewards(tree, dict(qc.aggregate.multiplicities), inflated, params)
    assert not report.consistent
    assert any("sum to" in note for note in report.notes)


def test_payout_to_non_member_is_flagged(committee, tree):
    qc = _build_qc(committee, tree)
    params = RewardParams()
    honest = compute_rewards(tree, dict(qc.aggregate.multiplicities), params)
    padded = dict(honest.payouts)
    padded[4242] = 0.0
    report = audit_rewards(tree, dict(qc.aggregate.multiplicities), padded, params)
    assert not report.consistent
    assert any("non-members" in note for note in report.notes)


def test_block_auditor_full_path(committee, tree):
    auditor = BlockAuditor(committee)
    qc = _build_qc(committee, tree, second_chance=[tree.leaves[1]])
    verdict = auditor.verify_certificate(qc, tree)
    assert verdict.valid

    expected = auditor.expected_rewards(qc, tree)
    report = auditor.audit_block(qc, tree, expected.payouts)
    assert report.consistent

    # An invalid certificate taints the audit even if the payout maths match.
    forged = QuorumCertificate(
        block_id=qc.block_id,
        view=qc.view,
        height=qc.height,
        aggregate=qc.aggregate,
        collector=(tree.root + 1) % COMMITTEE_SIZE,
    )
    tainted = auditor.audit_block(forged, tree, expected.payouts)
    assert not tainted.consistent
    assert tainted.leader_faulty


def test_second_chance_punishment_shows_up_in_expected_rewards(committee, tree):
    auditor = BlockAuditor(committee)
    punished = tree.leaves[2]
    qc = _build_qc(committee, tree, second_chance=[punished])
    honest_qc = _build_qc(committee, tree)
    punished_payout = auditor.expected_rewards(qc, tree).reward_of(punished)
    full_payout = auditor.expected_rewards(honest_qc, tree).reward_of(punished)
    assert punished_payout < full_payout
