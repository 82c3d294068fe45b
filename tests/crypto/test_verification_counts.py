"""What one BLS verification or aggregation costs, by counts not clocks.

A verification is one pairing-product equation: one fused Miller loop and
exactly one final exponentiation, whatever it checks — a share, or an
aggregate the memo has not seen (a memo hit costs none).  A weighted sum
of shares or keys is one Jacobian accumulator: no scalar multiplication,
and a single normalisation back to affine at the end.  Signing a message
again reuses its comb table: no fresh scalar multiplication.  An
off-curve aggregate is refused before any pairing work.
The counts come from wrapping the three primitives themselves, so they
hold on any host at any speed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.aggregation.messages import ProposalMessage
from repro.consensus.block import Block, QuorumCertificate
from repro.consensus.config import ConsensusConfig
from repro.crypto import curve, pairing
from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import Point
from repro.crypto.multisig import AggregateSignature
from repro.crypto.params import TOY_PARAMS
from repro.experiments.runner import build_deployment
from repro.runtime.codec import WireCodec

pytestmark = pytest.mark.pairing

MESSAGE = b"vote|block-5|2|9"
SIGNERS = 12


@pytest.fixture(scope="module")
def scheme():
    return BlsMultiSig(TOY_PARAMS)


@pytest.fixture(scope="module")
def pairs(scheme):
    return {pid: scheme.keygen(70 + pid) for pid in range(SIGNERS)}


@pytest.fixture(scope="module")
def public(pairs):
    return {pid: pair.public_key for pid, pair in pairs.items()}


@pytest.fixture(scope="module")
def shares(scheme, pairs):
    return [scheme.sign(pair.secret_key, MESSAGE, pid) for pid, pair in pairs.items()]


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts calls of the three primitives for the duration of one test."""
    counts: Counter = Counter()

    def count(module, name: str) -> None:
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(pairing, "_fp2_pow_unitary")
    count(curve, "_batch_to_affine")
    count(curve, "_scalar_mult_ints")
    return counts


def test_verify_share_is_one_final_exponentiation(scheme, public, shares, calls):
    assert scheme.verify_share(shares[0], MESSAGE, public[0])
    assert calls["_fp2_pow_unitary"] == 1
    # A rejection costs the same one equation.
    assert not scheme.verify_share(shares[0], MESSAGE, public[1])
    assert calls["_fp2_pow_unitary"] == 2
    assert calls["_scalar_mult_ints"] == 0


def test_verify_aggregate_miss_is_one_and_hit_is_none(public, shares, calls):
    scheme = BlsMultiSig(TOY_PARAMS)  # fresh memos
    aggregate = scheme.aggregate(shares)
    calls.clear()
    assert scheme.verify_aggregate(aggregate, MESSAGE, public)
    assert calls["_fp2_pow_unitary"] == 1
    assert scheme.verify_aggregate(aggregate, MESSAGE, public)
    assert calls["_fp2_pow_unitary"] == 1


def test_unit_weight_aggregate_is_one_normalisation_and_no_scalar_mult(scheme, shares, calls):
    aggregate = scheme.aggregate([(share, 1) for share in shares])
    assert aggregate.multiplicities == {pid: 1 for pid in range(SIGNERS)}
    assert calls["_batch_to_affine"] == 1
    assert calls["_scalar_mult_ints"] == 0
    assert calls["_fp2_pow_unitary"] == 0


def test_unit_multiplicity_weighted_key_needs_no_scalar_mult(public, calls):
    scheme = BlsMultiSig(TOY_PARAMS)  # fresh memos
    claimed = AggregateSignature(
        value=public[0], multiplicities={pid: 1 for pid in range(SIGNERS)}
    )
    weighted = scheme._weighted_key(claimed, public)
    assert calls["_scalar_mult_ints"] == 0
    assert calls["_batch_to_affine"] == 1
    # The second lookup is a memo hit: no group arithmetic at all.
    assert scheme._weighted_key(claimed, public) is weighted
    assert calls["_batch_to_affine"] == 1


def test_tree_multiplicities_need_no_scalar_mult_either(scheme, shares, calls):
    # An Iniva internal node folds its own share with weight 1 + #children and
    # each child's with weight 2: small weights ride the same accumulator.
    children = shares[1:4]
    aggregate = scheme.aggregate(
        [(shares[0], 1 + len(children))] + [(share, 2) for share in children]
    )
    assert aggregate.multiplicities == {0: 4, 1: 2, 2: 2, 3: 2}
    assert calls["_scalar_mult_ints"] == 0
    assert calls["_batch_to_affine"] == 1


def test_second_sign_on_a_warm_message_makes_no_scalar_mult(scheme, pairs, calls):
    message = b"vote|block-6|3|1"
    first = scheme.sign(pairs[0].secret_key, message, 0)
    calls.clear()
    second = scheme.sign(pairs[1].secret_key, message, 1)
    assert calls["_scalar_mult_ints"] == 0
    assert calls["_batch_to_affine"] == 1  # the result's normalisation only
    hashed = curve.hash_to_point(message, TOY_PARAMS)
    assert (first.value, second.value) == (
        hashed * pairs[0].secret_key,
        hashed * pairs[1].secret_key,
    )


OFF_CURVE = Point.from_ints(1, 1, TOY_PARAMS)  # 1^2 != 1^3 + 1


def _block_carrying(aggregate: AggregateSignature) -> Block:
    qc = QuorumCertificate(block_id="abc", view=3, height=2, aggregate=aggregate, collector=0)
    return Block(
        height=3, view=4, proposer=0, parent_id="abc", qc=qc, payload=(), payload_bytes=0,
        timestamp=1.0,
    )


def test_off_curve_aggregate_is_refused_before_the_pairing(public, calls):
    assert not OFF_CURVE.is_on_curve()
    scheme = BlsMultiSig(TOY_PARAMS)
    codec = WireCodec(curve_params=TOY_PARAMS)
    claimed = AggregateSignature(value=OFF_CURVE, multiplicities={pid: 1 for pid in public})
    decoded = codec.decode(codec.encode(ProposalMessage(_block_carrying(claimed))))
    aggregate = decoded.block.qc.aggregate
    assert aggregate.value == OFF_CURVE
    assert not scheme.verify_aggregate(aggregate, MESSAGE, public)
    assert not scheme._aggregate_cache
    assert calls["_fp2_pow_unitary"] == 0


def test_proposal_whose_qc_is_off_curve_gets_no_vote(calls):
    config = ConsensusConfig(committee_size=4, signature_scheme="bls", seed=3)
    replica = build_deployment(config).replicas[1]  # "bls" runs on TOY_PARAMS here
    claimed = AggregateSignature(
        value=OFF_CURVE, multiplicities={pid: 1 for pid in range(config.quorum_size)}
    )
    codec = WireCodec(curve_params=TOY_PARAMS)
    block = codec.decode(codec.encode(ProposalMessage(_block_carrying(claimed)))).block
    calls.clear()
    assert replica.process_proposal(block) is None
    assert calls["_fp2_pow_unitary"] == 0

