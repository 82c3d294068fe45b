"""Tests for the additive ``hashsig`` fast-simulation backend."""

import pytest

from repro.crypto.bls import BlsMultiSig
from repro.crypto.keys import Committee
from repro.crypto.multisig import (
    AggregateSignature,
    HashSigMultiSig,
    SignatureShare,
    get_scheme,
)
from repro.crypto.params import TOY_PARAMS

MESSAGE = b"vote|block-7|3|3"


@pytest.fixture(scope="module")
def scheme() -> HashSigMultiSig:
    return HashSigMultiSig()


@pytest.fixture(scope="module")
def committee(scheme) -> Committee:
    return Committee(scheme, size=7, seed=13)


class TestBasics:
    def test_registered(self):
        assert isinstance(get_scheme("hashsig"), HashSigMultiSig)

    def test_keygen_deterministic(self, scheme):
        assert scheme.keygen(4) == scheme.keygen(4)
        assert scheme.keygen(4) != scheme.keygen(5)

    def test_sign_verify_roundtrip(self, committee):
        share = committee.sign(2, MESSAGE)
        assert committee.verify_share(share, MESSAGE)

    def test_wrong_key_rejected(self, scheme, committee):
        share = committee.sign(2, MESSAGE)
        assert not scheme.verify_share(share, MESSAGE, committee.public_key(3))

    def test_wrong_message_rejected(self, committee):
        share = committee.sign(2, MESSAGE)
        assert not committee.verify_share(
            SignatureShare(signer=2, value=share.value + 1), MESSAGE
        )

    def test_domain_separation(self):
        a = HashSigMultiSig(domain=b"domain-a")
        b = HashSigMultiSig(domain=b"domain-b")
        assert a.keygen(1) != b.keygen(1)


class TestAggregation:
    def test_aggregate_verifies_with_multiplicities(self, committee):
        shares = [committee.sign(pid, MESSAGE) for pid in range(5)]
        contributions = [(shares[0], 3)] + [(share, 2) for share in shares[1:]]
        aggregate = committee.scheme.aggregate(contributions)
        assert aggregate.multiplicities == {0: 3, 1: 2, 2: 2, 3: 2, 4: 2}
        assert committee.verify_aggregate(aggregate, MESSAGE)

    def test_aggregate_of_aggregates(self, committee):
        scheme = committee.scheme
        left = scheme.aggregate([(committee.sign(0, MESSAGE), 1), (committee.sign(1, MESSAGE), 2)])
        right = scheme.aggregate([(committee.sign(2, MESSAGE), 1)])
        nested = scheme.aggregate([(left, 2), (right, 1), (committee.sign(3, MESSAGE), 1)])
        assert nested.multiplicities == {0: 2, 1: 4, 2: 1, 3: 1}
        assert committee.verify_aggregate(nested, MESSAGE)

    def test_aggregation_order_independent(self, committee):
        scheme = committee.scheme
        shares = [committee.sign(pid, MESSAGE) for pid in range(4)]
        forward = scheme.aggregate([(s, 1) for s in shares])
        backward = scheme.aggregate([(s, 1) for s in reversed(shares)])
        assert forward.value == backward.value
        assert forward.multiplicities == backward.multiplicities

    def test_tampered_multiplicities_rejected(self, committee):
        aggregate = committee.scheme.aggregate(
            [(committee.sign(pid, MESSAGE), 1) for pid in range(5)]
        )
        tampered = AggregateSignature(
            value=aggregate.value,
            multiplicities={**aggregate.multiplicities, 5: 1},
        )
        assert not committee.verify_aggregate(tampered, MESSAGE)

    def test_dropped_signer_rejected(self, committee):
        aggregate = committee.scheme.aggregate(
            [(committee.sign(pid, MESSAGE), 1) for pid in range(5)]
        )
        reduced = dict(aggregate.multiplicities)
        reduced.pop(0)
        tampered = AggregateSignature(value=aggregate.value, multiplicities=reduced)
        assert not committee.verify_aggregate(tampered, MESSAGE)

    def test_foreign_value_type_rejected(self, committee):
        aggregate = AggregateSignature(value=b"not-hashsig", multiplicities={0: 1})
        assert not committee.verify_aggregate(aggregate, MESSAGE)

    def test_mismatched_value_type_raises_on_aggregate(self, committee):
        foreign = AggregateSignature(value=b"opaque", multiplicities={0: 1})
        with pytest.raises(TypeError):
            committee.scheme.aggregate([(foreign, 1)])


@pytest.mark.pairing
class TestSemanticsMatchBls:
    """hashsig must preserve the multiplicity algebra of BLS, the scheme it models."""

    def test_same_multiplicities_for_same_contributions(self, committee):
        other = Committee(BlsMultiSig(TOY_PARAMS), size=7, seed=13)
        contributions_a = [(committee.sign(pid, MESSAGE), 2) for pid in range(4)]
        contributions_b = [(other.sign(pid, MESSAGE), 2) for pid in range(4)]
        agg_a = committee.scheme.aggregate(contributions_a)
        agg_b = other.scheme.aggregate(contributions_b)
        assert agg_a.multiplicities == agg_b.multiplicities
        assert agg_a.signers == agg_b.signers
