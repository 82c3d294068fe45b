"""Tests for the multi-signature interface helpers and registry."""

import pytest

from repro.crypto.bls import BlsMultiSig
from repro.crypto.multisig import (
    AggregateSignature,
    HashSigMultiSig,
    SignatureShare,
    combined_multiplicities,
    get_scheme,
    normalize_contributions,
    scheme_names,
)
from repro.crypto.params import TOY_PARAMS


class TestCombinedMultiplicities:
    def test_shares_count_once_per_weight(self):
        shares = [SignatureShare(signer=0, value=b"a"), SignatureShare(signer=1, value=b"b")]
        result = combined_multiplicities([(shares[0], 2), (shares[1], 1)])
        assert result == {0: 2, 1: 1}

    def test_aggregates_scaled_by_weight(self):
        aggregate = AggregateSignature(value=b"x", multiplicities={0: 2, 1: 1})
        result = combined_multiplicities([(aggregate, 3)])
        assert result == {0: 6, 1: 3}

    def test_mixed_contributions(self):
        aggregate = AggregateSignature(value=b"x", multiplicities={0: 2})
        share = SignatureShare(signer=0, value=b"a")
        assert combined_multiplicities([(aggregate, 1), (share, 1)]) == {0: 3}

    def test_rejects_non_positive_weight(self):
        share = SignatureShare(signer=0, value=b"a")
        with pytest.raises(ValueError):
            combined_multiplicities([(share, 0)])

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            combined_multiplicities([("not-a-share", 1)])

    def test_accepts_bare_shares_and_aggregates(self):
        share = SignatureShare(signer=0, value=b"a")
        aggregate = AggregateSignature(value=b"x", multiplicities={1: 2})
        assert combined_multiplicities([share, aggregate]) == {0: 1, 1: 2}

    def test_mixed_bare_and_weighted(self):
        share = SignatureShare(signer=0, value=b"a")
        assert combined_multiplicities([share, (share, 3)]) == {0: 4}


class TestNormalizeContributions:
    def test_bare_items_get_weight_one(self):
        share = SignatureShare(signer=0, value=b"a")
        aggregate = AggregateSignature(value=b"x", multiplicities={1: 1})
        assert normalize_contributions([share, aggregate]) == [(share, 1), (aggregate, 1)]

    def test_pairs_pass_through(self):
        share = SignatureShare(signer=0, value=b"a")
        assert normalize_contributions([(share, 5)]) == [(share, 5)]

    def test_rejects_non_integer_weight(self):
        share = SignatureShare(signer=0, value=b"a")
        with pytest.raises(TypeError):
            normalize_contributions([(share, 1.5)])

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            normalize_contributions([42])


class TestAggregateAcceptsBareShares:
    """Regression: ``aggregate()`` used to crash on iterables of bare shares."""

    def test_bls_aggregate_bare_shares(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        keys = {pid: scheme.keygen(pid) for pid in range(3)}
        message = b"bare-shares"
        shares = [scheme.sign(pair.secret_key, message, pid) for pid, pair in keys.items()]
        aggregate = scheme.aggregate(shares)  # no (share, weight) pairs
        assert aggregate.multiplicities == {0: 1, 1: 1, 2: 1}
        public = {pid: pair.public_key for pid, pair in keys.items()}
        assert scheme.verify_aggregate(aggregate, message, public)
        # Equivalent to the explicit weight-one form.
        explicit = scheme.aggregate([(share, 1) for share in shares])
        assert aggregate.value == explicit.value

    def test_bls_aggregate_mixed_inputs(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        keys = {pid: scheme.keygen(pid) for pid in range(3)}
        message = b"mixed"
        shares = [scheme.sign(pair.secret_key, message, pid) for pid, pair in keys.items()]
        inner = scheme.aggregate([shares[0], (shares[1], 2)])
        aggregate = scheme.aggregate([inner, shares[2]])
        assert aggregate.multiplicities == {0: 1, 1: 2, 2: 1}
        public = {pid: pair.public_key for pid, pair in keys.items()}
        assert scheme.verify_aggregate(aggregate, message, public)

    def test_hash_backends_aggregate_bare_shares(self):
        scheme = HashSigMultiSig()
        keys = {pid: scheme.keygen(pid) for pid in range(3)}
        message = b"bare-shares"
        shares = [scheme.sign(pair.secret_key, message, pid) for pid, pair in keys.items()]
        aggregate = scheme.aggregate(shares)
        assert aggregate.multiplicities == {0: 1, 1: 1, 2: 1}
        public = {pid: pair.public_key for pid, pair in keys.items()}
        assert scheme.verify_aggregate(aggregate, message, public)


class TestAggregateSignature:
    def test_signers_excludes_zero_multiplicity(self):
        aggregate = AggregateSignature(value=b"x", multiplicities={0: 2, 1: 0})
        assert aggregate.signers == frozenset({0})

    def test_contains_and_len(self):
        aggregate = AggregateSignature(value=b"x", multiplicities={0: 2, 3: 1})
        assert 0 in aggregate
        assert 3 in aggregate
        assert 5 not in aggregate
        assert len(aggregate) == 2

    def test_multiplicity_lookup(self):
        aggregate = AggregateSignature(value=b"x", multiplicities={7: 4})
        assert aggregate.multiplicity(7) == 4
        assert aggregate.multiplicity(8) == 0


class TestSchemeRegistry:
    def test_get_hash_scheme(self):
        # BLS and hashsig, its fast algebraic model; nothing answers to "hash".
        assert scheme_names() == ["bls", "hashsig"]
        with pytest.raises(KeyError, match="known: bls, hashsig"):
            get_scheme("hash")

    def test_get_hashsig_scheme(self):
        assert isinstance(get_scheme("hashsig"), HashSigMultiSig)

    def test_get_bls_scheme(self):
        from repro.crypto.params import TOY_PARAMS

        scheme = get_scheme("bls", params=TOY_PARAMS)
        assert isinstance(scheme, BlsMultiSig)
        assert scheme.params is TOY_PARAMS

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            get_scheme("quantum")
