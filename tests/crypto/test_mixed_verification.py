"""Tests for the hot-path verification primitives added for the live cluster.

Covers the trusted-aggregate memo seeding (``trust_aggregate``) and the
single-reduction pairing equality check (``tate_check``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import Point, generator, hash_to_point
from repro.crypto.multisig import AggregateSignature, get_scheme
from repro.crypto.params import TOY_PARAMS
from repro.crypto.pairing import tate_check, tate_pairing

MESSAGE = b"vote|deadbeef|7|6"


@pytest.fixture(scope="module")
def scheme():
    return BlsMultiSig(params=TOY_PARAMS)


@pytest.fixture(scope="module")
def keys(scheme):
    pairs = {pid: scheme.keygen(300 + pid) for pid in range(6)}
    return {pid: pair.public_key for pid, pair in pairs.items()}, {
        pid: pair.secret_key for pid, pair in pairs.items()
    }


def _share(scheme, secrets, pid, message=MESSAGE):
    return scheme.sign(secrets[pid], message, pid)


class TestTrustAggregate:
    def test_seeds_verified_memo(self, keys):
        public, secrets = keys
        scheme = BlsMultiSig(params=TOY_PARAMS)
        agg = scheme.aggregate(
            [(_share(scheme, secrets, 0), 1), (_share(scheme, secrets, 1), 1)]
        )
        scheme.trust_aggregate(agg, MESSAGE, public)
        cache_key = scheme._aggregate_key(agg, MESSAGE, public)
        assert scheme._aggregate_cache.get(cache_key) is True
        assert scheme.verify_aggregate(agg, MESSAGE, public)

    def test_malformed_aggregate_not_seeded(self, keys):
        public, secrets = keys
        scheme = BlsMultiSig(params=TOY_PARAMS)
        share = _share(scheme, secrets, 0)
        bogus = AggregateSignature(value=share.value, multiplicities={99: 1})
        scheme.trust_aggregate(bogus, MESSAGE, public)
        assert not scheme._aggregate_cache
        assert not scheme.verify_aggregate(bogus, MESSAGE, public)

    def test_hashsig_backend_no_op(self):
        scheme = get_scheme("hashsig")
        pair = scheme.keygen(1)
        share = scheme.sign(pair.secret_key, MESSAGE, 1)
        agg = scheme.aggregate([(share, 1)])
        # Seeds hashsig's own memo (see test_hashsig_memo.py); either way
        # verification still works.
        scheme.trust_aggregate(agg, MESSAGE, {1: pair.public_key})
        assert scheme.verify_aggregate(agg, MESSAGE, {1: pair.public_key})


class TestTateCheck:
    G = generator(TOY_PARAMS)

    def test_agrees_with_two_pairings_on_valid_signature(self):
        scheme = BlsMultiSig(params=TOY_PARAMS)
        pair = scheme.keygen(77)
        share = scheme.sign(pair.secret_key, MESSAGE, 77)
        h = hash_to_point(MESSAGE, TOY_PARAMS)
        assert tate_check(self.G, share.value, h, pair.public_key)
        assert tate_pairing(self.G, share.value) == tate_pairing(
            h, pair.public_key
        )

    def test_rejects_mismatched_pairs(self):
        a = hash_to_point(b"a", TOY_PARAMS)
        b = hash_to_point(b"b", TOY_PARAMS)
        assert not tate_check(self.G, a, self.G, b)
        assert tate_pairing(self.G, a) != tate_pairing(self.G, b)

    def test_bilinearity_shift(self):
        # e(G, k*P) == e(k*G, P) — the check must see through which side
        # carries the scalar.
        p = hash_to_point(b"shift", TOY_PARAMS)
        assert tate_check(self.G, p * 9, self.G * 9, p)

    def test_infinity_operands(self):
        inf = Point.infinity(TOY_PARAMS)
        p = hash_to_point(b"inf", TOY_PARAMS)
        # e(G, O) == 1 == e(O, P)
        assert tate_check(self.G, inf, inf, p)
        assert not tate_check(self.G, p, inf, p)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(min_value=1, max_value=TOY_PARAMS.r - 1))
    def test_matches_explicit_comparison(self, k):
        p = hash_to_point(b"prop", TOY_PARAMS)
        left = tate_pairing(self.G, p * k)
        right = tate_pairing(p, self.G * k)
        assert tate_check(self.G, p * k, p, self.G * k) == (left == right)
