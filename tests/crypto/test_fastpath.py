"""Property tests pinning the Jacobian/wNAF fast path to the affine reference.

The fast scalar-multiplication core (Jacobian coordinates, wNAF windows,
fixed-base tables, the signing comb) must be *bit-identical* to the
schoolbook affine double-and-add it replaced — same canonical affine
coordinates for every scalar and point, not merely the same group element
up to representation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import (
    Point,
    comb_mult,
    generator,
    hash_to_point,
)
from repro.crypto.multisig import AggregateSignature
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS
from scalar_reference import reference_scalar_mult

G = generator(TOY_PARAMS)
R = TOY_PARAMS.r

scalars = st.integers(min_value=0, max_value=2 * R)
signed_scalars = st.integers(min_value=-2 * R, max_value=2 * R)
base_scalars = st.integers(min_value=1, max_value=R - 1)


def assert_same_point(fast: Point, reference: Point) -> None:
    assert fast == reference
    if not fast.is_infinity:
        # Bit-identical canonical affine coordinates, not just group equality.
        assert fast.x.value == reference.x.value
        assert fast.y.value == reference.y.value
        assert fast.to_bytes() == reference.to_bytes()


class TestJacobianMatchesAffineReference:
    @given(k=scalars)
    @settings(max_examples=60, deadline=None)
    def test_fixed_base_path(self, k):
        assert_same_point(G * k, reference_scalar_mult(G, k))

    @given(a=base_scalars, k=scalars)
    @settings(max_examples=60, deadline=None)
    def test_variable_point_path(self, a, k):
        point = reference_scalar_mult(G, a)
        assert_same_point(point * k, reference_scalar_mult(point, k))

    @given(k=signed_scalars)
    @settings(max_examples=40, deadline=None)
    def test_negative_scalars(self, k):
        assert_same_point(G * k, reference_scalar_mult(G, k))

    @given(message=st.binary(min_size=0, max_size=64), k=base_scalars)
    @settings(max_examples=20, deadline=None)
    def test_hashed_points(self, message, k):
        point = hash_to_point(message, TOY_PARAMS)
        assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_edge_scalars(self):
        for k in (0, 1, 2, 3, R - 1, R, R + 1, 2 * R - 1, 2 * R, 2 * R + 1):
            assert_same_point(G * k, reference_scalar_mult(G, k))

    def test_cofactor_sized_scalar(self):
        point = reference_scalar_mult(G, 7)
        k = TOY_PARAMS.cofactor  # larger than r: exercises long wNAF chains
        assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_order_two_point(self):
        # (-1, 0) is the 2-torsion point of y^2 = x^3 + 1.
        two_torsion = Point.from_ints(TOY_PARAMS.p - 1, 0, TOY_PARAMS)
        assert two_torsion.is_on_curve()
        for k in range(5):
            assert_same_point(
                two_torsion * k, reference_scalar_mult(two_torsion, k)
            )

    def test_small_odd_order_points(self):
        # (0, +-1) has order 3 on y^2 = x^3 + 1 for every p = 2 (mod 3);
        # its odd multiples hit infinity, which the wNAF tables cannot
        # represent (regression: the table was silently corrupted).
        for y in (1, TOY_PARAMS.p - 1):
            point = Point.from_ints(0, y, TOY_PARAMS)
            assert point.is_on_curve()
            assert (point * 3).is_infinity
            for k in range(8):
                assert_same_point(point * k, reference_scalar_mult(point, k))

    def test_small_order_times_large_scalar(self):
        point = Point.from_ints(0, 1, TOY_PARAMS)
        for k in (R, R + 1, TOY_PARAMS.cofactor):
            assert_same_point(point * k, reference_scalar_mult(point, k))


@pytest.mark.heavy_crypto
class TestFastPathFullParams:
    """Same pinning on the production 512-bit curve (opt-in, slow)."""

    @given(k=st.integers(min_value=0, max_value=2 * DEFAULT_PARAMS.r))
    @settings(max_examples=10, deadline=None)
    def test_fixed_base_matches_reference(self, k):
        g_full = generator(DEFAULT_PARAMS)
        assert_same_point(g_full * k, reference_scalar_mult(g_full, k))

    def test_sign_verify_roundtrip(self):
        scheme = BlsMultiSig(DEFAULT_PARAMS)
        pair = scheme.keygen(99)
        share = scheme.sign(pair.secret_key, b"full-params-message", 0)
        assert scheme.verify_share(share, b"full-params-message", pair.public_key)


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(TOY_PARAMS, id="toy128"),
        pytest.param(DEFAULT_PARAMS, id="ss512", marks=pytest.mark.heavy_crypto),
    ],
)
class TestCombSigning:
    """A signature through the per-message comb is exactly ``H(m) * sk``."""

    @given(sk=st.integers(min_value=0, max_value=2**160))
    @settings(max_examples=20, deadline=None)
    def test_random_keys(self, params, sk):
        scheme = BlsMultiSig(params)
        sk %= params.r
        hashed = hash_to_point(b"comb-random", params)
        assert_same_point(scheme.sign(sk, b"comb-random", 0).value, hashed * sk)

    def test_edge_keys(self, params):
        scheme = BlsMultiSig(params)
        hashed = hash_to_point(b"comb-edge", params)
        for sk in (0, 1, params.r - 1):
            share = scheme.sign(sk, b"comb-edge", 0)
            assert_same_point(share.value, hashed * sk)
            assert_same_point(share.value, reference_scalar_mult(hashed, sk))

    def test_scalars_the_comb_does_not_cover(self, params):
        hashed = hash_to_point(b"comb-range", params)
        for k in (-1, -params.r, 1 << (4 * -(-params.r.bit_length() // 4)), 3 * params.r):
            assert_same_point(comb_mult(hashed, k), hashed * k)
        order3 = Point.from_ints(0, 1, params)  # its tooth sums reach O
        for k in range(7):
            assert_same_point(comb_mult(order3, k), reference_scalar_mult(order3, k))


@pytest.mark.pairing
class TestVerificationMemo:
    """What is memoised once no lone pairing is: verified aggregates only."""

    def test_repeated_verify_share_is_idempotent(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        pair, other = scheme.keygen(5), scheme.keygen(6)
        share = scheme.sign(pair.secret_key, b"again", 0)
        for _ in range(3):
            assert scheme.verify_share(share, b"again", pair.public_key)
            assert not scheme.verify_share(share, b"again", other.public_key)
            assert not scheme.verify_share(share, b"other", pair.public_key)
        # Share checks leave nothing behind: the aggregate memo is the only
        # verification memo, and it is keyed on aggregates.
        assert not scheme._aggregate_cache

    def test_aggregate_memo_bounded(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        scheme.MEMO_MAX = 4
        pair = scheme.keygen(5)
        public = {0: pair.public_key}
        for i in range(6):
            message = b"m%d" % i
            aggregate = scheme.aggregate([scheme.sign(pair.secret_key, message, 0)])
            assert scheme.verify_aggregate(aggregate, message, public)
            assert len(scheme._aggregate_cache) <= 4

    def test_failure_recorded_only_for_the_forged_key(self):
        scheme = BlsMultiSig(TOY_PARAMS)
        pairs = {pid: scheme.keygen(40 + pid) for pid in range(3)}
        public = {pid: pair.public_key for pid, pair in pairs.items()}
        message = b"qc"
        honest = scheme.aggregate(
            [scheme.sign(pair.secret_key, message, pid) for pid, pair in pairs.items()]
        )
        forged = AggregateSignature(
            value=honest.value + G, multiplicities=dict(honest.multiplicities)
        )
        assert not scheme.verify_aggregate(forged, message, public)
        assert scheme.verify_aggregate(honest, message, public)
        memo = scheme._aggregate_cache
        assert memo[scheme._aggregate_key(forged, message, public)] is False
        assert memo[scheme._aggregate_key(honest, message, public)] is True
        assert len(memo) == 2
        # Served from the memo, the outcomes do not change.
        assert not scheme.verify_aggregate(forged, message, public)
        assert scheme.verify_aggregate(honest, message, public)
