"""Tests for elliptic-curve group operations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import (
    Point,
    _batch_to_affine,
    distortion_map,
    generator,
    hash_to_point,
    weighted_sum,
)
from repro.crypto.field import Fp2
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS
from scalar_reference import reference_scalar_mult

G = generator(TOY_PARAMS)
R = TOY_PARAMS.r

scalars = st.integers(min_value=1, max_value=R - 1)


class TestGroupLaw:
    def test_generator_on_curve_and_order(self):
        assert G.is_on_curve()
        assert G.has_order_r()

    def test_identity_element(self):
        infinity = Point.infinity(TOY_PARAMS)
        assert (G + infinity) == G
        assert (infinity + G) == G
        assert infinity.is_on_curve()

    def test_inverse_element(self):
        assert (G + (-G)).is_infinity
        assert (G - G).is_infinity

    def test_doubling_matches_addition(self):
        assert (G + G) == G * 2

    def test_scalar_multiplication_distributes(self):
        assert G * 5 == G * 2 + G * 3

    def test_negative_scalar(self):
        assert G * -3 == -(G * 3)

    def test_order_annihilates(self):
        assert (G * R).is_infinity
        assert (G * (R + 1)) == G

    def test_zero_scalar(self):
        assert (G * 0).is_infinity

    def test_points_hashable_and_equal(self):
        assert hash(G * 2) == hash(G + G)
        assert len({G, G * 2, G + G}) == 2

    def test_to_bytes_distinct(self):
        assert G.to_bytes() != (G * 2).to_bytes()
        assert Point.infinity(TOY_PARAMS).to_bytes() != G.to_bytes()

    @given(a=scalars, b=scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_mult_homomorphism(self, a, b):
        assert G * a + G * b == G * ((a + b) % R)

    @given(a=scalars)
    @settings(max_examples=25, deadline=None)
    def test_subgroup_membership(self, a):
        point = G * a
        assert point.is_on_curve()
        assert (point * R).is_infinity


@pytest.mark.parametrize("params", [TOY_PARAMS, DEFAULT_PARAMS], ids=["toy128", "ss512"])
class TestBatchToAffine:
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_fermat_normalisation(self, params, data):
        p = params.p
        jacobian, expected = [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            point = generator(params) * data.draw(st.integers(min_value=1, max_value=params.r - 1))
            z = data.draw(st.integers(min_value=1, max_value=p - 1))
            X, Y = point.x.value * z * z % p, point.y.value * z * z * z % p
            jacobian.append((X, Y, z))
            z_inv = pow(z, p - 2, p)
            expected.append((X * z_inv * z_inv % p, Y * z_inv * z_inv * z_inv % p))
            assert expected[-1] == (point.x.value, point.y.value)
        assert _batch_to_affine(jacobian, p) == expected

    def test_infinity_input_raises_zero_division_error(self, params):
        # Fermat's 0^(p-2) == 0 silently produced the "point" (0, 0) here.
        G = generator(params)
        finite = (G.x.value, G.y.value, 1)
        for points in ([(1, 1, 0)], [finite, (1, 1, 0)], [(1, 1, params.p), finite]):
            with pytest.raises(ZeroDivisionError):
                _batch_to_affine(points, params.p)


def _affine_sum(terms):
    """The reference: affine double-and-add multiples, affine additions."""
    total = Point.infinity(TOY_PARAMS)
    for point, weight in terms:
        total = total + reference_scalar_mult(point, weight)
    return total


def _assert_same_point(fast, reference):
    assert fast == reference
    assert fast.to_bytes() == reference.to_bytes()


class TestJacobianSums:
    """``weighted_sum`` and its two callers against the affine sum, bit for bit."""

    H = hash_to_point(b"sums", TOY_PARAMS)
    CASES = {
        "distinct": [(G * 3, 1), (H * 5, 1), (G * 11, 1)],
        "repeated point (doubling branch)": [(G * 3, 1), (H, 1), (G * 3, 1), (H, 1)],
        "point and its negation": [(G * 7, 1), (-(G * 7), 1)],
        "negation then more": [(H, 1), (-H, 1), (G * 2, 1)],
        "multiplicity > 1": [(G * 3, 2), (H * 5, 1), (G * 9, 5)],
        "multiplicity cancelling": [(G, 4), (-(G * 4), 1)],
        "weights far beyond a multiplicity": [(G * 3, R - 1), (H, 2**70 + 5), (G, R + 2)],
        "single": [(H, 1)],
        "empty": [],
    }

    @pytest.mark.parametrize("terms", CASES.values(), ids=CASES.keys())
    def test_named_cases(self, terms):
        reference = _affine_sum(terms)
        _assert_same_point(weighted_sum(terms, TOY_PARAMS), reference)
        if all(weight < 8 for _, weight in terms):  # the same sum, a unit at a time
            unit_terms = [(point, 1) for point, weight in terms for _ in range(weight)]
            _assert_same_point(weighted_sum(unit_terms, TOY_PARAMS), reference)

        scheme = BlsMultiSig(TOY_PARAMS)
        shares = [
            (SignatureShare(signer=pid, value=point), weight)
            for pid, (point, weight) in enumerate(terms)
        ]
        aggregate = scheme.aggregate(shares)
        _assert_same_point(aggregate.value, reference)

        # The same points as public keys, weighted by the same multiplicities.
        keys = {pid: point for pid, (point, _) in enumerate(terms)}
        claimed = AggregateSignature(value=G, multiplicities=dict(aggregate.multiplicities))
        _assert_same_point(scheme._weighted_key(claimed, keys), reference)

    def test_zero_weights_identity_terms_and_small_order_points(self):
        order3 = Point.from_ints(0, 1, TOY_PARAMS)
        order2 = Point.from_ints(TOY_PARAMS.p - 1, 0, TOY_PARAMS)
        infinity = Point.infinity(TOY_PARAMS)
        for terms in (
            [(G, 0), (self.H, 3), (infinity, 7)],
            [(order3, 1), (order3, 1), (order3, 1)],
            [(order3, 5), (G, 2), (order2, 3)],
            [(order2, 2)],
            [(infinity, 1)],
        ):
            _assert_same_point(weighted_sum(terms, TOY_PARAMS), _affine_sum(terms))

    @given(
        terms=st.lists(
            st.tuples(
                st.sampled_from(["G", "H"]),
                st.integers(min_value=-3, max_value=3).filter(bool),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_small_multiples_collide_often(self, terms):
        # Scalars in [-3, 3] make repeats and cancellations the common case.
        terms = [((G if base == "G" else self.H) * k, weight) for base, k, weight in terms]
        shares = [
            (SignatureShare(signer=pid, value=point), weight)
            for pid, (point, weight) in enumerate(terms)
        ]
        _assert_same_point(
            BlsMultiSig(TOY_PARAMS).aggregate(shares).value, _affine_sum(terms)
        )


class TestHashToPoint:
    def test_deterministic(self):
        assert hash_to_point(b"hello", TOY_PARAMS) == hash_to_point(b"hello", TOY_PARAMS)

    def test_different_messages_differ(self):
        assert hash_to_point(b"a", TOY_PARAMS) != hash_to_point(b"b", TOY_PARAMS)

    def test_domain_separation(self):
        assert hash_to_point(b"msg", TOY_PARAMS, domain=b"d1") != hash_to_point(
            b"msg", TOY_PARAMS, domain=b"d2"
        )

    def test_lands_in_prime_order_subgroup(self):
        for message in [b"", b"block-1", b"block-2", b"x" * 100]:
            point = hash_to_point(message, TOY_PARAMS)
            assert point.is_on_curve()
            assert (point * R).is_infinity
            assert not point.is_infinity


class TestDistortionMap:
    def test_image_is_on_curve(self):
        image = distortion_map(G)
        assert image.is_on_curve()
        assert isinstance(image.x, Fp2)

    def test_image_is_independent(self):
        # The distorted generator must not be a multiple of G (otherwise the
        # pairing would be degenerate); its x-coordinate leaves the base field.
        image = distortion_map(G)
        assert image != G
        assert image.x.c1 != 0

    def test_preserves_infinity(self):
        infinity = Point.infinity(TOY_PARAMS)
        assert distortion_map(infinity).is_infinity

    def test_commutes_with_scalar_multiplication(self):
        assert distortion_map(G * 7) == distortion_map(G) * 7
