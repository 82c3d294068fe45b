"""Tests for the Tate pairing (bilinearity is what BLS verification rests on).

``tate_pairing`` computes one reduced pairing value and is the reference;
``tate_check`` is the fused verification equation the signature scheme
calls, and must decide ``e(a1, b1) == e(a2, b2)`` exactly as two reference
pairings would, on every input including the degenerate ones.  Its cached
ladders hold lines only, one step per digit of the NAF of ``r``.
"""

import functools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bls import BlsMultiSig
from repro.crypto.curve import Point, generator, hash_to_point
from repro.crypto.field import Fp
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.crypto import pairing
from repro.crypto.pairing import _ladder, _naf_digits, tate_check, tate_pairing
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS

pytestmark = pytest.mark.pairing

G = generator(TOY_PARAMS)
R = TOY_PARAMS.r

small_scalars = st.integers(min_value=1, max_value=200)


class TestTatePairing:
    def test_non_degenerate(self):
        assert not tate_pairing(G, G).is_one()

    def test_result_has_order_r(self):
        value = tate_pairing(G, G)
        assert (value ** R).is_one()

    def test_bilinearity_left(self):
        base = tate_pairing(G, G)
        assert tate_pairing(G * 3, G) == base ** 3

    def test_bilinearity_right(self):
        base = tate_pairing(G, G)
        assert tate_pairing(G, G * 5) == base ** 5

    def test_bilinearity_both(self):
        base = tate_pairing(G, G)
        assert tate_pairing(G * 4, G * 6) == base ** 24

    def test_symmetry_of_exponents(self):
        assert tate_pairing(G * 3, G * 7) == tate_pairing(G * 7, G * 3)

    def test_infinity_maps_to_one(self):
        infinity = Point.infinity(TOY_PARAMS)
        assert tate_pairing(infinity, G).is_one()
        assert tate_pairing(G, infinity).is_one()

    def test_inverse_relationship(self):
        # e(-P, Q) = e(P, Q)^-1
        lhs = tate_pairing(-G, G)
        rhs = tate_pairing(G, G)
        assert (lhs * rhs).is_one()

    @given(a=small_scalars, b=small_scalars)
    @settings(max_examples=10, deadline=None)
    def test_bilinearity_property(self, a, b):
        assert tate_pairing(G * a, G * b) == tate_pairing(G, G) ** (a * b)


# TOY_PARAMS in tier-1; the weekly heavy-crypto job runs the same classes at ss512.
CURVES = [
    pytest.param(TOY_PARAMS, id="toy128"),
    pytest.param(DEFAULT_PARAMS, id="ss512", marks=pytest.mark.heavy_crypto),
]


@functools.lru_cache(maxsize=None)
def _fixed_points(params):
    """The named points the strategies below scale, negate and mix."""
    x = 2
    while True:  # an on-curve point whose order does not divide r
        y = (Fp(x, params.p) ** 3 + 1).sqrt()
        if y is not None:
            off_subgroup = Point(Fp(x, params.p), y, params)
            if not (off_subgroup * params.r).is_infinity:
                break
        x += 1
    return SimpleNamespace(
        G=generator(params),
        H=hash_to_point(b"equivalence", params),
        identity=Point.infinity(params),
        order3=Point.from_ints(0, 1, params),
        off_subgroup=off_subgroup,
    )


def _build(spec, params):
    kind, k, negate = spec
    fixed = _fixed_points(params)
    if kind in ("G", "H"):
        point = getattr(fixed, kind) * (k % (params.r - 1) + 1)
    elif kind == "off_subgroup":
        point = fixed.off_subgroup * (k % 4 + 1)
    else:
        point = getattr(fixed, kind)
    return -point if negate else point


big_scalars = st.integers(min_value=0, max_value=2**160)


def specs(*kinds):
    return st.tuples(st.sampled_from(kinds), big_scalars, st.booleans())


subgroup_specs = specs("G", "H")
any_specs = specs("G", "H", "identity", "order3", "off_subgroup")


def assert_equivalent(a1, b1, a2, b2):
    """``tate_check`` decides, or fails, exactly as two pairings would."""
    try:
        expected = tate_pairing(a1, b1) == tate_pairing(a2, b2)
    except ZeroDivisionError:
        # A Miller line vanishes at an argument (only with the order-3 point
        # in play): the fused loop must refuse the same inputs.
        with pytest.raises(ZeroDivisionError):
            tate_check(a1, b1, a2, b2)
        return None
    assert tate_check(a1, b1, a2, b2) is expected
    return expected


@pytest.mark.parametrize("params", CURVES)
class TestTateCheckEquivalence:
    @given(a=subgroup_specs, b=subgroup_specs, c=subgroup_specs, d=subgroup_specs)
    @settings(max_examples=30, deadline=None)
    def test_unrelated_subgroup_points(self, params, a, b, c, d):
        assert_equivalent(*(_build(spec, params) for spec in (a, b, c, d)))

    @given(a=big_scalars, b=big_scalars, c=big_scalars, negate=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_balanced_exponents_accept(self, params, a, b, c, negate):
        # e(aG, bH) == e(cH, dG) exactly when ab == cd (mod r).
        fixed, r = _fixed_points(params), params.r
        a, b, c = (k % (r - 1) + 1 for k in (a, b, c))
        d = a * b * pow(c, -1, r) % r
        left, right = (fixed.G * a, fixed.H * b), (fixed.H * c, fixed.G * d)
        if negate:  # both sides inverted: still equal
            left, right = (-left[0], left[1]), (right[0], -right[1])
        assert assert_equivalent(*left, *right) is True
        assert assert_equivalent(*left, right[0], -right[1]) is False
        assert assert_equivalent(*left, right[0], right[1] + fixed.G) is False

    @given(a=subgroup_specs, b=subgroup_specs)
    @settings(max_examples=15, deadline=None)
    def test_equal_and_swapped_sides(self, params, a, b):
        a, b = _build(a, params), _build(b, params)
        assert assert_equivalent(a, b, a, b) is True
        assert assert_equivalent(a, b, b, a) is True  # the pairing is symmetric

    @pytest.mark.parametrize("slot", range(4))
    @given(a=subgroup_specs, b=subgroup_specs, c=subgroup_specs, d=subgroup_specs)
    @settings(max_examples=8, deadline=None)
    def test_identity_in_each_slot(self, params, slot, a, b, c, d):
        points = [_build(spec, params) for spec in (a, b, c, d)]
        points[slot] = _fixed_points(params).identity
        assert assert_equivalent(*points) is False
        points[slot ^ 2] = points[slot]  # 1 == 1
        assert assert_equivalent(*points) is True

    @pytest.mark.parametrize("kind", ["order3", "off_subgroup"])
    @pytest.mark.parametrize("slot", range(4))
    @given(a=subgroup_specs, b=subgroup_specs, c=subgroup_specs, d=subgroup_specs)
    @settings(max_examples=8, deadline=None)
    def test_point_outside_the_subgroup_in_each_slot(self, params, kind, slot, a, b, c, d):
        points = [_build(spec, params) for spec in (a, b, c, d)]
        points[slot] = getattr(_fixed_points(params), kind)
        assert_equivalent(*points)

    @given(a=any_specs, b=any_specs, c=any_specs, d=any_specs)
    @settings(max_examples=60, deadline=None)
    def test_any_mixture(self, params, a, b, c, d):
        assert_equivalent(*(_build(spec, params) for spec in (a, b, c, d)))

    def test_order3_against_itself_raises_like_the_reference(self, params):
        fixed = _fixed_points(params)
        with pytest.raises(ZeroDivisionError):
            tate_pairing(fixed.order3, fixed.order3)
        assert assert_equivalent(fixed.order3, fixed.order3, fixed.G, fixed.H) is None


@pytest.mark.parametrize("params", CURVES)
class TestLinesOnlyLadder:
    def test_ladder_holds_lines_along_the_naf_of_r(self, params):
        """Each step is a tangent ``(lam, mu)``, plus a chord on a nonzero
        digit; every line ``y = lam*x + mu`` passes through the running
        multiple it was built at, so none of them is a vertical."""
        fixed = _fixed_points(params)
        digits = _naf_digits(params.r)
        for point in (fixed.G, fixed.H):
            steps = _ladder(point, params)
            assert len(steps) == len(digits) - 1
            # The leading digit starts the walk; the last one's chord is the
            # vertical that ends it at O, and is dropped.
            assert [len(step) for step in steps] == [
                4 if d and index < len(digits) - 2 else 2
                for index, d in enumerate(digits[1:])
            ]
            k = 1
            for step, d in zip(steps, digits[1:]):
                on_line = [point * k]
                k *= 2
                if len(step) == 4:
                    on_line.append(point * d)
                for (lam, mu), at in zip((step[:2], step[2:]), on_line):
                    assert at.y.value == (lam * at.x.value + mu) % params.p
                k += d
            assert k == params.r

    def test_first_argument_outside_the_subgroup_takes_the_reference_path(
        self, params, monkeypatch
    ):
        fixed = _fixed_points(params)
        x = 3
        while True:  # a point whose NAF walk runs to the end without reaching O
            y = (Fp(x, params.p) ** 3 + 1).sqrt()
            if y is not None:
                wide = Point(Fp(x, params.p), y, params)
                if not (wide * params.r).is_infinity and not (wide * params.cofactor).is_infinity:
                    break
            x += 1
        references = []
        monkeypatch.setattr(
            pairing, "tate_pairing", lambda a, b: references.append(a) or tate_pairing(a, b)
        )
        for outside in (wide, fixed.off_subgroup):
            assert _ladder(outside, params) == ()
            for b1, a2, b2 in ((fixed.G, fixed.H, fixed.G), (fixed.H * 5, outside, fixed.H * 5)):
                references.clear()
                expected = tate_pairing(outside, b1) == tate_pairing(a2, b2)
                assert tate_check(outside, b1, a2, b2) is expected
                assert len(references) == 2


@pytest.mark.parametrize("params", CURVES)
class TestVerificationNegatives:
    """Forged share, wrong message, wrong key: through the scheme's two verifiers."""

    MESSAGE = b"vote|block-9|4|2"

    def test_verify_share(self, params):
        scheme = BlsMultiSig(params)
        pair, other = scheme.keygen(11), scheme.keygen(12)
        share = scheme.sign(pair.secret_key, self.MESSAGE, 0)
        assert scheme.verify_share(share, self.MESSAGE, pair.public_key)
        forged = SignatureShare(signer=0, value=share.value + generator(params))
        assert not scheme.verify_share(forged, self.MESSAGE, pair.public_key)
        assert not scheme.verify_share(
            SignatureShare(signer=0, value=-share.value), self.MESSAGE, pair.public_key
        )
        assert not scheme.verify_share(share, b"another block", pair.public_key)
        assert not scheme.verify_share(share, self.MESSAGE, other.public_key)
        assert not scheme.verify_share(
            SignatureShare(signer=0, value=Point.from_ints(0, 1, params)),
            self.MESSAGE,
            pair.public_key,
        )

    @pytest.mark.parametrize("multiplicity", [1, 2])
    def test_verify_aggregate(self, params, multiplicity):
        scheme = BlsMultiSig(params)
        pairs = {pid: scheme.keygen(20 + pid) for pid in range(4)}
        public = {pid: pair.public_key for pid, pair in pairs.items()}
        shares = {
            pid: scheme.sign(pair.secret_key, self.MESSAGE, pid) for pid, pair in pairs.items()
        }
        weights = {0: multiplicity, 1: 1, 2: multiplicity}
        honest = scheme.aggregate([(shares[pid], weight) for pid, weight in weights.items()])
        assert honest.multiplicities == weights
        assert scheme.verify_aggregate(honest, self.MESSAGE, public)

        forged_share = SignatureShare(signer=1, value=shares[1].value + generator(params))
        forged = scheme.aggregate(
            [(forged_share if pid == 1 else shares[pid], weight) for pid, weight in weights.items()]
        )
        assert not scheme.verify_aggregate(forged, self.MESSAGE, public)
        assert not scheme.verify_aggregate(honest, b"another block", public)
        swapped = dict(public)
        swapped[2] = public[3]
        assert not scheme.verify_aggregate(honest, self.MESSAGE, swapped)
        miscounted = AggregateSignature(
            value=honest.value, multiplicities={**weights, 0: multiplicity + 1}
        )
        assert not scheme.verify_aggregate(miscounted, self.MESSAGE, public)
