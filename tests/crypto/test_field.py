"""Tests for the finite-field arithmetic underlying the BLS backend."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import Fp, Fp2, cube_root_of_unity
from repro.crypto.params import DEFAULT_PARAMS, TOY_PARAMS

P = TOY_PARAMS.p

elements = st.integers(min_value=0, max_value=P - 1)
nonzero = st.integers(min_value=1, max_value=P - 1)


class TestFp:
    def test_addition_and_subtraction(self):
        a, b = Fp(5, P), Fp(P - 3, P)
        assert (a + b) == Fp(2, P)
        assert (a - b) == Fp(8, P)
        assert (3 + a) == Fp(8, P)
        assert (3 - a) == Fp(-2, P)

    def test_multiplication_and_division(self):
        a = Fp(7, P)
        b = Fp(13, P)
        assert (a * b).value == 91
        assert ((a * b) / b) == a

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp(0, P).inverse()

    def test_pow_matches_builtin(self):
        a = Fp(1234567, P)
        assert (a ** 5).value == pow(1234567, 5, P)

    def test_mixing_fields_rejected(self):
        with pytest.raises(ValueError):
            Fp(1, P) + Fp(1, 7)

    def test_sqrt_roundtrip(self):
        a = Fp(9, P)
        root = (a * a).sqrt()
        assert root is not None
        assert root * root == a * a

    def test_sqrt_of_non_residue_is_none(self):
        # -1 is a non-residue because p = 3 (mod 4).
        assert Fp(-1, P).sqrt() is None
        assert not Fp(-1, P).is_square()

    def test_equality_with_int(self):
        assert Fp(5, P) == 5
        assert Fp(P + 5, P) == 5

    def test_int_and_repr(self):
        assert int(Fp(42, P)) == 42
        assert "Fp" in repr(Fp(42, P))

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, a, b, c):
        fa, fb, fc = Fp(a, P), Fp(b, P), Fp(c, P)
        assert (fa + fb) + fc == fa + (fb + fc)
        assert fa * (fb + fc) == fa * fb + fa * fc
        assert fa + fb == fb + fa
        assert fa * fb == fb * fa

    @given(a=nonzero)
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, a):
        fa = Fp(a, P)
        assert fa * fa.inverse() == Fp(1, P)


class TestFp2:
    def test_basic_arithmetic(self):
        x = Fp2(3, 4, P)
        y = Fp2(1, 2, P)
        assert x + y == Fp2(4, 6, P)
        assert x - y == Fp2(2, 2, P)
        # (3 + 4i)(1 + 2i) = 3 + 6i + 4i + 8i^2 = -5 + 10i
        assert x * y == Fp2(-5, 10, P)

    def test_i_squared_is_minus_one(self):
        i = Fp2(0, 1, P)
        assert i * i == Fp2(-1, 0, P)

    def test_conjugate_and_norm(self):
        x = Fp2(3, 4, P)
        assert x.conjugate() == Fp2(3, -4, P)
        assert x.norm() == 25

    def test_inverse(self):
        x = Fp2(3, 4, P)
        assert x * x.inverse() == Fp2.one(P)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp2.zero(P).inverse()

    def test_pow_and_negative_pow(self):
        x = Fp2(3, 4, P)
        assert x ** 3 == x * x * x
        assert x ** -1 == x.inverse()
        assert x ** 0 == Fp2.one(P)

    def test_coercion_from_fp_and_int(self):
        x = Fp2(3, 4, P)
        assert x + 1 == Fp2(4, 4, P)
        assert x * Fp(2, P) == Fp2(6, 8, P)

    def test_is_zero_is_one(self):
        assert Fp2.zero(P).is_zero()
        assert Fp2.one(P).is_one()

    @given(a0=elements, a1=elements, b0=elements, b1=elements)
    @settings(max_examples=50, deadline=None)
    def test_multiplication_commutes_and_norm_multiplicative(self, a0, a1, b0, b1):
        x = Fp2(a0, a1, P)
        y = Fp2(b0, b1, P)
        assert x * y == y * x
        assert (x * y).norm() == (x.norm() * y.norm()) % P

    @given(a0=elements, a1=elements)
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, a0, a1):
        x = Fp2(a0, a1, P)
        if x.is_zero():
            return
        assert x * x.inverse() == Fp2.one(P)


@pytest.mark.parametrize("p", [TOY_PARAMS.p, DEFAULT_PARAMS.p], ids=["toy128", "ss512"])
class TestEuclideanInversion:
    """``pow(x, -1, p)`` replaced Fermat's ``x^(p-2)``: same values, same errors."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fp_inverse_is_the_fermat_value(self, p, data):
        a = data.draw(st.integers(min_value=1, max_value=p - 1))
        assert Fp(a, p).inverse().value == pow(a, p - 2, p)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_fp2_inverse_is_the_fermat_value(self, p, data):
        coordinate = st.integers(min_value=0, max_value=p - 1)
        x = Fp2(data.draw(coordinate), data.draw(coordinate), p)
        if x.is_zero():
            return
        inv_norm = pow(x.norm(), p - 2, p)
        assert x.inverse() == Fp2(x.c0 * inv_norm, -x.c1 * inv_norm, p)

    def test_zero_raises_zero_division_error(self, p):
        # pow(0, -1, p) itself raises a bare ValueError; callers must not see it.
        for zero in (Fp(0, p), Fp(p, p), Fp2.zero(p)):
            with pytest.raises(ZeroDivisionError):
                zero.inverse()
        with pytest.raises(ZeroDivisionError):
            Fp(1, p) / Fp(0, p)
        with pytest.raises(ZeroDivisionError):
            Fp2.one(p) / Fp2.zero(p)


class TestCubeRootOfUnity:
    def test_is_primitive_cube_root(self):
        zeta = cube_root_of_unity(P)
        assert zeta != Fp2.one(P)
        assert zeta * zeta * zeta == Fp2.one(P)

    def test_sum_of_roots_is_minus_one(self):
        zeta = cube_root_of_unity(P)
        assert zeta * zeta + zeta + 1 == Fp2.zero(P)
