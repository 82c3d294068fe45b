"""Tests for the curve parameters: the fixed constants and their checks."""

import random

import pytest

from repro.crypto.curve import generator
from repro.crypto.params import CurveParams, DEFAULT_PARAMS, TOY_PARAMS


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with ``rounds`` seeded random bases; for the sizes
    checked here the error probability is negligible (< 2^-80)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % small == 0:
            return n == small
    rng = random.Random(0xC0FFEE ^ (n & 0xFFFFFFFF))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


class TestPrimality:
    def test_small_primes(self):
        for prime in [2, 3, 5, 7, 11, 13, 101, 7919]:
            assert is_probable_prime(prime)

    def test_small_composites(self):
        for composite in [0, 1, 4, 9, 15, 100, 561, 7917]:
            assert not is_probable_prime(composite)

    def test_carmichael_number_rejected(self):
        # 561 = 3 * 11 * 17 is the smallest Carmichael number.
        assert not is_probable_prime(561)
        assert not is_probable_prime(41041)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_default_params_are_prime(self):
        assert is_probable_prime(DEFAULT_PARAMS.p)
        assert is_probable_prime(DEFAULT_PARAMS.r)

    def test_toy_params_are_prime(self):
        assert is_probable_prime(TOY_PARAMS.p)
        assert is_probable_prime(TOY_PARAMS.r)


class TestCurveParams:
    def test_default_congruences(self):
        assert DEFAULT_PARAMS.p % 3 == 2
        assert DEFAULT_PARAMS.p % 4 == 3

    def test_toy_congruences(self):
        assert TOY_PARAMS.p % 3 == 2
        assert TOY_PARAMS.p % 4 == 3

    def test_cofactor_relation(self):
        assert DEFAULT_PARAMS.cofactor * DEFAULT_PARAMS.r == DEFAULT_PARAMS.p + 1
        assert TOY_PARAMS.cofactor * TOY_PARAMS.r == TOY_PARAMS.p + 1

    def test_rejects_bad_congruence(self):
        with pytest.raises(ValueError):
            CurveParams(p=13, r=7, cofactor=2, gx=1, gy=1)

    def test_rejects_wrong_cofactor(self):
        with pytest.raises(ValueError):
            CurveParams(p=TOY_PARAMS.p, r=TOY_PARAMS.r, cofactor=TOY_PARAMS.cofactor + 1,
                        gx=TOY_PARAMS.gx, gy=TOY_PARAMS.gy)

    def test_security_bits(self):
        assert DEFAULT_PARAMS.security_bits == DEFAULT_PARAMS.r.bit_length() // 2
        assert TOY_PARAMS.security_bits < DEFAULT_PARAMS.security_bits

    def test_generator_on_curve(self):
        for params in (DEFAULT_PARAMS, TOY_PARAMS):
            lhs = params.gy * params.gy % params.p
            rhs = (params.gx ** 3 + 1) % params.p
            assert lhs == rhs

    def test_generator_has_order_r(self):
        for params in (DEFAULT_PARAMS, TOY_PARAMS):
            assert generator(params).has_order_r()
