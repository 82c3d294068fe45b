"""Finite-field arithmetic for the pairing-based signature backend.

Implements the prime field ``F_p`` and its quadratic extension
``F_{p^2} = F_p[i] / (i^2 + 1)`` (valid because ``p = 3 (mod 4)`` makes
``-1`` a quadratic non-residue).  Elements are small immutable objects
carrying their modulus, so code using them stays generic over parameter
sets.  Inversion is the extended-Euclid ``pow(x, -1, p)``, an order of
magnitude cheaper than Fermat's ``x^(p-2)``; inverting zero raises
:class:`ZeroDivisionError`.
"""

from __future__ import annotations

from typing import Union

__all__ = ["Fp", "Fp2"]


class Fp:
    """An element of the prime field ``F_p``."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int) -> None:
        self.value = value % p
        self.p = p

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other: Union["Fp", int]) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixing elements of different fields")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union["Fp", int]) -> "Fp":
        other = self._coerce(other)
        return Fp(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other: Union["Fp", int]) -> "Fp":
        other = self._coerce(other)
        return Fp(self.value - other.value, self.p)

    def __rsub__(self, other: Union["Fp", int]) -> "Fp":
        other = self._coerce(other)
        return Fp(other.value - self.value, self.p)

    def __mul__(self, other: Union["Fp", int]) -> "Fp":
        other = self._coerce(other)
        return Fp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __neg__(self) -> "Fp":
        return Fp(-self.value, self.p)

    def __pow__(self, exponent: int) -> "Fp":
        return Fp(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return Fp(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other: Union["Fp", int]) -> "Fp":
        other = self._coerce(other)
        return self * other.inverse()

    # -- predicates and helpers -------------------------------------------
    def is_zero(self) -> bool:
        return self.value == 0

    def sqrt(self) -> "Fp | None":
        """Square root via ``a^((p+1)/4)``; requires ``p = 3 (mod 4)``.

        Returns ``None`` when ``self`` is a non-residue.
        """
        candidate = Fp(pow(self.value, (self.p + 1) // 4, self.p), self.p)
        return candidate if (candidate * candidate) == self else None

    def is_square(self) -> bool:
        return self.value == 0 or pow(self.value, (self.p - 1) // 2, self.p) == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"Fp({hex(self.value)})"

    def __int__(self) -> int:
        return self.value


class Fp2:
    """An element ``c0 + c1*i`` of ``F_{p^2}`` with ``i^2 = -1``."""

    __slots__ = ("c0", "c1", "p")

    def __init__(self, c0: int, c1: int, p: int) -> None:
        self.c0 = c0 % p
        self.c1 = c1 % p
        self.p = p

    @classmethod
    def from_fp(cls, element: Fp) -> "Fp2":
        return cls(element.value, 0, element.p)

    @classmethod
    def one(cls, p: int) -> "Fp2":
        return cls(1, 0, p)

    @classmethod
    def zero(cls, p: int) -> "Fp2":
        return cls(0, 0, p)

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        if isinstance(other, Fp2):
            if other.p != self.p:
                raise ValueError("mixing elements of different fields")
            return other
        if isinstance(other, Fp):
            return Fp2(other.value, 0, self.p)
        if isinstance(other, int):
            return Fp2(other, 0, self.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        other = self._coerce(other)
        return Fp2(self.c0 + other.c0, self.c1 + other.c1, self.p)

    __radd__ = __add__

    def __sub__(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        other = self._coerce(other)
        return Fp2(self.c0 - other.c0, self.c1 - other.c1, self.p)

    def __rsub__(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        other = self._coerce(other)
        return other - self

    def __mul__(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        other = self._coerce(other)
        p = self.p
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
        ac = self.c0 * other.c0
        bd = self.c1 * other.c1
        cross = (self.c0 + self.c1) * (other.c0 + other.c1) - ac - bd
        return Fp2(ac - bd, cross, p)

    __rmul__ = __mul__

    def __neg__(self) -> "Fp2":
        return Fp2(-self.c0, -self.c1, self.p)

    def conjugate(self) -> "Fp2":
        return Fp2(self.c0, -self.c1, self.p)

    def norm(self) -> int:
        """The field norm ``c0^2 + c1^2`` as an integer mod p."""
        return (self.c0 * self.c0 + self.c1 * self.c1) % self.p

    def inverse(self) -> "Fp2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in F_{p^2}")
        inv_norm = pow(n, -1, self.p)
        return Fp2(self.c0 * inv_norm, -self.c1 * inv_norm, self.p)

    def __truediv__(self, other: Union["Fp2", Fp, int]) -> "Fp2":
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fp2.one(self.p)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def is_one(self) -> bool:
        return self.c0 == 1 and self.c1 == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fp)):
            other = self._coerce(other)
        if isinstance(other, Fp2):
            return self.p == other.p and self.c0 == other.c0 and self.c1 == other.c1
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.c0, self.c1, self.p))

    def __repr__(self) -> str:
        return f"Fp2({hex(self.c0)}, {hex(self.c1)})"


_CUBE_ROOT_CACHE: dict = {}


def cube_root_of_unity(p: int) -> Fp2:
    """Return a primitive cube root of unity in ``F_{p^2}``.

    For ``p = 2 (mod 3)`` and ``p = 3 (mod 4)``, ``-3`` is a non-residue in
    ``F_p`` while ``3`` is a residue, so ``sqrt(-3) = sqrt(3) * i`` and
    ``zeta = (-1 + sqrt(-3)) / 2``.  The root is a constant of the field,
    so it is computed once per modulus — the distortion map evaluates it
    on every pairing.
    """
    cached = _CUBE_ROOT_CACHE.get(p)
    if cached is not None:
        return cached
    three = Fp(3, p)
    root3 = three.sqrt()
    if root3 is None:
        raise ValueError("3 must be a quadratic residue modulo p")
    inv2 = pow(2, -1, p)
    c0 = (-1 * inv2) % p
    c1 = (root3.value * inv2) % p
    zeta = Fp2(c0, c1, p)
    if (zeta * zeta * zeta) != Fp2.one(p) or zeta == Fp2.one(p):
        raise ValueError("failed to construct a primitive cube root of unity")
    _CUBE_ROOT_CACHE[p] = zeta
    return zeta
