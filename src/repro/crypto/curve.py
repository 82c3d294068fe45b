"""Elliptic-curve group operations for the BLS signature backend.

The curve is the supersingular curve ``E : y^2 = x^3 + 1``.  Points can
live over ``F_p`` (signatures, public keys) or over ``F_{p^2}`` (images of
the distortion map used inside the pairing).  The same :class:`Point`
class handles both by storing generic field elements.

Scalar multiplication of ``F_p`` points — the hot path of signing, key
generation and cofactor clearing — runs on a raw-integer
Jacobian-coordinate core (no modular inversion per group operation) with
width-5 wNAF recoding and per-point precomputation tables.  The subgroup
generator additionally gets a fixed-base windowed table so ``G * sk``
degenerates to ~``r_bits/4`` mixed additions with no doublings at all,
and a message hash that every replica signs gets a memoised 4-tooth comb
(:func:`comb_mult`): ~``r_bits/4`` doublings and as many additions.
Multiplicity-weighted sums of shares and keys (:func:`weighted_sum`) use
the same core without tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.crypto.field import Fp, Fp2, cube_root_of_unity
from repro.crypto.params import CurveParams

__all__ = [
    "Point",
    "generator",
    "hash_to_point",
    "distortion_map",
    "comb_mult",
    "weighted_sum",
    "clear_hash_cache",
]

FieldElement = Union[Fp, Fp2]

# A Jacobian point (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3);
# Z == 0 encodes the point at infinity.
_JAC_INFINITY = (1, 1, 0)


# ---------------------------------------------------------------------------
# Raw-integer Jacobian core (curve coefficient a = 0)
# ---------------------------------------------------------------------------

def _jac_double(X1: int, Y1: int, Z1: int, p: int) -> Tuple[int, int, int]:
    if Z1 == 0 or Y1 == 0:
        # Doubling the identity, or an order-2 point (y == 0), gives infinity.
        return _JAC_INFINITY
    A = X1 * X1 % p
    B = Y1 * Y1 % p
    C = B * B % p
    t = X1 + B
    D = 2 * (t * t - A - C) % p
    E = 3 * A % p
    X3 = (E * E - 2 * D) % p
    Y3 = (E * (D - X3) - 8 * C) % p
    Z3 = 2 * Y1 * Z1 % p
    return X3, Y3, Z3


def _jac_add_mixed(
    X1: int, Y1: int, Z1: int, x2: int, y2: int, p: int
) -> Tuple[int, int, int]:
    """Add the affine point ``(x2, y2)`` to the Jacobian point ``(X1, Y1, Z1)``."""
    if Z1 == 0:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1 % p * Z1Z1 % p
    if U2 == X1:
        if S2 == Y1:
            return _jac_double(X1, Y1, Z1, p)
        return _JAC_INFINITY
    H = (U2 - X1) % p
    HH = H * H % p
    HHH = H * HH % p
    r = (S2 - Y1) % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - Y1 * HHH) % p
    Z3 = Z1 * H % p
    return X3, Y3, Z3


def _batch_to_affine(
    points: List[Tuple[int, int, int]], p: int
) -> List[Tuple[int, int]]:
    """Convert Jacobian points to affine with a single modular inversion.

    Uses the Montgomery batch-inversion trick; no input may be infinity
    (``Z == 0`` raises :class:`ZeroDivisionError`).
    """
    zs = [pt[2] for pt in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % p
    if prefix[-1] == 0:
        raise ZeroDivisionError("cannot normalise the point at infinity")
    inv_all = pow(prefix[-1], -1, p)
    out: List[Optional[Tuple[int, int]]] = [None] * len(points)
    for i in range(len(zs) - 1, -1, -1):
        z_inv = inv_all * prefix[i] % p
        inv_all = inv_all * zs[i] % p
        z2 = z_inv * z_inv % p
        X, Y, _ = points[i]
        out[i] = (X * z2 % p, Y * z2 % p * z_inv % p)
    return out  # type: ignore[return-value]


def _wnaf(k: int, width: int) -> List[int]:
    """Width-``w`` non-adjacent form of ``k`` (little-endian digit list)."""
    digits: List[int] = []
    window = 1 << width
    mask = 2 * window - 1
    while k:
        if k & 1:
            d = k & mask
            if d >= window:
                d -= 2 * window
            digits.append(d)
            k -= d
        else:
            digits.append(0)
        k >>= 1
    return digits


_WNAF_WIDTH = 5
# Per-point odd-multiple tables: (p, x, y) -> [1P, 3P, ..., (2^w - 1)P] affine.
_TABLE_CACHE: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
_TABLE_CACHE_MAX = 256


def _odd_multiples(x: int, y: int, p: int) -> Optional[List[Tuple[int, int]]]:
    """The affine odd multiples [1P, 3P, ..., (2^w - 1)P], or ``None``.

    ``None`` signals that the point's order is small enough for one of the
    multiples to hit infinity, which the batch normalisation cannot
    represent — callers fall back to plain double-and-add.
    """
    key = (p, x, y)
    table = _TABLE_CACHE.get(key)
    if table is not None:
        return table
    count = 1 << (_WNAF_WIDTH - 1)
    jac: List[Tuple[int, int, int]] = [(x, y, 1)]
    twice = _jac_double(x, y, 1, p)
    if twice[2] == 0:
        return None
    tx, ty = _batch_to_affine([twice], p)[0]
    for _ in range(count - 1):
        jac.append(_jac_add_mixed(*jac[-1], tx, ty, p))
    if any(entry[2] == 0 for entry in jac):
        return None
    table = _batch_to_affine(jac, p)
    if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
        _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table
    return table


def _scalar_mult_binary(x: int, y: int, k: int, p: int) -> Tuple[int, int, int]:
    """Jacobian double-and-add without precomputation (any point order)."""
    acc = _JAC_INFINITY
    for bit in bin(k)[2:]:
        acc = _jac_double(*acc, p)
        if bit == "1":
            acc = _jac_add_mixed(*acc, x, y, p)
    return acc


def _scalar_mult_ints(x: int, y: int, k: int, p: int) -> Tuple[int, int, int]:
    """wNAF scalar multiplication on raw affine ints; returns Jacobian."""
    if k == 0:
        return _JAC_INFINITY
    table = _odd_multiples(x, y, p)
    if table is None:
        # Small-order point (odd multiples reach infinity): wNAF tables
        # cannot represent it, but plain double-and-add can.
        return _scalar_mult_binary(x, y, k, p)
    acc = _JAC_INFINITY
    for d in reversed(_wnaf(k, _WNAF_WIDTH)):
        acc = _jac_double(*acc, p)
        if d > 0:
            ax, ay = table[(d - 1) >> 1]
            acc = _jac_add_mixed(*acc, ax, ay, p)
        elif d < 0:
            ax, ay = table[(-d - 1) >> 1]
            acc = _jac_add_mixed(*acc, ax, (p - ay) % p, p)
    return acc


# ---------------------------------------------------------------------------
# Fixed-base windowed tables for the subgroup generator
# ---------------------------------------------------------------------------

_FIXED_WINDOW = 4
# (p, gx, gy) -> per-window lists of the 15 affine multiples d * (16^i G).
_FIXED_BASE_CACHE: Dict[Tuple[int, int, int], List[List[Tuple[int, int]]]] = {}


def _fixed_base_tables(params: CurveParams) -> List[List[Tuple[int, int]]]:
    key = (params.p, params.gx, params.gy)
    tables = _FIXED_BASE_CACHE.get(key)
    if tables is not None:
        return tables
    p = params.p
    windows = (params.r.bit_length() + _FIXED_WINDOW - 1) // _FIXED_WINDOW
    digit_count = (1 << _FIXED_WINDOW) - 1
    # Window bases B_i = 16^i * G, computed by repeated doubling.
    bases_jac: List[Tuple[int, int, int]] = [(params.gx, params.gy, 1)]
    for _ in range(windows - 1):
        nxt = bases_jac[-1]
        for _ in range(_FIXED_WINDOW):
            nxt = _jac_double(*nxt, p)
        bases_jac.append(nxt)
    bases = _batch_to_affine(bases_jac, p)
    # All d * B_i for d in 1..15, normalised with one shared inversion.
    flat: List[Tuple[int, int, int]] = []
    for bx, by in bases:
        acc = (bx, by, 1)
        flat.append(acc)
        for _ in range(digit_count - 1):
            acc = _jac_add_mixed(*acc, bx, by, p)
            flat.append(acc)
    flat_affine = _batch_to_affine(flat, p)
    tables = [
        flat_affine[i * digit_count : (i + 1) * digit_count] for i in range(windows)
    ]
    _FIXED_BASE_CACHE[key] = tables
    return tables


def _fixed_base_mult(k: int, params: CurveParams) -> Tuple[int, int, int]:
    """Multiply the generator by ``k`` using the fixed-base tables.

    ``k`` is reduced modulo the subgroup order ``r`` (valid because the
    generator has exact order ``r``).
    """
    k %= params.r
    if k == 0:
        return _JAC_INFINITY
    tables = _fixed_base_tables(params)
    p = params.p
    acc = _JAC_INFINITY
    window = 0
    mask = (1 << _FIXED_WINDOW) - 1
    while k:
        digit = k & mask
        if digit:
            ax, ay = tables[window][digit - 1]
            acc = _jac_add_mixed(*acc, ax, ay, p)
        k >>= _FIXED_WINDOW
        window += 1
    return acc


# ---------------------------------------------------------------------------
# Per-point comb tables for points multiplied by many scalars
# ---------------------------------------------------------------------------

_COMB_TEETH = 4
# (p, x, y) -> (spacing d, the 15 affine sums of b_j * 2^(j*d) * P for
# b = 1..15), or None when one of those sums is the identity.
_COMB_CACHE: Dict[Tuple[int, int, int], Optional[Tuple[int, List[Tuple[int, int]]]]] = {}
_COMB_CACHE_MAX = 128


def _comb_table(x: int, y: int, params: CurveParams):
    key = (params.p, x, y)
    if key in _COMB_CACHE:
        return _COMB_CACHE[key]
    p = params.p
    spacing = -(-params.r.bit_length() // _COMB_TEETH)
    teeth = [(x, y, 1)]
    for _ in range(_COMB_TEETH - 1):
        tooth = teeth[-1]
        for _ in range(spacing):
            tooth = _jac_double(*tooth, p)
        teeth.append(tooth)
    entry = None
    if all(tooth[2] for tooth in teeth):
        teeth_affine = _batch_to_affine(teeth, p)
        # sums[b] = sums[b without its top bit] + that bit's tooth.
        sums = [_JAC_INFINITY]
        for j, (tx, ty) in enumerate(teeth_affine):
            sums += [_jac_add_mixed(*sums[low], tx, ty, p) for low in range(1 << j)]
        if all(total[2] for total in sums[1:]):
            entry = (spacing, _batch_to_affine(sums[1:], p))
    if len(_COMB_CACHE) >= _COMB_CACHE_MAX:
        _COMB_CACHE.clear()
    _COMB_CACHE[key] = entry
    return entry


def comb_mult(point: "Point", k: int) -> "Point":
    """``point * k`` through a memoised 4-tooth comb on ``point``.

    Signing multiplies one ``H(m)`` by every replica's key: the comb splits
    ``k`` into four rows of ``d = ceil(bits(r)/4)`` bits, so each product is
    ``d`` doublings and at most ``d`` mixed additions from a 15-entry table
    of tooth sums built once per point.  The result is bit-identical to
    ``point * k``, which serves scalars outside ``[0, 2^(4d))`` and points
    whose table would hold the identity.
    """
    if point.is_infinity or k < 0:
        return point * k
    params = point.params
    entry = _comb_table(point.x.value, point.y.value, params)
    if entry is None or k >> (_COMB_TEETH * entry[0]):
        return point * k
    spacing, table = entry
    p = params.p
    mask = (1 << spacing) - 1
    k0, k1, k2, k3 = (k >> (j * spacing) & mask for j in range(_COMB_TEETH))
    acc = _JAC_INFINITY
    for i in range(spacing - 1, -1, -1):
        acc = _jac_double(*acc, p)
        b = (k0 >> i & 1) | (k1 >> i & 1) << 1 | (k2 >> i & 1) << 2 | (k3 >> i & 1) << 3
        if b:
            ax, ay = table[b - 1]
            acc = _jac_add_mixed(*acc, ax, ay, p)
    return Point._from_jacobian(acc, params)


# ---------------------------------------------------------------------------
# Public point type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """An affine point on ``y^2 = x^3 + 1`` or the point at infinity.

    ``x`` and ``y`` are ``None`` exactly when the point is the identity.
    """

    x: Optional[FieldElement]
    y: Optional[FieldElement]
    params: CurveParams

    # -- construction -----------------------------------------------------
    @classmethod
    def infinity(cls, params: CurveParams) -> "Point":
        return cls(None, None, params)

    @classmethod
    def from_ints(cls, x: int, y: int, params: CurveParams) -> "Point":
        return cls(Fp(x, params.p), Fp(y, params.p), params)

    @classmethod
    def _from_jacobian(cls, jac: Tuple[int, int, int], params: CurveParams) -> "Point":
        if jac[2] == 0:
            return cls.infinity(params)
        x, y = _batch_to_affine([jac], params.p)[0]
        return cls(Fp(x, params.p), Fp(y, params.p), params)

    # -- predicates -------------------------------------------------------
    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def is_on_curve(self) -> bool:
        if self.is_infinity:
            return True
        lhs = self.y * self.y
        rhs = self.x * self.x * self.x + 1
        return lhs == rhs

    def has_order_r(self) -> bool:
        """Check membership in the prime-order subgroup."""
        return (self * self.params.r).is_infinity and not self.is_infinity

    # -- group law --------------------------------------------------------
    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.x, -self.y, self.params)

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if (y1 + y2).is_zero():
                return Point.infinity(self.params)
            # Doubling.
            slope = (x1 * x1 * 3) / (y1 * 2)
        else:
            slope = (y2 - y1) / (x2 - x1)
        x3 = slope * slope - x1 - x2
        y3 = slope * (x1 - x3) - y1
        return Point(x3, y3, self.params)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "Point":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            return (-self) * (-scalar)
        if self.is_infinity or scalar == 0:
            return Point.infinity(self.params)
        x = self.x
        if isinstance(x, Fp):
            params = self.params
            xi, yi = x.value, self.y.value
            if xi == params.gx and yi == params.gy:
                return Point._from_jacobian(_fixed_base_mult(scalar, params), params)
            return Point._from_jacobian(
                _scalar_mult_ints(xi, yi, scalar, params.p), params
            )
        # F_{p^2} points (distortion-map images) stay on the generic path.
        return _double_and_add(self, scalar)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity:
            return hash(("inf", self.params.p))
        return hash((self.x, self.y, self.params.p))

    # -- serialisation ----------------------------------------------------
    def to_bytes(self) -> bytes:
        """A canonical byte encoding used for hashing and equality checks."""
        byte_len = (self.params.p.bit_length() + 7) // 8
        if self.is_infinity:
            return b"\x00" * (2 * byte_len + 1)
        parts = [b"\x01"]
        for coordinate in (self.x, self.y):
            if isinstance(coordinate, Fp):
                parts.append(coordinate.value.to_bytes(byte_len, "big"))
                parts.append((0).to_bytes(byte_len, "big"))
            else:
                parts.append(coordinate.c0.to_bytes(byte_len, "big"))
                parts.append(coordinate.c1.to_bytes(byte_len, "big"))
        return b"".join(parts)


def weighted_sum(pairs: Iterable[Tuple["Point", int]], params: CurveParams) -> "Point":
    """``sum_i k_i * P_i`` over ``E(F_p)`` for multiplicity-sized ``k_i >= 0``.

    One Jacobian accumulator, binary digits interleaved across all terms:
    a doubling per bit of the largest weight and a mixed addition per set
    bit, so unit weights cost one addition each and no doubling at all,
    and a single inversion normalises the total (affine ``+`` inverts per
    addition).  No per-point tables — the terms are fresh signature shares
    with weights of a few bits, where wNAF tables cost more than the sum.
    The result is the canonical affine point, bit-identical to the affine
    double-and-add sum.
    """
    p = params.p
    terms = [
        (point.x.value, point.y.value, k) for point, k in pairs if not point.is_infinity
    ]
    acc = _JAC_INFINITY
    for bit in range(max((k.bit_length() for _, _, k in terms), default=0) - 1, -1, -1):
        acc = _jac_double(*acc, p)
        for x, y, k in terms:
            if k >> bit & 1:
                acc = _jac_add_mixed(*acc, x, y, p)
    return Point._from_jacobian(acc, params)


def _double_and_add(point: Point, scalar: int) -> Point:
    """Schoolbook affine double-and-add."""
    result = Point.infinity(point.params)
    addend = point
    while scalar:
        if scalar & 1:
            result = result + addend
        addend = addend + addend
        scalar >>= 1
    return result


def generator(params: CurveParams) -> Point:
    """The canonical generator of the order-``r`` subgroup."""
    return Point.from_ints(params.gx, params.gy, params)


# Module-wide hash-to-point cache, shared by every scheme instance that
# hashes the same message under the same parameters and domain.
_HASH_CACHE: Dict[Tuple[int, bytes, bytes], Point] = {}
_HASH_CACHE_MAX = 4096


def clear_hash_cache() -> None:
    """Drop all memoised ``hash_to_point`` results (mainly for tests)."""
    _HASH_CACHE.clear()


def hash_to_point(message: bytes, params: CurveParams, domain: bytes = b"iniva-bls") -> Point:
    """Hash a message onto the prime-order subgroup.

    Uses hash-and-check on x-coordinates followed by cofactor clearing.
    This is deterministic and, modelling SHA-256 as a random oracle, lands
    uniformly in the curve group before the cofactor multiplication.
    Results are memoised module-wide keyed on ``(params, domain, message)``.
    """
    cache_key = (params.p, domain, message)
    cached = _HASH_CACHE.get(cache_key)
    if cached is not None:
        return cached
    p = params.p
    byte_len = (p.bit_length() + 7) // 8 + 16
    counter = 0
    while True:
        digest = b""
        block = 0
        while len(digest) < byte_len:
            digest += hashlib.sha256(
                domain + counter.to_bytes(4, "big") + block.to_bytes(4, "big") + message
            ).digest()
            block += 1
        x = Fp(int.from_bytes(digest[:byte_len], "big"), p)
        rhs = x * x * x + 1
        y = rhs.sqrt()
        if y is not None:
            candidate = Point(x, y, params) * params.cofactor
            if not candidate.is_infinity:
                if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
                    _HASH_CACHE.clear()
                _HASH_CACHE[cache_key] = candidate
                return candidate
        counter += 1


def distortion_map(point: Point) -> Point:
    """The distortion map ``phi(x, y) = (zeta * x, y)`` into ``E(F_{p^2})``.

    ``zeta`` is a primitive cube root of unity in ``F_{p^2}``; the image of
    a subgroup point is linearly independent from the original subgroup,
    which makes the modified Tate pairing non-degenerate.
    """
    if point.is_infinity:
        return point
    p = point.params.p
    zeta = cube_root_of_unity(p)
    x = point.x if isinstance(point.x, Fp2) else Fp2.from_fp(point.x)
    y = point.y if isinstance(point.y, Fp2) else Fp2.from_fp(point.y)
    return Point(zeta * x, y, point.params)
