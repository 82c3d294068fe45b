"""Tate pairing on the supersingular curve, with distortion map.

Provides a symmetric bilinear pairing ``e : G x G -> F_{p^2}`` on the
order-``r`` subgroup ``G`` of ``E(F_p)``, computed as the reduced Tate
pairing ``t(P, phi(Q))`` where ``phi`` is the distortion map.  This is the
pairing used by the original BLS signature scheme.

:func:`tate_check` decides the verification equation
``e(a1, b1) == e(a2, b2)`` and is what the signature scheme calls.  It
evaluates both Miller functions at the anti-trace image
``psi(Q) = phi(Q) - pi(phi(Q))`` instead of at ``phi(Q)`` (``pi`` is the
Frobenius map).  For ``P`` of order ``r``,
``t(P, pi(R)) = t(P, R)^p = t(P, R)^-1`` because ``r | p + 1``, so
``t(P, psi(Q)) = t(P, phi(Q))^2``; squaring is a bijection on the odd-order
group of ``r``-th roots of unity, so the verdict is unchanged.  ``psi(Q)``
has its x-coordinate in ``F_p`` and its y-coordinate in ``i * F_p``, so
every vertical line evaluates into ``F_p``, where the final exponentiation
``(p^2 - 1)/r = (p - 1) * cofactor`` maps it to one: the Miller loop
multiplies in lines only (Barreto-Kim-Lynn-Scott denominator
elimination), and walks the non-adjacent form of ``r``, whose subtraction
steps add no vertical either.  Every line is stored normalised as
``y - lam*x - mu``; divided by the ``F_p`` value ``y(psi(Q))/i`` it becomes
``g - i`` with ``g`` one two-product dot, so each line costs four ``F_p``
products.  One accumulator holds the quotient of the two sides (a division
is a multiplication by the conjugate) and the check costs one
final exponentiation.

The fast loop takes first arguments of order ``r`` (their NAF walk ends at
the identity) and evaluation points whose anti-trace image is neither the
identity nor 2-torsion.  Every other input — the identity, points outside
the subgroup, the order-2, -3 and -6 points — is decided by two reference
:func:`tate_pairing` values, the textbook affine Miller loop with
verticals that the property tests hold :func:`tate_check` to.
"""

from __future__ import annotations

from repro.crypto.curve import Point, distortion_map
from repro.crypto.field import Fp, Fp2, cube_root_of_unity
from repro.crypto.params import CurveParams

__all__ = ["tate_pairing", "tate_check", "miller_loop"]


# Ladders: the Miller loop's point arithmetic and line coefficients depend
# only on the first argument P, not on Q.  A "ladder" is the per-digit list
# of normalised line coefficients; evaluating a cached ladder at a new Q
# skips all the point arithmetic.  The hot path re-pairs a handful of first
# arguments constantly — the generator G on every verification's left side,
# H(m) on every right side within a block — so ladders hit the cache almost
# always after warm-up.
_LADDER_CACHE: dict = {}
_LADDER_CACHE_MAX = 128


def _build_ladder(xP: int, yP: int, params: CurveParams) -> tuple:
    """The lines of ``f_{r,P}`` along the NAF of ``r``, or ``()`` if ``rP != O``.

    One step per NAF digit after the leading one: ``(lam, mu)`` for the
    tangent at ``T``, then ``(lam, mu)`` of the chord through ``T`` and
    ``+-P`` when the digit is nonzero, each line being ``y - lam*x - mu``.
    The last digit's chord is the vertical through ``T = -+P`` and is
    dropped.  The walk runs on Jacobian coordinates, emitting each line
    scaled by an ``F_p`` factor ``A``; one batched inversion normalises them
    all.  A degenerate step (``T`` at the identity, 2-torsion, or ``T = +-P``)
    cannot occur for a point of order ``r`` before the last digit, so it —
    like a walk that does not end at ``O`` — marks ``P`` as outside the
    subgroup.
    """
    p = params.p
    digits = _naf_digits(params.r)
    last = len(digits) - 2
    raw = []  # (A, B, C): the line A*y - B*x + C
    shape = []  # per step: True when it has a chord
    X, Y, Z = xP, yP, 1  # the running point T in Jacobian coordinates
    for index, d in enumerate(digits[1:]):
        if Y == 0:
            return ()
        ZZ = Z * Z % p
        XX = X * X % p
        YY = Y * Y % p
        Z3 = 2 * Y * Z % p
        # Tangent at T scaled by 2YZ^3: 2YZ^3*y - 3X^2Z^2*x + (3X^3 - 2Y^2).
        raw.append((Z3 * ZZ % p, 3 * XX % p * ZZ % p, (3 * X * XX - 2 * YY) % p))
        # a = 0 Jacobian doubling.
        CC = YY * YY % p
        t = X + YY
        D = 2 * (t * t - XX - CC) % p
        E = 3 * XX % p
        X = (E * E - 2 * D) % p
        Y = (E * (D - X) - 8 * CC) % p
        Z = Z3
        if not d:
            shape.append(False)
            continue
        y2 = yP if d > 0 else p - yP  # add P or subtract it
        ZZ = Z * Z % p
        H = (xP * ZZ - X) % p
        if H == 0:
            # T = -dP ends the walk at O (the chord is a vertical, dropped);
            # anywhere else, or with T = dP, P's order is not r.
            if index != last or (y2 * Z % p * ZZ - Y) % p == 0:
                return ()
            shape.append(False)
            return _normalise(raw, shape, p)
        if index == last:
            return ()
        rr = (y2 * Z % p * ZZ - Y) % p
        ZH = Z * H % p
        # Chord through T and (xP, y2) scaled by ZH: ZH*y - rr*x + (rr*xP - ZH*y2).
        raw.append((ZH, rr, (rr * xP - ZH * y2) % p))
        shape.append(True)
        # Mixed Jacobian addition T <- T + (xP, y2).
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (rr * rr - HHH - 2 * V) % p
        Y = (rr * (V - X) - Y * HHH) % p
        Z = ZH
    return ()  # unreachable for odd r: the last NAF digit is nonzero


def _normalise(raw: list, shape: list, p: int) -> tuple:
    """Divide every line ``A*y - B*x + C`` by ``A`` (one shared inversion)."""
    prefix = [1]
    for A, _, _ in raw:
        prefix.append(prefix[-1] * A % p)
    inv = pow(prefix[-1], -1, p)
    lines = [None] * len(raw)
    for k in range(len(raw) - 1, -1, -1):
        A, B, C = raw[k]
        a_inv = inv * prefix[k] % p
        inv = inv * A % p
        lines[k] = (B * a_inv % p, -C * a_inv % p)
    steps = []
    lines = iter(lines)
    for chord in shape:
        tangent = next(lines)
        steps.append(tangent + next(lines) if chord else tangent)
    return tuple(steps)


def _ladder(point: Point, params: CurveParams) -> tuple:
    """The memoised ladder of ``point`` (``()`` when its order is not ``r``)."""
    if not isinstance(point.x, Fp):
        raise TypeError("the Miller loop expects its first argument in E(F_p)")
    xP, yP = point.x.value, point.y.value
    key = (params.p, params.r, xP, yP)
    steps = _LADDER_CACHE.get(key)
    if steps is None:
        steps = _build_ladder(xP, yP, params)
        if len(_LADDER_CACHE) >= _LADDER_CACHE_MAX:
            _LADDER_CACHE.clear()
        _LADDER_CACHE[key] = steps
    return steps


def miller_loop(p_point: Point, q_point: Point, params: CurveParams) -> Fp2:
    """The textbook Miller function ``f_{r,P}(Q)``: affine lines over verticals.

    Double-and-add over the binary digits of ``r``; a step from ``T`` by
    ``S`` multiplies in the line through them and divides by the vertical
    at ``T + S``.  ``p_point`` must live in ``E(F_p)``; ``q_point`` may live
    in ``E(F_p)`` or ``E(F_{p^2})``.  A vertical that vanishes at ``Q``
    raises :class:`ZeroDivisionError`; a vanishing line makes the value
    zero, which :func:`tate_pairing` cannot invert either.
    """
    p = params.p
    one = Fp2.one(p)
    if p_point.is_infinity or q_point.is_infinity:
        return one
    xq = q_point.x if isinstance(q_point.x, Fp2) else Fp2.from_fp(q_point.x)
    yq = q_point.y if isinstance(q_point.y, Fp2) else Fp2.from_fp(q_point.y)

    def step(T: Point, S: Point):
        """``(T + S, line / vertical at Q)``."""
        if T.is_infinity:  # the line through O and S is the vertical at S
            return S, one
        if T.x == S.x and (T.y + S.y).is_zero():
            return Point.infinity(params), xq - T.x
        if T.x == S.x:
            slope = (T.x * T.x * 3) / (T.y * 2)
        else:
            slope = (S.y - T.y) / (S.x - T.x)
        x3 = slope * slope - T.x - S.x
        total = Point(x3, slope * (T.x - x3) - T.y, params)
        return total, (yq - T.y - (xq - T.x) * slope) / (xq - x3)

    f = one
    T = p_point
    for bit in bin(params.r)[3:]:  # binary expansion of r, leading '1' skipped
        T, factor = step(T, T)
        f = f * f * factor
        if bit == "1":
            T, factor = step(T, p_point)
            f = f * factor
    return f


# Non-adjacent forms of the fixed exponents (the subgroup order r for the
# Miller loop, the cofactor for the final exponentiation), cached per value.
_NAF_CACHE: dict = {}


def _naf_digits(k: int) -> list:
    """The NAF of ``k``, most significant digit first."""
    digits = _NAF_CACHE.get(k)
    if digits is not None:
        return digits
    original = k
    digits = []
    while k:
        if k & 1:
            d = 2 - (k & 3)  # 1 or -1; subtracting leaves two zero bits
            digits.append(d)
            k -= d
        else:
            digits.append(0)
        k >>= 1
    digits.reverse()
    _NAF_CACHE[original] = digits
    return digits


def _fp2_pow_unitary(c0: int, c1: int, exponent: int, p: int) -> Fp2:
    """Exponentiation specialised to norm-1 (unitary) ``F_{p^2}`` elements.

    A value ``z^(p-1)`` has norm 1, which buys two shortcuts: squaring is
    ``(2a^2 - 1, 2ab)`` — two multiplications instead of three — and the
    inverse is the conjugate, so the fixed exponent can run in signed-digit
    (NAF) form with ~1/3 as many multiplies as binary square-and-multiply.
    """
    b0, b1 = c0 % p, c1 % p
    nb1 = (-b1) % p  # conjugate == inverse for unitary values
    r0, r1 = 1, 0
    for d in _naf_digits(exponent):
        r0, r1 = (2 * r0 * r0 - 1) % p, 2 * r0 * r1 % p
        if d == 1:
            r0, r1 = (r0 * b0 - r1 * b1) % p, (r0 * b1 + r1 * b0) % p
        elif d == -1:
            r0, r1 = (r0 * b0 - r1 * nb1) % p, (r0 * nb1 + r1 * b0) % p
    return Fp2(r0, r1, p)


def tate_pairing(p_point: Point, q_point: Point) -> Fp2:
    """The reduced, distorted Tate pairing ``e(P, Q) = t(P, phi(Q))``.

    Both arguments must be points in the order-``r`` subgroup of
    ``E(F_p)``.  The result is an ``r``-th root of unity in ``F_{p^2}``;
    ``e(aP, bQ) = e(P, Q)^(ab)``, ``e(G, G) != 1`` for the generator, and
    the pairing is symmetric (``phi`` commutes with the group law), so
    callers are free to put the cache-friendlier argument first.
    """
    params = p_point.params
    if p_point.is_infinity or q_point.is_infinity:
        return Fp2.one(params.p)
    raw = miller_loop(p_point, distortion_map(q_point), params)
    # (p^2 - 1)/r == (p - 1) * cofactor, and z^(p-1) = conj(z) * z^-1.
    unitary = raw.conjugate() * raw.inverse()
    return _fp2_pow_unitary(unitary.c0, unitary.c1, params.cofactor, params.p)


def _antitrace_weights(point: Point, two_c1: int, p: int):
    """``(-3t(t^3 + 4), 9t^3, E)`` for ``Q = (t, y)``, or ``None``.

    ``psi(Q) = (-(t^3 + 4)/(3t^2), s*i)`` with ``s = 2c1*y*(t^3 - 8)/(9t^3)``
    (``zeta = c0 + c1*i``), so a line ``y - lam*x - mu`` divided by ``s`` is
    ``i - (lam*a + mu*b)`` with ``a = -3t(t^3 + 4)/E``, ``b = 9t^3/E`` and
    ``E = 2c1*y*(t^3 - 8)``.  ``None`` when ``psi(Q)`` is the identity
    (``t = 0``) or 2-torsion (``E = 0``: ``y = 0``, or ``Q = (2, +-3)``).
    """
    if not isinstance(point.x, Fp):
        raise TypeError("tate_check expects its arguments in E(F_p)")
    t, y = point.x.value, point.y.value
    ttt = t * t % p * t % p
    denominator = two_c1 * y % p * (ttt - 8) % p
    if t == 0 or denominator == 0:
        return None
    return -3 * t * (ttt + 4) % p, 9 * ttt % p, denominator


def tate_check(a1: Point, b1: Point, a2: Point, b2: Point) -> bool:
    """Decide ``e(a1, b1) == e(a2, b2)`` with one fused Miller loop.

    The two reduced pairings are equal iff ``t(a1, psi b1) / t(a2, psi b2)``
    is one (see the module docstring), so one accumulator ``f0 + f1*i``
    walks the ladders of ``a1`` and ``a2`` together: one squaring per NAF
    digit serves both sides, a side-1 line multiplies by ``g - i``, and a
    side-2 line divides, i.e. multiplies by the conjugate ``g + i``.  All
    four points must lie in ``E(F_p)``; inputs the fast loop cannot take
    (see the module docstring) are decided by two :func:`tate_pairing`
    values, which raise :class:`ZeroDivisionError` when a line vanishes at
    an argument.
    """
    if a1.is_infinity or b1.is_infinity or a2.is_infinity or b2.is_infinity:
        return tate_pairing(a1, b1) == tate_pairing(a2, b2)
    params = a1.params
    p = params.p
    ladder1, ladder2 = _ladder(a1, params), _ladder(a2, params)
    two_c1 = 2 * cube_root_of_unity(p).c1
    weights1 = _antitrace_weights(b1, two_c1, p)
    weights2 = _antitrace_weights(b2, two_c1, p)
    if not (ladder1 and ladder2 and weights1 and weights2):
        return tate_pairing(a1, b1) == tate_pairing(a2, b2)
    (na1, nb1, den1), (na2, nb2, den2) = weights1, weights2
    inv = pow(den1 * den2, -1, p)  # one inversion serves both evaluation points
    inv1, inv2 = den2 * inv % p, den1 * inv % p
    wa1, wb1, wa2, wb2 = na1 * inv1 % p, nb1 * inv1 % p, na2 * inv2 % p, nb2 * inv2 % p
    f0, f1 = 1, 0
    for s1, s2 in zip(ladder1, ladder2):
        f0, f1 = (f0 - f1) * (f0 + f1) % p, 2 * f0 * f1 % p
        g = (s1[0] * wa1 + s1[1] * wb1) % p  # times g - i
        f0, f1 = (f0 * g + f1) % p, (f1 * g - f0) % p
        g = (s2[0] * wa2 + s2[1] * wb2) % p  # times g + i
        f0, f1 = (f0 * g - f1) % p, (f0 + f1 * g) % p
        if len(s1) == 4:  # the two ladders walk the same digits
            g = (s1[2] * wa1 + s1[3] * wb1) % p
            f0, f1 = (f0 * g + f1) % p, (f1 * g - f0) % p
            g = (s2[2] * wa2 + s2[3] * wb2) % p
            f0, f1 = (f0 * g - f1) % p, (f0 + f1 * g) % p
    # f^(p-1) = conj(f)/f = conj(f)^2 / N(f); every factor g -+ i is nonzero,
    # so the norm f0^2 + f1^2 is too, and it is the check's second inversion.
    inv_norm = pow((f0 * f0 + f1 * f1) % p, -1, p)
    u0 = (f0 - f1) * (f0 + f1) % p * inv_norm
    u1 = -2 * f0 * f1 % p * inv_norm
    return _fp2_pow_unitary(u0, u1, params.cofactor, p).is_one()
