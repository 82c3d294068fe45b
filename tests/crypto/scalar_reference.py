"""The scalar multiplication the fast paths are held to, bit for bit.

Schoolbook affine double-and-add over :class:`Point`'s own addition —
no Jacobian coordinates, no windows, no tables — so the property tests
compare ``repro.crypto.curve``'s fast paths against arithmetic they do
not share.  Test-only: nothing under ``src/`` multiplies this way.
"""

from repro.crypto.curve import Point


def reference_scalar_mult(point: Point, scalar: int) -> Point:
    """``scalar * point`` by affine double-and-add; a negative scalar negates."""
    if scalar < 0:
        return reference_scalar_mult(-point, -scalar)
    result = Point.infinity(point.params)
    addend = point
    while scalar:
        if scalar & 1:
            result = result + addend
        addend = addend + addend
        scalar >>= 1
    return result
