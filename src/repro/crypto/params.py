"""Parameters for the pairing-friendly supersingular curve used by BLS.

The original BLS signature construction (Boneh, Lynn, Shacham 2004 — the
scheme cited as [32] in the paper) works over a supersingular curve

    E : y^2 = x^3 + 1   over F_p  with  p = 2 (mod 3)

which has exactly ``p + 1`` points and embedding degree two.  Together with
the distortion map ``phi(x, y) = (zeta * x, y)`` (``zeta`` a primitive cube
root of unity in F_{p^2}) the Tate pairing becomes a *symmetric* pairing
``e : G x G -> F_{p^2}`` on the order-``r`` subgroup, which is all BLS
needs.

The default parameter set uses a 512-bit prime ``p`` and a 160-bit prime
group order ``r``; a tiny toy set is provided for fast property-based
tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CurveParams",
    "DEFAULT_PARAMS",
    "TOY_PARAMS",
]


@dataclass(frozen=True)
class CurveParams:
    """Parameters of the supersingular curve ``y^2 = x^3 + 1`` over ``F_p``.

    Attributes:
        p: Field prime, with ``p % 3 == 2`` and ``p % 4 == 3``.
        r: Prime order of the signature subgroup.
        cofactor: ``(p + 1) // r``.
        gx, gy: Affine coordinates of a generator of the order-``r``
            subgroup.
        name: Human-readable name used in error messages and registries.
    """

    p: int
    r: int
    cofactor: int
    gx: int
    gy: int
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.p % 3 != 2:
            raise ValueError("p must be 2 mod 3 for the supersingular curve")
        if self.p % 4 != 3:
            raise ValueError("p must be 3 mod 4 so square roots are cheap")
        if (self.p + 1) != self.r * self.cofactor:
            raise ValueError("cofactor * r must equal the curve order p + 1")

    @property
    def security_bits(self) -> int:
        """A rough security estimate: half the subgroup-order bit length."""
        return self.r.bit_length() // 2


# Both parameter sets are fixed values; tests/crypto/test_params.py checks
# their primality, congruences, cofactor relation and generator order.
DEFAULT_PARAMS = CurveParams(
    p=int(
        "0x8ca1771b886fb6e1b1293a432647f84448b24d4b899d5d59c49b09853abf40f7"
        "3b6dc54e9ed1dd7eb5cc2cad032923ff59fed2254cfd17e30debbd50daf0b873",
        16,
    ),
    r=int("0xd729f8730089c772afb33789620dc5ae3e1a5499", 16),
    cofactor=int(
        "0xa75232ac33c8f8a5708c3b0068c18eb23b540a7a64f367d83a477ed04ea830f6"
        "4473e6e75d0cc0c308885094",
        16,
    ),
    gx=int(
        "0x3e3b2b031da697110df819ecab3a4d241b66bff6ebe3199e27985e7699d0abc3"
        "9a2d34cec934f3bf713a3f49c847d3cb4b2032f94a07633aa5dca7085c30ff5d",
        16,
    ),
    gy=int(
        "0x2a256898d9dbe43b4d2aac452531c5d497da25fb39b3df7414ff752264cc2600"
        "a3de72de70e17a6a93a51e8919e9323dddd62b1511307c6453ee2518aebca113",
        16,
    ),
    name="ss512",
)

TOY_PARAMS = CurveParams(
    p=int("0xbc4f002495471f27d794f45c070e8d0f", 16),
    r=int("0xf2a74de452e6b551", 16),
    cofactor=int("0xc6aa7d550101b810", 16),
    gx=int("0x843fe25d3e844beeba9a5451a21f4214", 16),
    gy=int("0x645a16e201ed823b4d3cdf27f868453d", 16),
    name="toy128",
)
