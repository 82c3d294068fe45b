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
tests.  Both sets were produced by :func:`generate_params`, which is kept
in the library so users can regenerate or strengthen the parameters.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

__all__ = [
    "CurveParams",
    "DEFAULT_PARAMS",
    "TOY_PARAMS",
    "generate_params",
    "is_probable_prime",
]


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Uses ``rounds`` random bases; for the sizes used here the error
    probability is negligible (< 2^-80).
    """
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for sp in small_primes:
        if n % sp == 0:
            return n == sp
    rng = rng or random.Random(0xC0FFEE ^ (n & 0xFFFFFFFF))
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


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


# Generated with ``generate_params(r_bits=160, p_bits=512, seed=20240404)``.
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

# Generated with ``generate_params(r_bits=64, p_bits=128, seed=7)``.
TOY_PARAMS = CurveParams(
    p=int("0xbc4f002495471f27d794f45c070e8d0f", 16),
    r=int("0xf2a74de452e6b551", 16),
    cofactor=int("0xc6aa7d550101b810", 16),
    gx=int("0x843fe25d3e844beeba9a5451a21f4214", 16),
    gy=int("0x645a16e201ed823b4d3cdf27f868453d", 16),
    name="toy128",
)


def _next_prime(n: int) -> int:
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


def generate_params(r_bits: int = 160, p_bits: int = 512, seed: int = 0) -> CurveParams:
    """Search for fresh supersingular curve parameters.

    The search picks a random ``r_bits``-bit prime ``r`` and then looks for
    an even cofactor ``h`` such that ``p = h * r - 1`` is prime with
    ``p = 2 (mod 3)`` and ``p = 3 (mod 4)``.  A generator of the order-``r``
    subgroup is found by hashing x-coordinates onto the curve and clearing
    the cofactor.

    Args:
        r_bits: Bit length of the prime subgroup order.
        p_bits: Bit length of the field prime.
        seed: Seed for the deterministic search.

    Returns:
        A fully populated :class:`CurveParams`.
    """
    if p_bits <= r_bits + 8:
        raise ValueError("p_bits must exceed r_bits by a reasonable margin")
    rng = random.Random(seed)
    r = _next_prime(rng.getrandbits(r_bits) | (1 << (r_bits - 1)))
    h_bits = p_bits - r_bits
    while True:
        h = (rng.getrandbits(h_bits) | (1 << (h_bits - 1))) & ~1
        p = h * r - 1
        if p % 3 != 2 or p % 4 != 3:
            continue
        if is_probable_prime(p):
            break
    gx, gy = _find_subgroup_generator(p, r, h)
    return CurveParams(p=p, r=r, cofactor=h, gx=gx, gy=gy, name=f"gen{p_bits}")


def _find_subgroup_generator(p: int, r: int, h: int) -> tuple[int, int]:
    """Find an affine point of exact order ``r`` on ``y^2 = x^3 + 1``."""

    def sqrt_mod(a: int) -> int | None:
        a %= p
        root = pow(a, (p + 1) // 4, p)
        return root if root * root % p == a else None

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return (x3, y3)

    def mul(k, P):
        result = None
        addend = P
        while k:
            if k & 1:
                result = add(result, addend)
            addend = add(addend, addend)
            k >>= 1
        return result

    counter = 0
    while True:
        digest = hashlib.sha256(f"iniva-generator-{counter}".encode()).digest()
        x = int.from_bytes(digest * ((p.bit_length() // 256) + 1), "big") % p
        y = sqrt_mod(x * x * x + 1)
        if y is not None:
            point = mul(h, (x, y))
            if point is not None and mul(r, point) is None:
                return point
        counter += 1
