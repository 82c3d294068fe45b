"""BLS multi-signatures over a supersingular curve (pure Python).

Implements the original Boneh-Lynn-Shacham signature scheme with the
symmetric Tate pairing from :mod:`repro.crypto.pairing`:

* secret key ``sk`` is a scalar modulo the subgroup order ``r``;
* public key is ``PK = sk * G``;
* a signature on message ``m`` is ``sigma = sk * H(m)`` where ``H`` hashes
  into the prime-order subgroup;
* verification checks ``e(G, sigma) == e(H(m), PK)``.

Aggregation of signatures on the *same* message is point addition; a share
included with multiplicity ``k`` is simply added ``k`` times, and the
aggregate verifies against the multiplicity-weighted sum of public keys.
This is exactly the multiplicity trick Iniva's reward scheme uses to prove
whether a vote travelled through tree aggregation or a 2ND-CHANCE path.

Indivisibility — the infeasibility of extracting an individual ``sigma_i``
from an aggregate — is the k-element aggregate extraction assumption shown
equivalent to Diffie-Hellman by Coron and Naccache (paper reference [33]).

Performance notes: message hashing is memoised module-wide in
:func:`repro.crypto.curve.hash_to_point`, and signing multiplies ``H(m)``
through a per-message comb (:func:`repro.crypto.curve.comb_mult`), so the
n signatures a block makes on one ``H(m)`` share one table; every
verification — a share or an aggregate — is one
:func:`repro.crypto.pairing.tate_check` equation (one Miller loop over the
cached vertical-free ladders of ``G`` and ``H(m)``, one final
exponentiation), and no lone pairing value is ever computed or memoised;
the collection points (:mod:`repro.aggregation.tree_agg`) verify the sum
they fold rather than each arriving share, so a fault-free Iniva block
costs about one equation per internal node plus one at the root, and
:meth:`BlsMultiSig.verify_share` runs only when such a fold fails;
verified *aggregates* are memoised per scheme instance, so a replica
re-checking the QC another replica already checked — or the root
checking the aggregate its internal node checked before sending it —
pays a dict lookup; and weighted sums of shares and of public keys run
on one Jacobian accumulator (:func:`repro.crypto.curve.weighted_sum`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.crypto.curve import Point, comb_mult, generator, hash_to_point, weighted_sum
from repro.crypto.keys import KeyPair
from repro.crypto.multisig import (
    AggregateSignature,
    Contribution,
    MultiSignatureScheme,
    SignatureShare,
    _tally_multiplicities,
    normalize_contributions,
    register_scheme,
)
from repro.crypto.pairing import tate_check
from repro.crypto.params import DEFAULT_PARAMS, CurveParams

__all__ = ["BlsMultiSig"]


@register_scheme
class BlsMultiSig(MultiSignatureScheme):
    """Pairing-based indivisible multi-signature backend."""

    name = "bls"

    #: Upper bound on each per-instance memo (encoded keys, weighted keys,
    #: verified aggregates); a memo is cleared when full.
    MEMO_MAX = 4096

    def __init__(self, params: Optional[CurveParams] = None) -> None:
        self.params = params or DEFAULT_PARAMS
        self._generator = generator(self.params)
        self._weighted_key_cache: Dict[Tuple[Tuple[bytes, int], ...], Point] = {}
        self._aggregate_cache: Dict[Tuple[bytes, Tuple[Tuple[bytes, int], ...], bytes], bool] = {}
        self._key_bytes_cache: Dict[int, Tuple[Point, bytes]] = {}

    # -- key management ----------------------------------------------------
    def keygen(self, seed: int) -> KeyPair:
        material = hashlib.sha256(b"iniva-bls-sk" + seed.to_bytes(16, "big", signed=True)).digest()
        secret = (int.from_bytes(material, "big") % (self.params.r - 1)) + 1
        public = self._generator * secret
        return KeyPair(secret_key=secret, public_key=public)

    # -- signing -----------------------------------------------------------
    def _hash_message(self, message: bytes) -> Point:
        return hash_to_point(message, self.params)

    def _key_bytes(self, key: Point) -> bytes:
        """Memoised ``key.to_bytes()`` for long-lived public keys.

        The memo keys above are built from every signer's encoded key on
        each call, hits included.  Keyed on identity — hashing a point
        costs as much as encoding it — with the point pinned in the entry
        so its id cannot be recycled while the entry lives.
        """
        entry = self._key_bytes_cache.get(id(key))
        if entry is None:
            if len(self._key_bytes_cache) >= self.MEMO_MAX:
                self._key_bytes_cache.clear()
            entry = self._key_bytes_cache[id(key)] = (key, key.to_bytes())
        return entry[1]

    def sign(self, secret_key: int, message: bytes, signer: int) -> SignatureShare:
        point = comb_mult(self._hash_message(message), secret_key)
        return SignatureShare(signer=signer, value=point)

    def well_formed(self, share: SignatureShare) -> bool:
        value = share.value
        return isinstance(value, Point) and not value.is_infinity and value.is_on_curve()

    def verify_share(self, share: SignatureShare, message: bytes, public_key: Point) -> bool:
        if not self.well_formed(share):
            return False
        # Generator and H(m) first: their Miller ladders are cached (the
        # generator's forever, the message hash's within the block).
        return tate_check(
            self._generator, share.value, self._hash_message(message), public_key
        )

    def _weighted_key(
        self, aggregate: AggregateSignature, public_keys: Mapping[int, Any]
    ) -> Optional[Point]:
        """The multiplicity-weighted public-key sum for ``aggregate``.

        Memoised on the (key bytes, multiplicity) multiset — tree shapes
        repeat across blocks, so after warm-up this is a dict hit instead
        of a sum over the signers.  ``None`` marks malformed
        multiplicities (non-positive weight or unknown signer).
        """
        entries = []
        for signer, mult in sorted(aggregate.multiplicities.items()):
            key = public_keys.get(signer)
            if mult <= 0 or key is None:
                return None
            entries.append((self._key_bytes(key), mult))
        weight_key = tuple(entries)
        weighted = self._weighted_key_cache.get(weight_key)
        if weighted is None:
            weighted = weighted_sum(
                (
                    (public_keys[signer], mult)
                    for signer, mult in aggregate.multiplicities.items()
                ),
                self.params,
            )
            if len(self._weighted_key_cache) >= self.MEMO_MAX:
                self._weighted_key_cache.clear()
            self._weighted_key_cache[weight_key] = weighted
        return weighted

    # -- aggregation -------------------------------------------------------
    def aggregate(self, parts: Iterable[Contribution]) -> AggregateSignature:
        parts = normalize_contributions(parts)
        multiplicities = _tally_multiplicities(parts)
        terms = []
        for part, weight in parts:
            if not isinstance(part.value, Point):
                raise TypeError("BLS aggregation requires curve-point signature values")
            terms.append((part.value, weight))
        return AggregateSignature(
            value=weighted_sum(terms, self.params), multiplicities=multiplicities
        )

    def _aggregate_key(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> Optional[Tuple[bytes, Tuple[Tuple[bytes, int], ...], bytes]]:
        """Canonical memo key for one aggregate verification, or ``None``
        when the multiplicities are malformed (non-positive or unknown
        signer) and verification must fail outright."""
        entries = []
        for signer, mult in sorted(aggregate.multiplicities.items()):
            key = public_keys.get(signer)
            if mult <= 0 or key is None:
                return None
            entries.append((self._key_bytes(key), mult))
        return (aggregate.value.to_bytes(), tuple(entries), message)

    def trust_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> None:
        """Seed the verified-aggregate memo with a collector-built value.

        The collector verified every contribution before folding it in, so
        by bilinearity the sum verifies; recording that here means the
        QC's first :meth:`verify_aggregate` is a dict hit instead of a
        fresh pairing check.
        """
        if not isinstance(aggregate.value, Point) or not aggregate.multiplicities:
            return
        cache_key = self._aggregate_key(aggregate, message, public_keys)
        if cache_key is None:
            return
        if len(self._aggregate_cache) >= self.MEMO_MAX:
            self._aggregate_cache.clear()
        self._aggregate_cache[cache_key] = True

    def verify_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> bool:
        if not isinstance(aggregate.value, Point) or not aggregate.value.is_on_curve():
            # A decoded point is unchecked: an off-curve value is refused
            # before the memo and the pairing, as verify_share refuses one.
            return False
        if not aggregate.multiplicities:
            return aggregate.value.is_infinity
        # Verified-result memo: the hot path re-verifies the same aggregate
        # many times (every replica checks the QC embedded in a proposal,
        # the tree root checks each internal aggregate it forwards, ...).
        # A verification is a pure function of (value, weighted keys,
        # message), so the result can be served from a dict after the first
        # full check — the standard verified-signature cache of production
        # consensus implementations.  Keys are canonical byte encodings, so
        # the memo stays sound even if one scheme instance serves several
        # committees.
        cache_key = self._aggregate_key(aggregate, message, public_keys)
        if cache_key is None:
            return False
        cached = self._aggregate_cache.get(cache_key)
        if cached is not None:
            return cached
        # The multiplicity-weighted key sum only depends on the (key,
        # multiplicity) multiset, which repeats across blocks (the tree
        # shapes are few), so the key sum is memoised separately from the
        # verification result.
        weighted_key = self._weighted_key(aggregate, public_keys)
        result = tate_check(
            self._generator, aggregate.value, self._hash_message(message), weighted_key
        )
        if len(self._aggregate_cache) >= self.MEMO_MAX:
            self._aggregate_cache.clear()
        self._aggregate_cache[cache_key] = result
        return result
