"""Fast deterministic simulation backend for indivisible multi-signatures.

Monte-Carlo attack simulations and the discrete-event experiments perform
hundreds of thousands of aggregations; real pairings would dominate the
runtime without changing any protocol-level behaviour.  ``HashMultiSig``
therefore models the *algebra* of an indivisible multi-signature scheme
(aggregation, multiplicities, canonical aggregate values) with SHA-256:

* A share is ``H(tag, public_key, message)``.
* An aggregate value is a hash over the message and the sorted
  ``(signer, multiplicity, share)`` triples it contains, so any two honest
  aggregations of the same multiset produce the same value.
* There is no operation to remove a signer from an aggregate, and the
  aggregate value is a one-way function of its contents, which mirrors the
  indivisibility assumption.

**This backend is not cryptographically secure** — shares are derivable
from public data.  It is a documented substitution (see DESIGN.md) used
only where the experiments measure protocol behaviour, never to claim
cryptographic strength.  The interface and multiplicity semantics are
identical to :class:`repro.crypto.bls.BlsMultiSig`.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Iterable, Mapping

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

__all__ = ["HashMultiSig"]


def _sha(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.digest()


@register_scheme
class HashMultiSig(MultiSignatureScheme):
    """Hash-based stand-in with BLS-compatible aggregation semantics."""

    name = "hash"

    def __init__(self, domain: bytes = b"iniva-hash-multisig") -> None:
        self._domain = domain

    # -- key management ----------------------------------------------------
    def keygen(self, seed: int) -> KeyPair:
        secret = _sha(self._domain, b"sk", seed.to_bytes(16, "big", signed=True))
        public = _sha(self._domain, b"pk", secret)
        return KeyPair(secret_key=secret, public_key=public)

    # -- signing -----------------------------------------------------------
    def _share_value(self, public_key: bytes, message: bytes) -> bytes:
        return _sha(self._domain, b"share", public_key, message)

    def sign(self, secret_key: bytes, message: bytes, signer: int) -> SignatureShare:
        public = _sha(self._domain, b"pk", secret_key)
        return SignatureShare(signer=signer, value=self._share_value(public, message))

    def well_formed(self, share: SignatureShare) -> bool:
        return isinstance(share.value, bytes)

    def verify_share(self, share: SignatureShare, message: bytes, public_key: bytes) -> bool:
        if not self.well_formed(share):
            return False
        expected = self._share_value(public_key, message)
        return hmac.compare_digest(expected, share.value)

    # -- aggregation -------------------------------------------------------
    def aggregate(self, parts: Iterable[Contribution]) -> AggregateSignature:
        parts = normalize_contributions(parts)
        multiplicities = _tally_multiplicities(parts)
        shares: dict[int, bytes] = {}
        for part, _weight in parts:
            if isinstance(part, SignatureShare):
                shares[part.signer] = part.value
            else:
                shares.update(part.value.get("shares", {}))
        missing = set(multiplicities) - set(shares)
        if missing:
            raise ValueError(f"missing share values for signers {sorted(missing)}")
        value = {
            "digest": self._digest(multiplicities, shares),
            "shares": {s: shares[s] for s in multiplicities},
        }
        return AggregateSignature(value=value, multiplicities=multiplicities)

    def _digest(self, multiplicities: Mapping[int, int], shares: Mapping[int, bytes]) -> bytes:
        acc = hashlib.sha256()
        acc.update(self._domain)
        for signer in sorted(multiplicities):
            acc.update(signer.to_bytes(8, "big"))
            acc.update(multiplicities[signer].to_bytes(8, "big"))
            acc.update(shares[signer])
        return acc.digest()

    def verify_aggregate(
        self,
        aggregate: AggregateSignature,
        message: bytes,
        public_keys: Mapping[int, Any],
    ) -> bool:
        value = aggregate.value
        if not isinstance(value, dict) or "digest" not in value or "shares" not in value:
            return False
        shares: Mapping[int, bytes] = value["shares"]
        for signer, mult in aggregate.multiplicities.items():
            if mult <= 0:
                return False
            if signer not in public_keys or signer not in shares:
                return False
            expected = self._share_value(public_keys[signer], message)
            if not hmac.compare_digest(expected, shares[signer]):
                return False
        if set(shares) != set(aggregate.multiplicities):
            return False
        expected_digest = self._digest(aggregate.multiplicities, shares)
        return hmac.compare_digest(expected_digest, value["digest"])
