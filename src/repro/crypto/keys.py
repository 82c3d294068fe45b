"""Key material and committee registries.

Every process ``p_i`` holds a private/public key pair and knows the public
keys of all other committee members (paper, Section III).  The
:class:`Committee` helper builds and stores that registry for a chosen
multi-signature backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterator, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.multisig import MultiSignatureScheme

__all__ = ["KeyPair", "Committee", "bft_quorum"]


@dataclass(frozen=True)
class KeyPair:
    """A private/public key pair for one process.

    The concrete types of ``secret_key`` and ``public_key`` depend on the
    backend (integers and curve points for BLS, byte strings for the hash
    backend).
    """

    secret_key: Any
    public_key: Any


class Committee:
    """The fixed set of committee processes and their public keys.

    Process identities are the integers ``0 .. n-1``.  Per the paper's
    system model the committee is fixed for the duration of a run (the
    per-view *role* of a process is determined by the deterministic
    shuffle in :mod:`repro.tree`, not by changing the committee).
    """

    def __init__(self, scheme: "MultiSignatureScheme", size: int, seed: int = 0) -> None:
        if size <= 0:
            raise ValueError("committee size must be positive")
        self._scheme = scheme
        self._key_pairs: Dict[int, KeyPair] = {
            process_id: scheme.keygen(seed * 1_000_003 + process_id) for process_id in range(size)
        }
        # Membership is fixed, so the registry every verification reads is
        # built once and handed out read-only.
        self._public_keys: Mapping[int, Any] = MappingProxyType(
            {pid: pair.public_key for pid, pair in self._key_pairs.items()}
        )

    # -- basic accessors ---------------------------------------------------
    @property
    def scheme(self) -> "MultiSignatureScheme":
        return self._scheme

    @property
    def size(self) -> int:
        return len(self._key_pairs)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def key_pair(self, process_id: int) -> KeyPair:
        return self._key_pairs[process_id]

    def secret_key(self, process_id: int) -> Any:
        return self._key_pairs[process_id].secret_key

    def public_key(self, process_id: int) -> Any:
        return self._key_pairs[process_id].public_key

    def public_keys(self) -> Mapping[int, Any]:
        """The full ``process id -> public key`` registry (read-only)."""
        return self._public_keys

    # -- convenience wrappers ----------------------------------------------
    def sign(self, process_id: int, message: bytes):
        """Sign ``message`` as ``process_id`` using the committee's scheme."""
        return self._scheme.sign(self.secret_key(process_id), message, process_id)

    def verify_share(self, share, message: bytes) -> bool:
        return self._scheme.verify_share(share, message, self.public_key(share.signer))

    def verify_aggregate(self, aggregate, message: bytes) -> bool:
        return self._scheme.verify_aggregate(aggregate, message, self.public_keys())

    def trust_aggregate(self, aggregate, message: bytes) -> None:
        """Mark a collector-built aggregate as verified (backend cache seed)."""
        self._scheme.trust_aggregate(aggregate, message, self.public_keys())

    def quorum_size(self) -> int:
        """The minimal number of distinct signers for a valid QC (:func:`bft_quorum`)."""
        return bft_quorum(self.size)


def bft_quorum(committee_size: int) -> int:
    """Distinct signers a valid QC needs: ``floor(2n/3) + 1``.

    The one quorum rule: a root finalises at it and a verifier accepts at
    it.  It is the least count two of which always share an honest signer
    when fewer than a third of the ``n`` processes are faulty — 7 at
    ``n = 9``, where ``ceil(2n/3)`` would accept 6.
    """
    return (2 * committee_size) // 3 + 1
