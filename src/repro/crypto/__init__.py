"""Cryptographic substrate: indivisible multi-signature schemes.

The paper relies on an *indivisible* multi-signature scheme (BLS) in which

* signatures on the same message can be aggregated,
* the same signature may be included with a *multiplicity* larger than one,
* it is infeasible to remove an individual signature from an aggregate.

Two interchangeable backends implement the
:class:`~repro.crypto.multisig.MultiSignatureScheme` interface:

``BlsMultiSig``
    A real pairing-based BLS multi-signature over a supersingular curve
    (the original Boneh-Lynn-Shacham construction), implemented from
    scratch in pure Python (:mod:`repro.crypto.field`,
    :mod:`repro.crypto.curve`, :mod:`repro.crypto.pairing`).  This is the
    correctness reference.

``HashSigMultiSig``
    The default fast-simulation backend for experiment sweeps: an additive
    SHA-256 accumulator with identical aggregation and multiplicity
    semantics but O(1) folding cost and no pairing math.  *Not*
    cryptographically secure.
"""

from repro.crypto.keys import Committee, KeyPair
from repro.crypto.multisig import (
    AggregateSignature,
    HashSigMultiSig,
    MultiSignatureScheme,
    SignatureShare,
    get_scheme,
    normalize_contributions,
    run_scheme,
)
from repro.crypto.bls import BlsMultiSig
from repro.crypto.params import CurveParams, DEFAULT_PARAMS, TOY_PARAMS

__all__ = [
    "AggregateSignature",
    "BlsMultiSig",
    "Committee",
    "CurveParams",
    "DEFAULT_PARAMS",
    "HashSigMultiSig",
    "KeyPair",
    "MultiSignatureScheme",
    "SignatureShare",
    "TOY_PARAMS",
    "get_scheme",
    "normalize_contributions",
    "run_scheme",
]
