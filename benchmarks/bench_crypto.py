"""Micro-benchmarks of the multi-signature backends.

Not a paper figure, but useful for sizing the CPU cost model: measures
sign, verify and aggregate latency for the hashsig backend and the
pairing-based BLS backend on the toy curve.
"""

import pytest

from repro.crypto.bls import BlsMultiSig
from repro.crypto.multisig import HashSigMultiSig
from repro.crypto.keys import Committee
from repro.crypto.params import TOY_PARAMS

MESSAGE = b"vote|benchmark-block|1|1"


@pytest.fixture(scope="module")
def hashsig_committee():
    return Committee(HashSigMultiSig(), size=32, seed=1)


@pytest.fixture(scope="module")
def bls_committee():
    return Committee(BlsMultiSig(TOY_PARAMS), size=8, seed=1)


def test_hashsig_sign(benchmark, hashsig_committee):
    benchmark(hashsig_committee.sign, 0, MESSAGE)


def test_hashsig_verify_share(benchmark, hashsig_committee):
    share = hashsig_committee.sign(0, MESSAGE)
    benchmark(hashsig_committee.verify_share, share, MESSAGE)


def test_hashsig_aggregate_32(benchmark, hashsig_committee):
    shares = [hashsig_committee.sign(pid, MESSAGE) for pid in range(32)]
    contributions = [(share, 2) for share in shares]
    benchmark(hashsig_committee.scheme.aggregate, contributions)


def test_hashsig_verify_aggregate_32(benchmark, hashsig_committee):
    shares = [hashsig_committee.sign(pid, MESSAGE) for pid in range(32)]
    aggregate = hashsig_committee.scheme.aggregate([(share, 2) for share in shares])
    benchmark(hashsig_committee.verify_aggregate, aggregate, MESSAGE)


def test_bls_sign(benchmark, bls_committee):
    benchmark(bls_committee.sign, 0, MESSAGE)


def test_bls_verify_share(benchmark, bls_committee):
    share = bls_committee.sign(0, MESSAGE)
    benchmark(bls_committee.verify_share, share, MESSAGE)


def test_bls_aggregate_8(benchmark, bls_committee):
    shares = [bls_committee.sign(pid, MESSAGE) for pid in range(8)]
    benchmark(bls_committee.scheme.aggregate, [(share, 2) for share in shares])


def test_bls_verify_aggregate_8(benchmark, bls_committee):
    shares = [bls_committee.sign(pid, MESSAGE) for pid in range(8)]
    aggregate = bls_committee.scheme.aggregate([(share, 2) for share in shares])
    benchmark(bls_committee.verify_aggregate, aggregate, MESSAGE)
