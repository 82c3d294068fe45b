"""Soundness of the ``hashsig`` verified-aggregate memo.

Same contract as ``BlsMultiSig._aggregate_cache`` (see
``test_mixed_verification.py``): the key covers the message, the value,
the whole multiplicity map and the signer→key binding; only successful
verifications are recorded; the memo is bounded.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.crypto.keys import Committee
from repro.crypto.multisig import AggregateSignature, HashSigMultiSig, _HashSigAggregateValue

MESSAGE = b"vote|deadbeef|7|6"


@pytest.fixture()
def committee():
    return Committee(HashSigMultiSig(), size=6, seed=5)


def _aggregate(committee, signers=(0, 1, 2, 3), message=MESSAGE, weight=1):
    return committee.scheme.aggregate(
        [(committee.sign(pid, message), weight) for pid in signers]
    )


def _count_share_values(scheme, monkeypatch):
    calls = []
    share_value = scheme._share_value

    def counted(public_key, message):
        calls.append(public_key)
        return share_value(public_key, message)

    monkeypatch.setattr(scheme, "_share_value", counted)
    return calls


def test_verified_aggregate_hits(committee, monkeypatch):
    aggregate = _aggregate(committee)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    calls = _count_share_values(committee.scheme, monkeypatch)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    # An equal aggregate in another object (a decoded wire copy) hits too.
    twin = AggregateSignature(aggregate.value, dict(aggregate.multiplicities))
    assert committee.verify_aggregate(twin, MESSAGE)
    assert calls == []


def test_trust_aggregate_seeds_the_memo(committee, monkeypatch):
    aggregate = _aggregate(committee)
    calls = _count_share_values(committee.scheme, monkeypatch)
    committee.trust_aggregate(aggregate, MESSAGE)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    assert calls == []


def test_malformed_claims_are_never_seeded(committee):
    scheme = committee.scheme
    value = _aggregate(committee).value
    for multiplicities in ({99: 1}, {0: 1, 1: 0}, {0: -1}):
        bogus = AggregateSignature(value, multiplicities)
        committee.trust_aggregate(bogus, MESSAGE)
        assert not scheme._aggregate_cache
        assert not committee.verify_aggregate(bogus, MESSAGE)
    committee.trust_aggregate(AggregateSignature(12345, {0: 1}), MESSAGE)
    assert not scheme._aggregate_cache


def test_forged_value_under_honest_multiplicities_misses(committee):
    aggregate = _aggregate(committee)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    forged = AggregateSignature(
        _HashSigAggregateValue((aggregate.value.accumulator + 1) % (1 << 128)),
        aggregate.multiplicities,
    )
    assert not committee.verify_aggregate(forged, MESSAGE)


def test_same_value_with_other_multiplicities_misses(committee):
    aggregate = _aggregate(committee)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    doubled = AggregateSignature(aggregate.value, {**aggregate.multiplicities, 3: 2})
    dropped = AggregateSignature(aggregate.value, {0: 1, 1: 1, 2: 1})
    widened = AggregateSignature(aggregate.value, {**aggregate.multiplicities, 4: 1})
    for claim in (doubled, dropped, widened):
        assert not committee.verify_aggregate(claim, MESSAGE)


def test_same_value_on_another_message_misses(committee):
    aggregate = _aggregate(committee)
    assert committee.verify_aggregate(aggregate, MESSAGE)
    assert not committee.verify_aggregate(aggregate, b"vote|deadbeef|8|7")


def test_same_value_under_other_keys_misses():
    # One scheme instance serving two committees (the engine's per-epoch
    # committees do this): what one verified says nothing about the other.
    scheme = HashSigMultiSig()
    first = Committee(scheme, size=6, seed=5)
    second = Committee(scheme, size=6, seed=6)
    aggregate = _aggregate(first)
    assert first.verify_aggregate(aggregate, MESSAGE)
    assert not second.verify_aggregate(aggregate, MESSAGE)
    # One rebound signer is enough, and a plain mapping is keyed the same.
    rebound = {**first.public_keys(), 2: second.public_key(2)}
    assert not scheme.verify_aggregate(aggregate, MESSAGE, rebound)
    assert scheme.verify_aggregate(aggregate, MESSAGE, dict(first.public_keys()))


def test_a_key_dict_edited_in_place_is_read_again():
    # The last-key shortcut serves only the read-only committee registry:
    # a plain dict handed in twice may hold another key the second time.
    scheme = HashSigMultiSig()
    first = Committee(scheme, size=6, seed=5)
    aggregate = _aggregate(first)
    keys = dict(first.public_keys())
    assert scheme.verify_aggregate(aggregate, MESSAGE, keys)
    keys[2] = Committee(scheme, size=6, seed=6).public_key(2)
    assert not scheme.verify_aggregate(aggregate, MESSAGE, keys)
    # The registry object itself is reused across calls and keeps hitting.
    assert first.verify_aggregate(aggregate, MESSAGE)
    assert scheme._last_key[0] is aggregate
    assert first.verify_aggregate(aggregate, MESSAGE)


def test_sign_derives_each_public_key_once(monkeypatch):
    scheme = HashSigMultiSig()
    pair = scheme.keygen(3)
    first = scheme.sign(pair.secret_key, b"m1", 3)
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    second = scheme.sign(pair.secret_key, b"m2", 3)
    assert len(calls) == 1  # the share value; the public key came from the memo
    for message, share in ((b"m1", first), (b"m2", second)):
        assert share == HashSigMultiSig().sign(pair.secret_key, message, 3)
        assert scheme.verify_share(share, message, pair.public_key)


def test_failure_is_never_served_as_success(committee, monkeypatch):
    scheme = committee.scheme
    aggregate = _aggregate(committee)
    forged = AggregateSignature(_HashSigAggregateValue(7), aggregate.multiplicities)
    for _ in range(3):
        assert not committee.verify_aggregate(forged, MESSAGE)
    assert not scheme._aggregate_cache  # failures leave nothing behind
    # ... and are recomputed every time, not answered from anywhere.
    calls = _count_share_values(scheme, monkeypatch)
    assert not committee.verify_aggregate(forged, MESSAGE)
    assert len(calls) == len(aggregate.multiplicities)
    # The honest aggregate verifying afterwards does not vouch for it either.
    assert committee.verify_aggregate(aggregate, MESSAGE)
    assert not committee.verify_aggregate(forged, MESSAGE)


def test_memo_stays_bounded(committee):
    scheme = committee.scheme
    bound = scheme.AGGREGATE_CACHE_MAX
    for view in range(bound + 50):
        message = b"vote|%d" % view
        assert committee.verify_aggregate(_aggregate(committee, message=message), message)
        assert len(scheme._aggregate_cache) <= bound
    # Eviction forgets, it never corrupts: an evicted entry re-verifies.
    first = b"vote|0"
    assert committee.verify_aggregate(_aggregate(committee, message=first), first)
