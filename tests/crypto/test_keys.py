"""Tests for key material and committee registries."""

import pytest

from repro.consensus.config import ConsensusConfig
from repro.crypto.multisig import HashSigMultiSig
from repro.crypto.keys import Committee


@pytest.fixture(scope="module")
def committee():
    return Committee(HashSigMultiSig(), size=9, seed=3)


class TestCommittee:
    def test_size_and_iteration(self, committee):
        assert committee.size == 9
        assert len(committee) == 9
        assert list(committee) == list(range(9))

    def test_rejects_empty_committee(self):
        with pytest.raises(ValueError):
            Committee(HashSigMultiSig(), size=0)

    def test_keys_are_distinct(self, committee):
        publics = set(committee.public_keys().values())
        assert len(publics) == 9

    def test_deterministic_for_seed(self):
        first = Committee(HashSigMultiSig(), size=4, seed=7)
        second = Committee(HashSigMultiSig(), size=4, seed=7)
        assert first.public_keys() == second.public_keys()

    def test_different_seed_different_keys(self):
        first = Committee(HashSigMultiSig(), size=4, seed=7)
        second = Committee(HashSigMultiSig(), size=4, seed=8)
        assert first.public_keys() != second.public_keys()

    def test_sign_and_verify_share(self, committee):
        share = committee.sign(2, b"message")
        assert share.signer == 2
        assert committee.verify_share(share, b"message")
        assert not committee.verify_share(share, b"another message")

    def test_verify_aggregate(self, committee):
        shares = [committee.sign(pid, b"message") for pid in range(4)]
        aggregate = committee.scheme.aggregate([(s, 1) for s in shares])
        assert committee.verify_aggregate(aggregate, b"message")

    def test_quorum_size(self, committee):
        # floor(2 * 9 / 3) + 1: the quorum a root finalises at, not ceil(2n/3) = 6.
        assert committee.quorum_size() == 7
        assert committee.quorum_size() == ConsensusConfig(committee_size=9).quorum_size

    def test_key_pair_accessors(self, committee):
        pair = committee.key_pair(0)
        assert pair.secret_key == committee.secret_key(0)
        assert pair.public_key == committee.public_key(0)
