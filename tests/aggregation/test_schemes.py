"""Unit tests for the aggregation scheme registry and message types."""

import pytest

from repro.aggregation.base import make_aggregator
from repro.aggregation.messages import (
    AckMessage,
    NewViewMessage,
    ProposalMessage,
    SecondChanceMessage,
    SecondChanceReply,
    SignatureMessage,
)
from repro.aggregation.star import StarAggregator
from repro.aggregation.tree_agg import TreeAggregator
from repro.consensus.block import GENESIS_ID, Block, genesis_block, genesis_qc
from repro.consensus.config import ConsensusConfig
from repro.consensus.mempool import Mempool
from repro.consensus.replica import HotStuffReplica
from repro.core.iniva import InivaAggregator
from repro.crypto.hash_backend import HashMultiSig
from repro.crypto.keys import Committee
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.experiments.runner import build_deployment
from repro.simnet.events import Simulator
from repro.simnet.network import Network

SCHEMES = ["star", "tree", "iniva", "kauri", "gosig"]


def make_replica(aggregation="iniva"):
    config = ConsensusConfig(committee_size=7, aggregation=aggregation)
    simulator = Simulator()
    network = Network(simulator)
    committee = Committee(HashMultiSig(), 7, seed=1)
    return HotStuffReplica(0, simulator, network, committee, config, Mempool())


class TestRegistry:
    def test_star_registered(self):
        replica = make_replica("star")
        assert isinstance(replica.aggregator, StarAggregator)

    def test_tree_registered(self):
        replica = make_replica("tree")
        assert isinstance(replica.aggregator, TreeAggregator)

    def test_iniva_registered(self):
        replica = make_replica("iniva")
        assert isinstance(replica.aggregator, InivaAggregator)

    def test_unknown_scheme_raises(self):
        replica = make_replica("star")
        with pytest.raises(KeyError):
            make_aggregator("gossip", replica)

    def test_iniva_extends_tree_aggregator(self):
        assert issubclass(InivaAggregator, TreeAggregator)


class TestMessages:
    def test_message_sizes_positive(self):
        block = genesis_block()
        aggregate = AggregateSignature(value=b"x", multiplicities={1: 1})
        share = SignatureShare(signer=1, value=b"s")
        messages = [
            ProposalMessage(block),
            SignatureMessage("b", 1, share),
            AckMessage("b", 1, aggregate),
            SecondChanceMessage(block, aggregate),
            SecondChanceReply("b", 1, share),
            NewViewMessage(3, genesis_qc()),
        ]
        assert all(m.size_bytes > 0 for m in messages)

    def test_proposal_size_grows_with_payload(self):
        small = ProposalMessage(genesis_block())
        big_block = genesis_block()
        object.__setattr__(big_block, "payload_bytes", 10_000)
        big = ProposalMessage(big_block)
        assert big.size_bytes > small.size_bytes

    def test_messages_are_immutable(self):
        message = SignatureMessage("b", 1, SignatureShare(signer=1, value=b"s"))
        with pytest.raises(Exception):
            message.view = 2


def view_one_block(deployment):
    """The first block of the chain, as view 1's leader would propose it."""
    return Block(
        height=1,
        view=1,
        proposer=deployment.replicas[0].leader_of(1),
        parent_id=GENESIS_ID,
        qc=genesis_qc(),
    )


def counted_signers(state):
    """The signers a collector's round has folded in so far."""
    if hasattr(state, "shares"):  # star
        return set(state.shares)
    if hasattr(state, "included"):  # tree, iniva, kauri
        return set(state.included)
    return set(state.aggregate.signers)  # gosig


class TestAggregatorStateHandling:
    def test_unknown_message_type_not_consumed(self):
        replica = make_replica("star")
        assert replica.aggregator.handle(1, "not a protocol message") is False

    @pytest.mark.parametrize("aggregation", SCHEMES)
    def test_rounds_pruned(self, aggregation):
        deployment = build_deployment(ConsensusConfig(committee_size=7, aggregation=aggregation))
        aggregator = deployment.replicas[0].aggregator
        share = deployment.committee.sign(1, b"whatever")
        for index in range(200):
            vote = SignatureMessage(block_id=f"block-{index}", view=1, signature=share)
            assert aggregator.handle(1, vote) is True
        assert len(aggregator._rounds) == 64
        assert "block-199" in aggregator._rounds and "block-0" not in aggregator._rounds

    def test_prune_keeps_the_newest_rounds_in_insertion_order(self):
        aggregator = make_replica("iniva").aggregator
        for index in range(100):
            aggregator._round(f"block-{index}")
        assert list(aggregator._rounds) == [f"block-{index}" for index in range(36, 100)]
        aggregator._prune(keep=10)
        assert list(aggregator._rounds) == [f"block-{index}" for index in range(90, 100)]

    def test_iniva_ignores_ack_from_non_parent(self):
        deployment = build_deployment(ConsensusConfig(committee_size=7, aggregation="iniva"))
        replica = deployment.replicas[0]
        ack = AckMessage(block_id="nonexistent", view=1, aggregate=AggregateSignature(b"x", {0: 1}))
        # Handled (it is an Iniva message type) but must not crash or store state.
        assert replica.aggregator.handle(3, ack) is True
        assert replica.aggregator._rounds.get("nonexistent") is None

    @pytest.mark.parametrize("aggregation", SCHEMES)
    def test_overtaking_vote_folded_in(self, aggregation):
        deployment = build_deployment(ConsensusConfig(committee_size=7, aggregation=aggregation))
        block = view_one_block(deployment)
        collector = deployment.replicas[0].collector_for(block)
        aggregator = deployment.replicas[collector].aggregator
        if isinstance(aggregator, TreeAggregator):
            # The root takes individual shares only from its own children.
            tree = aggregator._build_tree(block)
            sender = tree.children(tree.root)[0]
        else:
            sender = next(pid for pid in range(7) if pid not in (collector, block.proposer))
        share = deployment.committee.sign(sender, block.signing_payload())
        vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=share)

        assert aggregator.handle(sender, vote) is True
        state = aggregator._rounds[block.block_id]
        assert state.pending == [(sender, vote)]

        assert aggregator.handle(block.proposer, ProposalMessage(block)) is True
        assert state.pending == []
        assert counted_signers(state) == {collector, sender}

    def test_second_chance_from_non_collector_touches_no_state(self, monkeypatch):
        deployment = build_deployment(ConsensusConfig(committee_size=7, aggregation="iniva"))
        block = view_one_block(deployment)
        collector = deployment.replicas[0].collector_for(block)
        replica = next(r for r in deployment.replicas if r.process_id != collector)
        forger = next(pid for pid in range(7) if pid not in (collector, replica.process_id))
        builds = []
        build_tree = replica.build_tree
        monkeypatch.setattr(replica, "build_tree", lambda b: builds.append(b) or build_tree(b))
        request = SecondChanceMessage(block=block, proof=None)

        assert replica.aggregator.handle(forger, request) is True
        assert replica.aggregator._rounds.get(block.block_id) is None
        assert builds == []
        # The collector's own request does open the round.
        assert replica.aggregator.handle(collector, request) is True
        assert block.block_id in replica.aggregator._rounds
        assert builds == [block]
