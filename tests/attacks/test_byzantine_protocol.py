"""End-to-end targeted vote-omission attacks against the live protocol.

These tests corrupt aggregators inside real simulated deployments — a
:class:`~repro.chaos.plan.ChaosPlan` names the coalition and the fault
drivers swap their aggregators — and check Theorem 4 at the protocol level: one corrupted role (parent *or*
collector) can never omit the victim — the fallback path or the
indivisible parent aggregate re-adds it — while a coalition that holds
both roles censors the victim whenever it sits in a leaf position.
"""

import pytest

from repro.attacks.byzantine import OmittingInivaAggregator
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.experiments.runner import build_deployment
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.engine import attach_chaos

COMMITTEE = 9
VICTIM = 6


def corrupt(deployment, attacker_ids, victim=VICTIM):
    plan = ChaosPlan(seed=0, attackers=tuple(attacker_ids), victim=victim)
    attach_chaos(deployment.replicas, deployment.network, plan)


def run_with_attackers(attacker_ids, seed=31, duration=1.5):
    config = ConsensusConfig(committee_size=COMMITTEE, batch_size=10, aggregation="iniva", seed=seed)
    deployment = build_deployment(config, warmup=0.1)
    ClientWorkload(rate=1500, payload_size=64, seed=5).attach(
        deployment.simulator, deployment.mempool, duration
    )
    corrupt(deployment, attacker_ids)
    deployment.start()
    deployment.simulator.run(until=duration)
    return deployment


def qc_records(deployment):
    """(tree, qc) pairs for every certificate embedded in the chain."""
    reference = next(r for r in deployment.correct_replicas())
    records = []
    for block in reference.blocks.values():
        if block.is_genesis or block.qc.is_genesis:
            continue
        certified = reference.blocks.get(block.qc.block_id)
        if certified is None or certified.is_genesis:
            continue
        records.append((reference.build_tree(certified), block.qc))
    assert len(records) >= 5
    return records


class TestSingleCorruptedRole:
    def test_corrupted_parent_alone_cannot_omit(self):
        """One Byzantine aggregator: the honest collector's 2ND-CHANCE saves the victim."""
        deployment = run_with_attackers(attacker_ids=[2])
        for _tree, qc in qc_records(deployment):
            if qc.collector == 2:
                continue  # analysed separately below
            assert VICTIM in qc.signers

    def test_corrupted_collector_alone_cannot_omit(self):
        """Only the collector is Byzantine: honest parents' aggregates are indivisible."""
        deployment = run_with_attackers(attacker_ids=[3])
        for tree, qc in qc_records(deployment):
            if qc.collector != 3:
                continue
            if tree.is_leaf(VICTIM) and tree.parent(VICTIM) != tree.root:
                # The victim travelled inside an honest parent's aggregate that
                # the collector could not decompose.
                assert VICTIM in qc.signers
                assert qc.aggregate.multiplicity(VICTIM) == 2

    def test_chain_keeps_making_progress_under_attack(self):
        deployment = run_with_attackers(attacker_ids=[2, 3])
        assert deployment.metrics.committed_operations() > 0


class TestColludingCoalition:
    def test_victim_censored_exactly_when_structurally_possible(self):
        """All other processes collude: leaves get censored, internal roles survive.

        With every process except the victim corrupted, the collector and the
        victim's parent are always attacker-controlled, so per Section VII-A
        the victim must be omitted whenever it is a leaf.  When the victim is
        an internal aggregator its own aggregate (which the collector cannot
        decompose) still carries its signature, and withholding the proposal
        is a proposer-side attack this coalition does not mount.
        """
        attackers = [pid for pid in range(COMMITTEE) if pid != VICTIM]
        deployment = run_with_attackers(attacker_ids=attackers, duration=2.0)
        leaf_views = internal_views = 0
        for tree, qc in qc_records(deployment):
            if tree.is_root(VICTIM):
                continue
            if tree.is_leaf(VICTIM):
                leaf_views += 1
                assert VICTIM not in qc.signers
            else:
                internal_views += 1
                assert VICTIM in qc.signers
        assert leaf_views > 0
        assert internal_views > 0

    def test_quorum_certificates_remain_valid_despite_censorship(self):
        attackers = [pid for pid in range(COMMITTEE) if pid != VICTIM]
        deployment = run_with_attackers(attacker_ids=attackers, duration=2.0)
        config_quorum = ConsensusConfig(committee_size=COMMITTEE).quorum_size
        for _tree, qc in qc_records(deployment):
            assert qc.size >= config_quorum
            assert deployment.committee.verify_aggregate(qc.aggregate, qc.signing_payload())


class TestAttackerConstruction:
    def test_victim_cannot_be_attacker(self):
        config = ConsensusConfig(committee_size=COMMITTEE, aggregation="iniva")
        deployment = build_deployment(config)
        with pytest.raises(ValueError):
            corrupt(deployment, [VICTIM])

    def test_corrupted_replica_uses_byzantine_aggregator(self):
        config = ConsensusConfig(committee_size=COMMITTEE, aggregation="iniva")
        deployment = build_deployment(config)
        corrupt(deployment, [1, 2])
        assert isinstance(deployment.replicas[1].aggregator, OmittingInivaAggregator)
        assert deployment.replicas[1].aggregator.victim == VICTIM
        assert not isinstance(deployment.replicas[0].aggregator, OmittingInivaAggregator)
