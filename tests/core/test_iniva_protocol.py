"""Protocol-level tests of the Iniva aggregator (Algorithm 1).

These tests run small simulated deployments and then inspect the quorum
certificates that the collectors actually produced: the multiplicity
encoding must match Section V-B so that the reward scheme can be computed
and verified from the certificate alone.
"""

import pytest

from repro.aggregation.messages import SignatureMessage
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.core.rewards import compute_rewards, validate_multiplicities
from repro.experiments.runner import build_deployment, summarise
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.engine import attach_chaos


def run(config, duration=1.2, drop_rule=None, plan=None):
    deployment = build_deployment(config, warmup=0.1)
    ClientWorkload(rate=1500, payload_size=64, seed=3).attach(
        deployment.simulator, deployment.mempool, duration
    )
    if drop_rule is not None:
        deployment.network.add_drop_rule(drop_rule)
    if plan is not None:
        attach_chaos(deployment.replicas, deployment.network, plan)
    deployment.start()
    deployment.simulator.run(until=duration)
    return deployment


def collect_qcs_with_trees(deployment, minimum=3):
    """Yield (tree, qc) pairs for blocks whose QC is embedded in a child block."""
    reference = deployment.correct_replicas()[0]
    pairs = []
    for block in reference.blocks.values():
        if block.is_genesis or block.qc.is_genesis:
            continue
        parent = reference.blocks.get(block.qc.block_id)
        if parent is None or parent.is_genesis:
            continue
        tree = reference.build_tree(parent)
        pairs.append((tree, block.qc))
    assert len(pairs) >= minimum
    return pairs


class TestMultiplicityEncoding:
    def test_fault_free_multiplicities_follow_the_paper(self):
        config = ConsensusConfig(committee_size=9, batch_size=10, aggregation="iniva", seed=21)
        deployment = run(config)
        for tree, qc in collect_qcs_with_trees(deployment):
            multiplicities = dict(qc.aggregate.multiplicities)
            assert validate_multiplicities(tree, multiplicities) == []
            assert multiplicities[tree.root] == 1
            for internal in tree.internal_nodes:
                aggregated = sum(
                    1 for child in tree.children(internal) if multiplicities.get(child, 0) == 2
                )
                assert multiplicities[internal] == 1 + aggregated

    def test_collector_matches_tree_root(self):
        config = ConsensusConfig(committee_size=9, batch_size=10, aggregation="iniva", seed=22)
        deployment = run(config)
        for tree, qc in collect_qcs_with_trees(deployment):
            assert qc.collector == tree.root

    def test_rewards_computable_from_every_qc(self):
        config = ConsensusConfig(committee_size=9, batch_size=10, aggregation="iniva", seed=23)
        deployment = run(config)
        for tree, qc in collect_qcs_with_trees(deployment):
            distribution = compute_rewards(tree, qc.aggregate.multiplicities)
            assert distribution.total_paid() == pytest.approx(1.0)
            assert distribution.leader == qc.collector

    def test_suppressed_vote_reappears_with_multiplicity_one(self):
        """A process whose tree votes are dropped is re-added via 2ND-CHANCE."""
        victim = 5

        def drop(src, dst, message):
            return src == victim and isinstance(message, SignatureMessage)

        config = ConsensusConfig(committee_size=9, batch_size=10, aggregation="iniva", seed=24)
        deployment = run(config, drop_rule=drop)
        second_chance_mults = []
        for tree, qc in collect_qcs_with_trees(deployment):
            mult = qc.aggregate.multiplicity(victim)
            assert mult >= 1  # inclusiveness: never omitted
            if tree.is_leaf(victim) and tree.parent(victim) != tree.root:
                second_chance_mults.append(mult)
        # Whenever the victim was a leaf its vote had to come through the
        # fallback path, which the certificate records as multiplicity 1.
        assert second_chance_mults and all(m == 1 for m in second_chance_mults)


class TestInclusiveness:
    def test_all_correct_processes_included_despite_crashes(self):
        config = ConsensusConfig(committee_size=9, batch_size=10, aggregation="iniva", seed=25)
        plan = ChaosPlan(seed=0, crashes={2: 0.0})
        deployment = run(config, plan=plan, duration=1.5)
        correct = {pid for pid in range(9) if pid != 2}
        checked = 0
        for _tree, qc in collect_qcs_with_trees(deployment):
            if qc.collector == 2:
                continue
            # Skip the warm-up view right after the crash.
            if qc.size < len(correct):
                continue
            assert correct <= qc.signers
            checked += 1
        assert checked > 0

    def test_no2c_variant_omits_subtrees_under_crash(self):
        plan = ChaosPlan(seed=0, crashes={3: 0.0})
        sizes = {}
        for scheme in ("tree", "iniva"):
            config = ConsensusConfig(committee_size=9, batch_size=10, aggregation=scheme, seed=26)
            deployment = run(config, plan=plan, duration=1.5)
            result = summarise(deployment, 1.5)
            sizes[scheme] = result.average_qc_size
        assert sizes["iniva"] > sizes["tree"]


class TestSecondChanceValidity:
    def test_second_chance_not_needed_when_everyone_is_timely(self):
        config = ConsensusConfig(committee_size=7, batch_size=10, aggregation="iniva", seed=27)
        deployment = run(config)
        result = summarise(deployment, 1.2)
        # Fault-free and with generous timers the tree path includes everyone,
        # so fallback inclusions stay rare.
        assert result.second_chance_inclusions <= result.committed_blocks
