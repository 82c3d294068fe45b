"""Integration tests: full consensus runs on the simulator.

These tests exercise the whole stack — crypto, tree, simulator, HotStuff
replicas and the aggregation schemes — and check the protocol-level
guarantees the paper relies on: progress, chain safety, and the expected
vote-inclusion behaviour of each scheme.
"""

import pytest

from repro.aggregation.messages import SignatureMessage
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.experiments.runner import build_deployment, summarise
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.engine import attach_chaos


def run_deployment(config, duration=1.5, rate=2000, plan=None, drop_rule=None):
    deployment = build_deployment(config, warmup=0.2)
    ClientWorkload(rate=rate, payload_size=config.payload_size, seed=7).attach(
        deployment.simulator, deployment.mempool, duration
    )
    if plan is not None:
        attach_chaos(deployment.replicas, deployment.network, plan)
    if drop_rule is not None:
        deployment.network.add_drop_rule(drop_rule)
    deployment.start()
    deployment.simulator.run(until=duration)
    return deployment, summarise(deployment, duration)


def committed_chain(replica):
    """The committed block ids of a replica, ordered by height."""
    blocks = [replica.blocks[bid] for bid in replica.committed_blocks]
    return [b.block_id for b in sorted(blocks, key=lambda b: b.height)]


@pytest.mark.parametrize("scheme", ["star", "tree", "iniva"])
class TestFaultFreeRuns:
    def test_progress_and_commit(self, scheme):
        config = ConsensusConfig(committee_size=7, batch_size=20, aggregation=scheme, seed=2)
        _deployment, result = run_deployment(config)
        assert result.committed_operations > 0
        assert result.throughput > 0
        assert result.failed_view_fraction < 0.05

    def test_chain_safety_no_forks(self, scheme):
        config = ConsensusConfig(committee_size=7, batch_size=20, aggregation=scheme, seed=3)
        deployment, _result = run_deployment(config)
        chains = [committed_chain(r) for r in deployment.replicas]
        longest = max(chains, key=len)
        for chain in chains:
            assert chain == longest[: len(chain)]

    def test_latency_reasonable(self, scheme):
        config = ConsensusConfig(committee_size=7, batch_size=20, aggregation=scheme, seed=4)
        _deployment, result = run_deployment(config)
        assert 0 < result.latency.mean < 1.0


class TestInclusionBehaviour:
    def test_star_includes_only_quorum(self):
        config = ConsensusConfig(committee_size=9, batch_size=20, aggregation="star", seed=5)
        _deployment, result = run_deployment(config)
        assert result.average_qc_size == pytest.approx(config.quorum_size, abs=0.5)

    def test_iniva_includes_everyone_without_faults(self):
        config = ConsensusConfig(committee_size=9, batch_size=20, aggregation="iniva", seed=5)
        _deployment, result = run_deployment(config)
        assert result.average_qc_size == pytest.approx(9, abs=0.2)

    def test_iniva_beats_plain_tree_on_inclusion_under_faults(self):
        plan = ChaosPlan(seed=0, crashes={3: 0.0})
        results = {}
        for scheme in ("tree", "iniva"):
            config = ConsensusConfig(committee_size=9, batch_size=20, aggregation=scheme, seed=6)
            _deployment, result = run_deployment(config, plan=plan)
            results[scheme] = result
        assert results["iniva"].average_qc_size >= results["tree"].average_qc_size
        # Iniva re-adds every correct process despite the crash.
        assert results["iniva"].average_qc_size >= 9 - 1 - 0.5

    def test_iniva_uses_second_chance_under_faults(self):
        config = ConsensusConfig(committee_size=9, batch_size=20, aggregation="iniva", seed=6)
        plan = ChaosPlan(seed=0, crashes={2: 0.0, 5: 0.0})
        _deployment, result = run_deployment(config, plan=plan)
        assert result.second_chance_inclusions > 0
        assert result.committed_operations > 0


class TestCrashResilience:
    @pytest.mark.parametrize("scheme", ["star", "iniva"])
    def test_progress_with_crashes(self, scheme):
        config = ConsensusConfig(
            committee_size=9, batch_size=20, aggregation=scheme, seed=8, view_timeout=0.1
        )
        plan = ChaosPlan(seed=0, crashes={1: 0.0, 4: 0.0})
        _deployment, result = run_deployment(config, duration=2.5, plan=plan)
        assert result.committed_operations > 0
        assert result.failed_view_fraction < 0.9

    def test_safety_preserved_under_crashes(self):
        config = ConsensusConfig(
            committee_size=9, batch_size=20, aggregation="iniva", seed=9, view_timeout=0.1
        )
        plan = ChaosPlan(seed=0, crashes={0: 0.0, 7: 0.0})
        deployment, _result = run_deployment(config, duration=2.5, plan=plan)
        chains = [committed_chain(r) for r in deployment.correct_replicas()]
        longest = max(chains, key=len)
        for chain in chains:
            assert chain == longest[: len(chain)]


class TestMessageLossRobustness:
    def test_iniva_recovers_suppressed_votes_via_second_chance(self):
        """A victim whose tree votes are all dropped is still included by Iniva."""
        victim = 4

        def drop_victim_votes(src, dst, message):
            return src == victim and isinstance(message, SignatureMessage)

        config = ConsensusConfig(committee_size=9, batch_size=20, aggregation="iniva", seed=10)
        _deployment, result = run_deployment(config, drop_rule=drop_victim_votes)
        # The victim is re-added through 2ND-CHANCE replies, so QCs stay full.
        assert result.average_qc_size == pytest.approx(9, abs=0.3)
        assert result.second_chance_inclusions > 0

    def test_plain_tree_loses_suppressed_votes(self):
        victim = 4

        def drop_victim_votes(src, dst, message):
            return src == victim and isinstance(message, SignatureMessage)

        config = ConsensusConfig(committee_size=9, batch_size=20, aggregation="tree", seed=10)
        _deployment, result = run_deployment(config, drop_rule=drop_victim_votes)
        assert result.average_qc_size <= 8.5

    def test_iniva_survives_random_message_loss(self):
        config = ConsensusConfig(
            committee_size=7, batch_size=20, aggregation="iniva", seed=11, view_timeout=0.1
        )
        deployment = build_deployment(config, warmup=0.2, loss_probability=0.02)
        ClientWorkload(rate=1000, payload_size=64, seed=7).attach(
            deployment.simulator, deployment.mempool, 2.0
        )
        deployment.start()
        deployment.simulator.run(until=2.0)
        result = summarise(deployment, 2.0)
        assert result.committed_operations > 0
