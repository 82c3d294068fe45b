"""Tests for Iniva's reward mechanism (Section V-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rewards import (
    RewardParams,
    _reward_threshold,
    compute_rewards,
    compute_star_rewards,
    validate_multiplicities,
)
from repro.crypto.keys import bft_quorum
from repro.tree.overlay import AggregationTree


@pytest.fixture(scope="module")
def tree():
    # root 0; internals 1, 2; leaves 3..6.
    return AggregationTree.from_assignment(root=0, leaf_assignment={1: [3, 4], 2: [5, 6]})


def honest(tree):
    multiplicities = {tree.root: 1}
    for internal in tree.internal_nodes:
        children = tree.children(internal)
        multiplicities[internal] = 1 + len(children)
        for child in children:
            multiplicities[child] = 2
    return multiplicities


PARAMS = RewardParams(total_reward=1.0, leader_bonus=0.15, aggregation_bonus=0.02)


class TestRewardParams:
    def test_voting_fraction(self):
        assert PARAMS.voting_fraction == pytest.approx(0.83)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RewardParams(total_reward=0)
        with pytest.raises(ValueError):
            RewardParams(leader_bonus=1.2)
        with pytest.raises(ValueError):
            RewardParams(leader_bonus=0.6, aggregation_bonus=0.5)
        with pytest.raises(ValueError):
            RewardParams(fault_fraction=0)


class TestHonestDistribution:
    def test_total_payout_equals_reward(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)

    def test_everyone_included_gets_voting_reward(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        voting_share = PARAMS.voting_fraction / tree.size
        for pid in tree.processes:
            assert distribution.voting_rewards[pid] == pytest.approx(voting_share)

    def test_internal_nodes_earn_aggregation_bonus(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        unit = PARAMS.aggregation_bonus / tree.size
        for internal in tree.internal_nodes:
            expected = unit * len(tree.children(internal))
            assert distribution.aggregation_rewards[internal] == pytest.approx(expected)

    def test_leader_earns_full_bonus_when_all_included(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        assert distribution.leader_reward == pytest.approx(PARAMS.leader_bonus)

    def test_leader_earns_subtree_aggregation_bonus(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        unit = PARAMS.aggregation_bonus / tree.size
        assert distribution.aggregation_rewards[tree.root] == pytest.approx(unit * 2)

    def test_no_punishments_in_honest_round(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        assert distribution.punishments == {}

    def test_internal_earns_more_than_leaf(self, tree):
        distribution = compute_rewards(tree, honest(tree), PARAMS)
        assert distribution.reward_of(1) > distribution.reward_of(3)
        assert distribution.reward_of(tree.root) > distribution.reward_of(1)


class TestSecondChancePunishment:
    def test_leaf_included_via_second_chance_is_punished(self, tree):
        multiplicities = honest(tree)
        multiplicities[3] = 1          # leaf 3 came in via 2ND-CHANCE
        multiplicities[1] = 2          # its parent aggregated only one child
        distribution = compute_rewards(tree, multiplicities, PARAMS)
        unit = PARAMS.aggregation_bonus / tree.size
        voting_share = PARAMS.voting_fraction / tree.size
        assert distribution.punishments[3] == pytest.approx(unit)
        assert distribution.voting_rewards[3] == pytest.approx(voting_share - unit)
        # The parent loses the aggregation bonus for that child.
        assert distribution.aggregation_rewards[1] == pytest.approx(unit)
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)

    def test_punished_leaf_still_earns_more_than_omitted(self, tree):
        punished = honest(tree)
        punished[3] = 1
        punished[1] = 2
        omitted = honest(tree)
        omitted[3] = 0
        omitted[1] = 2
        punished_reward = compute_rewards(tree, punished, PARAMS).reward_of(3)
        omitted_reward = compute_rewards(tree, omitted, PARAMS).reward_of(3)
        assert punished_reward > omitted_reward


class TestOmissionEffects:
    def test_omitted_process_loses_voting_reward(self, tree):
        multiplicities = honest(tree)
        multiplicities[5] = 0
        multiplicities[2] = 2
        distribution = compute_rewards(tree, multiplicities, PARAMS)
        assert 5 not in distribution.included
        assert distribution.voting_rewards.get(5) is None
        # Redistribution keeps the total constant.
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)

    def test_leader_bonus_shrinks_with_omissions(self, tree):
        full = compute_rewards(tree, honest(tree), PARAMS)
        partial_mult = honest(tree)
        partial_mult[5] = 0
        partial_mult[2] = 2
        partial = compute_rewards(tree, partial_mult, PARAMS)
        assert partial.leader_reward < full.leader_reward

    def test_fraction_of_fair_share(self, tree):
        multiplicities = honest(tree)
        multiplicities[5] = 0
        multiplicities[2] = 2
        distribution = compute_rewards(tree, multiplicities, PARAMS)
        assert distribution.fraction_of_fair_share(5) < 0
        assert distribution.fair_share() == pytest.approx(1.0 / tree.size)

    def test_absent_leader_earns_nothing(self, tree):
        multiplicities = honest(tree)
        multiplicities[tree.root] = 0
        distribution = compute_rewards(tree, multiplicities, PARAMS)
        assert distribution.leader_reward == 0.0
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)


class TestValidation:
    def test_honest_multiplicities_are_valid(self, tree):
        assert validate_multiplicities(tree, honest(tree)) == []

    def test_wrong_internal_multiplicity_detected(self, tree):
        multiplicities = honest(tree)
        multiplicities[1] = 5
        violations = validate_multiplicities(tree, multiplicities)
        assert violations and "internal 1" in violations[0]

    def test_wrong_leaf_multiplicity_detected(self, tree):
        multiplicities = honest(tree)
        multiplicities[3] = 4
        assert validate_multiplicities(tree, multiplicities)

    def test_wrong_root_multiplicity_detected(self, tree):
        multiplicities = honest(tree)
        multiplicities[tree.root] = 3
        assert validate_multiplicities(tree, multiplicities)

    def test_absent_internal_with_aggregated_children_detected(self, tree):
        multiplicities = honest(tree)
        multiplicities[1] = 0
        assert validate_multiplicities(tree, multiplicities)

    def test_second_chance_multiplicities_are_valid(self, tree):
        multiplicities = honest(tree)
        multiplicities[3] = 1
        multiplicities[1] = 2
        assert validate_multiplicities(tree, multiplicities) == []


class TestStarRewards:
    def test_total_conserved(self):
        distribution = compute_star_rewards(10, leader=0, included=range(10), params=PARAMS)
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)

    def test_omitted_process_loses_reward(self):
        full = compute_star_rewards(10, 0, range(10), PARAMS)
        partial = compute_star_rewards(10, 0, [pid for pid in range(10) if pid != 5], PARAMS)
        assert partial.reward_of(5) < full.reward_of(5)
        assert partial.total_paid() == pytest.approx(PARAMS.total_reward)

    def test_leader_bonus_scales_with_inclusion(self):
        full = compute_star_rewards(9, 0, range(9), PARAMS)
        quorum_only = compute_star_rewards(9, 0, range(6), PARAMS)
        assert quorum_only.leader_reward < full.leader_reward


class TestConservationProperty:
    @given(
        mults=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
        root_included=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_always_equals_reward(self, tree, mults, root_included):
        multiplicities = {tree.root: 1 if root_included else 0}
        for leaf, mult in zip((3, 4, 5, 6), mults):
            multiplicities[leaf] = mult
        for internal in (1, 2):
            aggregated = sum(
                1 for child in tree.children(internal) if multiplicities.get(child) == 2
            )
            multiplicities[internal] = 1 + aggregated
        distribution = compute_rewards(tree, multiplicities, PARAMS)
        assert distribution.total_paid() == pytest.approx(PARAMS.total_reward)
        assert all(value >= -1e-12 for value in distribution.payouts.values())


def test_reward_threshold_is_bft_quorum_except_at_exact_thirds():
    """The float ``ceil((1 - f)·n)`` lands on ``2n/3`` only at ``n = 3·2^k``."""
    params = RewardParams()
    exact_thirds = {3 * 2 ** k for k in range(7)}
    for n in range(2, 301):
        assert _reward_threshold(n, params) == bft_quorum(n) - (n in exact_thirds), n
