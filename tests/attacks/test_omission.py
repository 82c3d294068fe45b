"""Tests for the targeted vote-omission analysis (Section VII-A)."""


import pytest

from repro.analysis.model import iniva_omission, star_omission
from repro.attacks.adversary import AdversaryModel, RoleAssignment
from repro.attacks.omission import (
    IMPOSSIBLE,
    iniva_minimal_collateral,
    omission_probability,
    star_minimal_collateral,
)
from repro.tree.overlay import AggregationTree


TREE = AggregationTree.from_assignment(root=0, leaf_assignment={1: [3, 4, 5], 2: [6, 7, 8]})


def assignment(attacker, victim, proposer=9, tree=TREE):
    return RoleAssignment(attacker=frozenset(attacker), victim=victim, proposer=proposer, tree=tree)


class TestAdversaryModel:
    def test_attacker_count(self):
        model = AdversaryModel(100, 0.1, seed=1)
        assert model.attacker_count == 10

    def test_sample_roles_are_consistent(self):
        model = AdversaryModel(21, 0.2, num_internal=4, seed=2)
        sample = model.sample(view=3)
        assert len(sample.attacker) == 4
        assert sample.victim not in sample.attacker
        assert sample.tree is not None and sample.tree.size == 21
        assert sample.collector == sample.tree.root

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdversaryModel(2, 0.1)
        with pytest.raises(ValueError):
            AdversaryModel(10, 1.5)

    def test_sample_without_tree(self):
        sample = AdversaryModel(10, 0.2, seed=3).sample(build_tree=False)
        assert sample.tree is None and sample.collector is None


class TestStarCollateral:
    def test_attack_free_when_leader_corrupted(self):
        assert star_minimal_collateral(assignment({9}, victim=3, proposer=9)) == 0.0

    def test_impossible_with_honest_leader(self):
        assert star_minimal_collateral(assignment({1, 2}, victim=3, proposer=9)) == IMPOSSIBLE


class TestInivaCollateral:
    def test_honest_root_blocks_attack(self):
        assert iniva_minimal_collateral(assignment({1, 9}, victim=3)) == IMPOSSIBLE

    def test_leaf_with_corrupted_parent_is_free(self):
        assert iniva_minimal_collateral(assignment({0, 1}, victim=3)) == 0.0

    def test_leaf_with_honest_parent_costs_the_branch(self):
        # Branch of victim 3 is {1, 3, 4, 5}; parent 1 and siblings 4, 5 honest.
        assert iniva_minimal_collateral(assignment({0}, victim=3)) == 3.0

    def test_corrupted_siblings_reduce_collateral(self):
        assert iniva_minimal_collateral(assignment({0, 4}, victim=3)) == 2.0

    def test_internal_victim_with_corrupted_proposer_is_free(self):
        assert iniva_minimal_collateral(assignment({0, 9}, victim=1, proposer=9)) == 0.0

    def test_internal_victim_with_honest_proposer_costs_its_leaves(self):
        assert iniva_minimal_collateral(assignment({0}, victim=1, proposer=9)) == 3.0

    def test_root_victim_cannot_be_omitted(self):
        assert iniva_minimal_collateral(assignment({0, 1}, victim=0)) == IMPOSSIBLE

    def test_requires_tree(self):
        with pytest.raises(ValueError):
            iniva_minimal_collateral(
                RoleAssignment(attacker=frozenset({1}), victim=2, proposer=3, tree=None)
            )


class TestMonteCarloOmission:
    def test_iniva_matches_m_squared(self):
        outcome = omission_probability(0.2, collateral=0, committee_size=111, trials=6000, seed=1)
        expected = iniva_omission(0.2)
        assert outcome.probability == pytest.approx(expected, abs=3 * outcome.standard_error + 0.01)

    def test_star_matches_m(self):
        outcome = omission_probability(0.2, protocol="star", trials=6000, seed=2)
        assert outcome.probability == pytest.approx(star_omission(0.2), abs=0.02)

    def test_probability_monotone_in_attacker_power(self):
        low = omission_probability(0.05, trials=4000, seed=3).probability
        high = omission_probability(0.3, trials=4000, seed=3).probability
        assert high > low

    def test_probability_monotone_in_collateral(self):
        small = omission_probability(0.1, collateral=0, committee_size=21, num_internal=4, trials=4000, seed=4)
        large = omission_probability(0.1, collateral=5, committee_size=21, num_internal=4, trials=4000, seed=4)
        assert large.probability >= small.probability

    def test_collateral_below_branch_size_has_little_effect(self):
        # With fan-out 10 a branch has 11 members, so collateral 0 vs 5 barely
        # changes the outcome (the paper's Figure 2b claim for Iniva).
        base = omission_probability(0.05, collateral=0, trials=6000, seed=5).probability
        mid = omission_probability(0.05, collateral=5, trials=6000, seed=5).probability
        assert mid <= base * 2 + 0.01

    def test_iniva_much_safer_than_star(self):
        iniva = omission_probability(0.1, trials=5000, seed=6).probability
        star = star_omission(0.1)
        assert iniva < star / 3

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            omission_probability(0.1, protocol="carrier-pigeon", trials=10)

    def test_standard_error_reported(self):
        outcome = omission_probability(0.1, trials=1000, seed=7)
        assert 0 <= outcome.standard_error < 0.05
        assert outcome.successes <= outcome.trials


class TestAnalyticForms:
    def test_iniva_quadratic(self):
        assert iniva_omission(0.1) == pytest.approx(0.01)
        assert iniva_omission(0.3) == pytest.approx(0.09)

    def test_reduction_factor_at_ten_percent(self):
        # The paper's abstract: at m = 10 % the chance to omit an individual
        # signature drops by a factor of 10.
        factor = star_omission(0.1) / iniva_omission(0.1)
        assert factor == pytest.approx(10.0)

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            star_omission(-0.1)
