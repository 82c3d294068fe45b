"""Tests for the game-theoretic incentive analysis (Section VI) in :mod:`repro.analysis.model`."""

import pytest

from repro.analysis.model import (
    Strategy,
    aggregation_denial_condition,
    deviation_outcome,
    honest_strategy_dominates,
    recommended_bonus_range,
    strategy_grid,
    vote_denial_condition,
    vote_omission_condition,
)
from repro.core.rewards import RewardParams


class TestStrategy:
    def test_honest_detection(self):
        assert Strategy().is_honest
        assert not Strategy(leader_omission=0.1).is_honest

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Strategy(vote_denial=1.5)
        with pytest.raises(ValueError):
            Strategy(aggregation_denial=-0.1)


class TestClosedFormConditions:
    def test_equation_3_value(self):
        # m = 0.1, f = 1/3: m*f / (1 - m + m*f) = (0.0333..) / 0.9333.. ~= 0.0357
        assert vote_omission_condition(0.1) == pytest.approx(0.0357, abs=1e-3)

    def test_equation_5_value(self):
        # f(1 - ba - m) / (m + f - mf) with ba=0.02, m=0.1, f=1/3 ~= 0.7333/1.1 ~= 0.7333
        assert vote_denial_condition(0.1, 0.02) == pytest.approx(0.7333, abs=1e-3)

    def test_equation_6_always_holds_below_one(self):
        assert aggregation_denial_condition(0.49)
        assert aggregation_denial_condition(0.01)
        # Section VI assumes m in (0, 0.5); outside it there is no analysis.
        for outside in (0.0, 1.0):
            with pytest.raises(ValueError):
                aggregation_denial_condition(outside)

    def test_bounds_grow_with_attacker_power(self):
        assert vote_omission_condition(0.3) > vote_omission_condition(0.1)
        assert vote_denial_condition(0.3, 0.02) < vote_denial_condition(0.1, 0.02)

    def test_papers_parameters_lie_in_recommended_range(self):
        # b_l = 0.15, b_a = 0.02 from the paper's simulations, m up to 1/3.
        lower, upper = recommended_bonus_range(1 / 3, 0.02)
        assert lower < 0.15 < upper


class TestIncentiveAnalysis:
    PARAMS = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    M = 0.2

    def outcome(self, params=PARAMS, attacker_power=M, **fractions):
        return deviation_outcome(Strategy(**fractions), attacker_power, params)

    def test_rejects_majority_attacker(self):
        with pytest.raises(ValueError):
            deviation_outcome(Strategy(), 0.6)

    def test_vote_omission_not_profitable(self):
        outcome = self.outcome(leader_omission=0.2)
        assert outcome.dominated_by_honest
        assert outcome.attacker_loss > 0

    def test_vote_denial_not_profitable(self):
        assert self.outcome(vote_denial=0.2).dominated_by_honest

    def test_aggregation_attacks_not_profitable(self):
        assert self.outcome(aggregation_denial=0.1).dominated_by_honest
        assert self.outcome(aggregation_omission=0.1).dominated_by_honest

    def test_combined_strategy_dominated(self):
        strategy = Strategy(0.1, 0.1, 0.05, 0.05)
        assert deviation_outcome(strategy, self.M, self.PARAMS).dominated_by_honest

    def test_theorem3_dominance_over_grid(self):
        assert honest_strategy_dominates(self.M, self.PARAMS)

    def test_incentive_compatibility_of_paper_parameters(self):
        lower, upper = recommended_bonus_range(self.M, self.PARAMS.aggregation_bonus)
        assert lower < self.PARAMS.leader_bonus < upper

    def test_too_small_leader_bonus_breaks_compatibility(self):
        params = RewardParams(leader_bonus=0.01, aggregation_bonus=0.02)
        lower, _ = recommended_bonus_range(0.3, params.aggregation_bonus)
        assert params.leader_bonus <= lower
        # And vote omission indeed becomes profitable for the attacker.
        assert not self.outcome(params, 0.3, leader_omission=0.3).dominated_by_honest
        assert not honest_strategy_dominates(0.3, params)

    def test_excessive_leader_bonus_breaks_compatibility(self):
        params = RewardParams(leader_bonus=0.8, aggregation_bonus=0.02)
        _, upper = recommended_bonus_range(0.3, params.aggregation_bonus)
        assert params.leader_bonus >= upper
        assert not self.outcome(params, 0.3, vote_denial=0.3).dominated_by_honest

    def test_summary_keys(self):
        # The range's ends are Equation 3's minimum and Equation 5's maximum.
        lower, upper = recommended_bonus_range(self.M, self.PARAMS.aggregation_bonus)
        assert lower == vote_omission_condition(self.M)
        assert upper == vote_denial_condition(self.M, self.PARAMS.aggregation_bonus)

    def test_honest_strategy_has_zero_outcome(self):
        outcome = self.outcome()
        assert outcome.attacker_loss == pytest.approx(0.0)
        assert outcome.redistributed == pytest.approx(0.0)

    def test_strategy_grid_contains_honest_and_extremes(self):
        grid = strategy_grid(steps=2)
        assert any(s.is_honest for s in grid)
        assert len(grid) == 3 ** 4
