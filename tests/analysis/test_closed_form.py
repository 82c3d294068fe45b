"""Tests for the tree-shape, Theorem 4 and Section VI closed forms in :mod:`repro.analysis.model`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import (
    Strategy,
    branch_exclusion_cost,
    branch_size,
    deviation_outcome,
    iniva_max_latency,
    iniva_omission,
    victim_loss_vote_omission,
)
from repro.core.rewards import RewardParams


def attacker_net_loss(strategy, attacker_power, params):
    """``L - m·R_redistributed``: the attacker's expected net loss."""
    return -deviation_outcome(strategy, attacker_power, params).net_gain


# ---------------------------------------------------------------------------
# Tree shape / omission probability
# ---------------------------------------------------------------------------
def test_branch_size_matches_paper_configurations():
    # 111 processes, 10 internal nodes -> 10 leaves per aggregator + itself.
    assert branch_size(111, 10) == 11
    # 21 processes, 4 internal nodes -> 4 leaves per aggregator + itself.
    assert branch_size(21, 4) == 5
    # Star-degenerate tree.
    assert branch_size(21, 0) == 1
    with pytest.raises(ValueError):
        branch_size(1, 1)


def test_iniva_c_omission_small_collateral_is_m_squared():
    assert iniva_omission(0.1, collateral=0) == pytest.approx(0.01)
    assert iniva_omission(0.1, collateral=5) == pytest.approx(0.01)


def test_iniva_c_omission_degrades_to_m_for_whole_branch():
    assert iniva_omission(0.1, collateral=10) == pytest.approx(0.1)
    assert iniva_omission(0.1, collateral=50) == pytest.approx(0.1)


def test_iniva_c_omission_validation():
    with pytest.raises(ValueError):
        iniva_omission(1.5)
    with pytest.raises(ValueError):
        iniva_omission(0.1, collateral=-1)


def test_table1_factor_of_ten_claim():
    """The paper: at m = 10 % the omission probability drops by 10x vs star."""
    star = 0.10
    iniva = iniva_omission(0.10, collateral=0)
    assert star / iniva == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Reward-loss expressions
# ---------------------------------------------------------------------------
def test_branch_exclusion_cost_grows_with_branch_size():
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    small_branches = branch_exclusion_cost(111, 10, params)   # 11-process branch
    large_branches = branch_exclusion_cost(109, 4, params)    # 27-process branch
    assert large_branches > small_branches
    assert small_branches > 0


def test_branch_exclusion_cost_versus_star():
    """Excluding one vote in the star costs far less than a branch in Iniva."""
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    star_cost = (1 / 111) / params.fault_fraction * params.leader_bonus
    iniva_cost = branch_exclusion_cost(111, 10, params)
    assert iniva_cost / star_cost > 5  # the paper reports a factor of ~7


def test_attacker_loss_vote_omission_sign_depends_on_bonus():
    """Equation 3: honest behaviour dominates when b_l is large enough."""
    generous = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    assert attacker_net_loss(Strategy(leader_omission=0.05), 0.1, generous) > 0
    stingy = RewardParams(leader_bonus=0.001, aggregation_bonus=0.02)
    assert attacker_net_loss(Strategy(leader_omission=0.3), 0.4, stingy) < 0


def test_victim_loss_is_linear_in_omitted_fraction():
    params = RewardParams()
    half = victim_loss_vote_omission(0.5, params)
    full = victim_loss_vote_omission(1.0, params)
    assert full == pytest.approx(2 * half)
    assert victim_loss_vote_omission(0.0, params) == 0.0


def test_vote_denial_costs_attacker_more_than_omission():
    """Figure 2c's observation: denial is the more expensive attack."""
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    m = 0.1
    fraction = 0.05
    denial = attacker_net_loss(Strategy(vote_denial=fraction), m, params)
    omission = attacker_net_loss(Strategy(leader_omission=fraction), m, params)
    assert denial > omission > 0


# ---------------------------------------------------------------------------
# Latency / liveness bounds
# ---------------------------------------------------------------------------
def test_iniva_max_latency_is_seven_delta():
    assert iniva_max_latency(0.005) == pytest.approx(0.035)
    with pytest.raises(ValueError):
        iniva_max_latency(0.0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=5, max_value=200),
    internal=st.integers(min_value=1, max_value=12),
    collateral=st.integers(min_value=0, max_value=50),
)
def test_property_c_omission_between_m_squared_and_m(m, n, internal, collateral):
    internal = min(internal, n - 2)
    probability = iniva_omission(m, collateral, n, internal)
    assert m ** 2 - 1e-12 <= probability <= m + 1e-12
