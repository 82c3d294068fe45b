"""Pins of the paper's analysis (:mod:`repro.analysis.model`).

The literal values below, and ``golden_section_vi.json``, were produced by
the implementations the model replaced, so any drift in a formula shows
up here as an exact mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.model import (
    Strategy,
    branch_exclusion_cost,
    deviation_outcome,
    format_table1,
    iniva_omission,
    recommended_bonus_range,
    star_omission,
    table1,
)
from repro.core.rewards import RewardParams

TABLE1_ROWS = {
    0.05: [
        ("Star protocol", "m", 0.05, True, True),
        ("Randomized tree", "m (every round in a static configuration)", 0.050000000000000044, False, True),
        ("Gosig (k=2)", "k-dependent", 0.03, False, False),
        ("Iniva", "m^2", 0.0025000000000000005, True, True),
    ],
    0.1: [
        ("Star protocol", "m", 0.1, True, True),
        ("Randomized tree", "m (every round in a static configuration)", 0.09999999999999998, False, True),
        ("Gosig (k=2)", "k-dependent", 0.11, False, False),
        ("Iniva", "m^2", 0.010000000000000002, True, True),
    ],
    0.33: [
        ("Star protocol", "m", 0.33, True, True),
        ("Randomized tree", "m (every round in a static configuration)", 0.33000000000000007, False, True),
        ("Gosig (k=2)", "k-dependent", 0.37, False, False),
        ("Iniva", "m^2", 0.10890000000000001, True, True),
    ],
}

#: ``recommended_bonus_range(m, b_a=0.02)`` at the attacker powers bench_incentives sweeps.
BONUS_RANGES = {
    0.05: (0.017241379310344827, 0.8454545454545453),
    0.10: (0.03571428571428571, 0.7333333333333333),
    0.20: (0.07692307692307691, 0.5571428571428572),
    0.30: (0.125, 0.42499999999999993),
    0.33: (0.14102564102564105, 0.3915662650602409),
}

DEVIATIONS = ("vote_omission", "vote_denial", "aggregation_denial", "aggregation_omission")
GOLDEN_SECTION_VI = json.loads(
    (Path(__file__).with_name("golden_section_vi.json")).read_text()
)["outcomes"]


@pytest.mark.parametrize("m", sorted(TABLE1_ROWS))
def test_table1_rows_are_pinned(m):
    rows = table1(attacker_power=m, gosig_trials=100, seed=1)
    assert [
        (r.name, r.zero_omission, r.zero_omission_value, r.inclusive, r.incentive_compatible)
        for r in rows
    ] == TABLE1_ROWS[m]
    assert len(format_table1(rows).splitlines()) == len(rows) + 2


@pytest.mark.parametrize("row", GOLDEN_SECTION_VI, ids=lambda r: f"m{r['m']}-e{r['e']}")
def test_section_vi_outcomes_are_pinned(row):
    for index, deviation in enumerate(DEVIATIONS):
        fractions = [0.0] * 4
        fractions[index] = row["e"]
        outcome = deviation_outcome(Strategy(*fractions), row["m"])
        assert [outcome.attacker_loss, outcome.redistributed, outcome.net_gain] == row[deviation]


@pytest.mark.parametrize("m", sorted(BONUS_RANGES))
def test_recommended_bonus_range_is_pinned(m):
    assert recommended_bonus_range(m, 0.02) == BONUS_RANGES[m]


def test_branch_exclusion_cost_is_pinned():
    assert branch_exclusion_cost(111, 10) == 0.044774774774774775
    assert branch_exclusion_cost(109, 4) == 0.111651376146789


@pytest.mark.parametrize("leader_omission", [0.5, 1.0])
def test_leader_never_forfeits_more_than_its_bonus(leader_omission):
    """Omitting more than ``f·n`` votes forms no certificate: ``e_l`` is clamped at ``f``."""
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    outcome = deviation_outcome(Strategy(leader_omission=leader_omission), 0.1, params)
    bonus = params.leader_bonus * params.total_reward
    assert outcome.attacker_loss <= bonus
    assert -outcome.net_gain <= bonus
    assert -outcome.net_gain == pytest.approx(0.15 - 0.1 * (0.15 + (0.02 + 0.83) / 3))


@pytest.mark.parametrize("vote_denial", [0.5, 1.0])
def test_vote_denial_never_redistributes_more_than_the_leader_bonus(vote_denial):
    """Denying more than ``f·n`` votes carries at most the whole bonus: ``e_v`` is clamped at ``f``."""
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    outcome = deviation_outcome(Strategy(vote_denial=vote_denial), 0.1, params)
    reward = params.total_reward
    leader_bonus_share = outcome.redistributed - vote_denial * (
        params.aggregation_bonus + params.voting_fraction
    ) * reward
    assert leader_bonus_share <= params.leader_bonus * reward + 1e-12
    assert outcome.redistributed == pytest.approx(0.15 + vote_denial * (0.02 + 0.83))


@pytest.mark.parametrize("m", [0.0, 0.5, 0.6, -0.1])
def test_section_vi_requires_a_minority_attacker(m):
    with pytest.raises(ValueError):
        deviation_outcome(Strategy(leader_omission=0.1), m)
    with pytest.raises(ValueError):
        recommended_bonus_range(m, 0.02)


@pytest.mark.parametrize("formula", [star_omission, iniva_omission])
def test_table1_formulas_accept_any_power_in_unit_interval(formula):
    assert formula(0.0) == 0.0
    assert formula(1.0) == 1.0
    with pytest.raises(ValueError):
        formula(1.01)
