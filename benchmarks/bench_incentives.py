"""Section VI — incentive compatibility of the reward parameters.

Sweeps the attacker power and reports the admissible leader-bonus range
(Equations 3 and 5) together with a grid-based dominance check of
Theorem 3 for the paper's parameters (b_l = 15 %, b_a = 2 %).
"""

from benchmarks.conftest import run_once
from repro.analysis.model import honest_strategy_dominates, recommended_bonus_range
from repro.core.rewards import RewardParams


def test_incentive_analysis(benchmark):
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)

    def harness():
        rows = []
        for m in (0.05, 0.10, 0.20, 0.30, 0.33):
            lower, upper = recommended_bonus_range(m, params.aggregation_bonus)
            rows.append(
                {
                    "attacker_power": m,
                    "min_leader_bonus": round(lower, 4),
                    "max_leader_bonus": round(upper, 4),
                    "paper_bl_compatible": lower < params.leader_bonus < upper,
                    "honest_dominates": honest_strategy_dominates(m, params),
                }
            )
        return rows

    rows = run_once(benchmark, harness, "Incentive compatibility of b_l = 0.15, b_a = 0.02")
    assert all(row["paper_bl_compatible"] for row in rows)
    assert all(row["honest_dominates"] for row in rows)
