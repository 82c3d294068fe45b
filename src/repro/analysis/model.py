"""The paper's analysis: each closed form stated once.

* Table I's rows and Theorem 4 — the c-omission probability of the star
  protocol (``m``), of a randomized tree and of Iniva (``m²``, or ``m``
  once the collateral covers a whole branch);
* the reward the leader forfeits by excluding a branch;
* Section VI's incentive analysis — the outcome of every deviation
  ``S(e_l, e_v, e_a, e_p)``, Equations 3, 5 and 6, and the grid check of
  Theorem 3;
* the 7Δ latency bound of Section V-C.

The Monte-Carlo estimators in :mod:`repro.attacks` sample the same
quantities from concrete role assignments and cross-check these values.
Gosig has no closed form: its Table I row is a Monte-Carlo estimate from
:class:`repro.attacks.gosig_sim.GosigSimulator`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Tuple

from repro.attacks.gosig_sim import GosigConfig, GosigSimulator
from repro.core.rewards import RewardParams

__all__ = [
    "AttackOutcome",
    "SchemeProperties",
    "Strategy",
    "aggregation_denial_condition",
    "branch_exclusion_cost",
    "branch_size",
    "deviation_outcome",
    "format_table1",
    "honest_strategy_dominates",
    "iniva_max_latency",
    "iniva_omission",
    "randomized_tree_omission",
    "recommended_bonus_range",
    "star_omission",
    "strategy_grid",
    "table1",
    "victim_loss_vote_omission",
    "vote_denial_condition",
    "vote_omission_condition",
]


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_section_vi_power(attacker_power: float) -> None:
    """Section VI's one input rule: the attacker is a minority, ``m ∈ (0, 0.5)``."""
    if not 0.0 < attacker_power < 0.5:
        raise ValueError("the incentive analysis requires an attacker power m in (0, 0.5)")


# ---------------------------------------------------------------------------
# Tree shape, Table I and Theorem 4
# ---------------------------------------------------------------------------
def branch_size(committee_size: int, num_internal: int) -> int:
    """Number of processes in one branch: the aggregator plus its leaves.

    With ``n`` processes, one root and ``i`` internal aggregators, each
    aggregator serves about ``(n - 1 - i) / i`` leaves.
    """
    if committee_size < 2:
        raise ValueError("committee must have at least two processes")
    if num_internal <= 0:
        # Star-degenerate tree: the "branch" of a victim is just itself.
        return 1
    leaves = committee_size - 1 - num_internal
    return 1 + math.ceil(leaves / num_internal)


def star_omission(attacker_power: float) -> float:
    """Star protocol: the collector alone decides inclusion, so ``m`` (Table I)."""
    _check_fraction(attacker_power, "attacker power")
    return attacker_power


def randomized_tree_omission(attacker_power: float, rounds_controlled: int = 1) -> float:
    """A static randomized tree whose configuration the leader controls.

    Once the attacker holds the leader it can reconfigure the tree so it
    also controls the victim's parent, and in a static configuration it can
    repeat the attack every round (Table I footnote a): the probability is
    ``m`` per round and approaches certainty over repeated rounds.
    """
    _check_fraction(attacker_power, "attacker power")
    return 1.0 - (1.0 - attacker_power) ** max(rounds_controlled, 1)


def iniva_omission(
    attacker_power: float,
    collateral: int = 0,
    committee_size: int = 111,
    num_internal: int = 10,
) -> float:
    """Iniva's c-omission probability (Theorem 4 and Section VII-A).

    With collateral below a full branch the attacker must control two
    independently assigned roles — the collector plus either the victim's
    parent (victim is a leaf) or the previous proposer (victim is an
    internal node) — so the probability is ``P·m² + (1-P)·m² = m²``.  Once
    the collateral covers the rest of the victim's branch, the collector
    alone suffices: it drops the whole subtree and the probability
    degrades to ``m``.  ``m²`` is the large-``n`` limit; at finite ``n``
    the attacker set is drawn without replacement.
    """
    _check_fraction(attacker_power, "attacker power")
    if collateral < 0:
        raise ValueError("collateral cannot be negative")
    if collateral >= branch_size(committee_size, num_internal) - 1:
        return attacker_power
    return attacker_power ** 2


def branch_exclusion_cost(
    committee_size: int,
    num_internal: int,
    params: Optional[RewardParams] = None,
) -> float:
    """Expected reward the leader forfeits by excluding one whole branch.

    Dropping a branch of ``a + 1`` processes costs the leader
    ``e_l / f * b_l * R`` of its variational bonus (Equation 2 with
    ``e_l = (a + 1) / n``) plus the aggregation bonus it would have earned
    for that subtree.
    """
    params = params or RewardParams()
    fraction = branch_size(committee_size, num_internal) / committee_size
    leader_loss = (fraction / params.fault_fraction) * params.leader_bonus * params.total_reward
    aggregation_loss = params.aggregation_bonus * params.total_reward / committee_size
    return leader_loss + aggregation_loss


@dataclass(frozen=True)
class SchemeProperties:
    """One row of Table I.

    Attributes:
        name: Scheme name as it appears in the paper.
        zero_omission: The paper's 0-omission entry (``m``, ``m^2``,
            ``k``-dependent, ...).
        zero_omission_value: Its value at the configured attacker power.
        inclusive: Whether the scheme satisfies Inclusiveness.
        incentive_compatible: Whether honest aggregation is a dominant
            strategy under the scheme's rewards.
    """

    name: str
    zero_omission: str
    zero_omission_value: float
    inclusive: bool
    incentive_compatible: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.name,
            "0-omission probability": self.zero_omission,
            "0-omission value": self.zero_omission_value,
            "inclusive": self.inclusive,
            "incentive compatible": self.incentive_compatible,
        }


def table1(
    attacker_power: float = 0.1,
    gossip_fanout: int = 2,
    gosig_trials: int = 800,
    seed: int = 0,
) -> List[SchemeProperties]:
    """Table I at attacker power ``m``.

    The star, randomized-tree and Iniva values are the closed forms above.
    Gosig's value is ``k``-dependent with no closed form (Table I
    footnote b), so its row runs :class:`GosigSimulator` for
    ``gosig_trials`` sampled rounds.
    """
    gosig = GosigSimulator(
        GosigConfig(gossip_fanout=gossip_fanout, attacker_power=attacker_power), seed=seed
    ).omission_probability(trials=gosig_trials)
    return [
        SchemeProperties("Star protocol", "m", star_omission(attacker_power), True, True),
        SchemeProperties(
            "Randomized tree",
            "m (every round in a static configuration)",
            randomized_tree_omission(attacker_power),
            False,
            True,
        ),
        SchemeProperties(
            f"Gosig (k={gossip_fanout})", "k-dependent", gosig.probability, False, False
        ),
        SchemeProperties("Iniva", "m^2", iniva_omission(attacker_power), True, True),
    ]


def format_table1(rows: List[SchemeProperties]) -> str:
    """Render Table I as an aligned text table."""
    header = f"{'Scheme':<18} {'0-omission':<40} {'Value':>8} {'Inclusive':>10} {'Incentive-compat.':>18}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<18} {row.zero_omission:<40} {row.zero_omission_value:>8.4f} "
            f"{str(row.inclusive):>10} {str(row.incentive_compatible):>18}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Section VI: the incentive analysis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Strategy:
    """An attacker strategy ``S(e_l, e_v, e_a, e_p)``.

    ``e_l``: votes the attacker omits as leader; ``e_v``: votes it
    withholds as voters; ``e_a``: leaves that refuse their parent
    (aggregation denial); ``e_p``: leaves its internal nodes skip
    (aggregation omission).  All are fractions of the committee size; the
    honest strategy is ``Strategy(0, 0, 0, 0)``.
    """

    leader_omission: float = 0.0
    vote_denial: float = 0.0
    aggregation_denial: float = 0.0
    aggregation_omission: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _check_fraction(value, name)

    @property
    def is_honest(self) -> bool:
        return not any(astuple(self))


@dataclass(frozen=True)
class AttackOutcome:
    """Expected per-round outcome of a deviation.

    ``attacker_loss`` is ``L[S']``, the reward the attacker forfeits;
    ``redistributed`` is ``R[S']``, the pot returned evenly to the
    committee, of which the attacker recovers the fraction ``m``.
    """

    attacker_loss: float
    redistributed: float
    attacker_power: float

    @property
    def net_gain(self) -> float:
        return self.attacker_power * self.redistributed - self.attacker_loss

    @property
    def dominated_by_honest(self) -> bool:
        return self.net_gain <= 0


def deviation_outcome(
    strategy: Strategy, attacker_power: float, params: Optional[RewardParams] = None
) -> AttackOutcome:
    """The outcome of ``strategy`` for an attacker of power ``m`` (Section VI).

    The four deviations' losses and pots add up:

    * vote omission: the leader forfeits ``e_l / f · b_l · R`` of its
      variational bonus (Equation 2); that bonus and the omitted votes'
      aggregation and voting rewards are redistributed.  ``e_l`` is
      clamped at ``f``: a leader omitting more than ``f·n`` votes forms no
      certificate, so it never forfeits more than its whole bonus
      ``b_l · R``;
    * vote denial: the attacker loses ``e_v · b_v · R`` of voting reward,
      and the leader and aggregation bonuses those votes carried are
      redistributed with it.  The leader-bonus share ``e_v / f · b_l · R``
      clamps ``e_v`` at ``f`` by the same rule as ``e_l``: the pot never
      holds more than the whole bonus ``b_l · R``;
    * aggregation denial: leaves that bypass their parent are punished by
      ``e_a · b_a · R``, and the parent's forgone bonus joins the pot;
    * aggregation omission: internal nodes lose ``e_p · b_a · R`` of
      aggregation bonus, and the skipped leaves' punishment joins the pot.
    """
    _check_section_vi_power(attacker_power)
    params = params or RewardParams()
    reward, f = params.total_reward, params.fault_fraction
    el = min(strategy.leader_omission, f)
    ev = strategy.vote_denial
    lost_leader_bonus = (el / f) * params.leader_bonus * reward
    lost_voting = ev * params.voting_fraction * reward
    punished = strategy.aggregation_denial * params.aggregation_bonus * reward
    lost_aggregation = strategy.aggregation_omission * params.aggregation_bonus * reward
    # (loss, pot) per deviation, summed last, so a single deviation's
    # outcome is exactly its own closed form.
    parts = [
        (
            lost_leader_bonus,
            lost_leader_bonus
            + el * params.aggregation_bonus * reward
            + el * params.voting_fraction * reward,
        ),
        (
            lost_voting,
            (min(ev, f) / f) * params.leader_bonus * reward
            + ev * params.aggregation_bonus * reward
            + lost_voting,
        ),
        (punished, 2 * punished),
        (lost_aggregation, 2 * lost_aggregation),
    ]
    return AttackOutcome(
        attacker_loss=sum(loss for loss, _ in parts),
        redistributed=sum(pot for _, pot in parts),
        attacker_power=attacker_power,
    )


def victim_loss_vote_omission(
    omitted_fraction: float, params: Optional[RewardParams] = None
) -> float:
    """Expected loss of the omitted processes: their voting reward."""
    _check_fraction(omitted_fraction, "omitted fraction")
    params = params or RewardParams()
    return omitted_fraction * params.voting_fraction * params.total_reward


def vote_omission_condition(attacker_power: float, fault_fraction: float = 1 / 3) -> float:
    """Equation (3): vote omission is unprofitable iff ``b_l > m·f / (1 - m + m·f)``."""
    _check_section_vi_power(attacker_power)
    m, f = attacker_power, fault_fraction
    return (m * f) / (1 - m + m * f)


def vote_denial_condition(
    attacker_power: float, aggregation_bonus: float, fault_fraction: float = 1 / 3
) -> float:
    """Equation (5): vote denial is unprofitable iff ``b_l < f(1 - b_a - m) / (m + f - m·f)``."""
    _check_section_vi_power(attacker_power)
    m, f, ba = attacker_power, fault_fraction, aggregation_bonus
    return f * (1 - ba - m) / (m + f - m * f)


def aggregation_denial_condition(attacker_power: float) -> bool:
    """Equation (6): ``m² e_a b_a < e_a b_a``, i.e. ``m < 1`` — true for every admissible ``m``.

    Refusing to aggregate (or to be aggregated) costs the attacker the
    aggregation bonus it tries to save, so it never profits.
    """
    _check_section_vi_power(attacker_power)
    return attacker_power < 1.0


def recommended_bonus_range(
    attacker_power: float, aggregation_bonus: float, fault_fraction: float = 1 / 3
) -> Tuple[float, float]:
    """The open interval of leader bonuses ``b_l`` that Equations 3 and 5 admit."""
    return (
        vote_omission_condition(attacker_power, fault_fraction),
        vote_denial_condition(attacker_power, aggregation_bonus, fault_fraction),
    )


def strategy_grid(fault_fraction: float = 1 / 3, steps: int = 4) -> List[Strategy]:
    """Every strategy whose four fractions lie on ``{0, f/steps, ..., f}``."""
    fractions = [i / steps * fault_fraction for i in range(steps + 1)]
    return [Strategy(*point) for point in itertools.product(fractions, repeat=4)]


def honest_strategy_dominates(
    attacker_power: float, params: Optional[RewardParams] = None
) -> bool:
    """Theorem 3 on :func:`strategy_grid`: no deviation gains over honesty.

    A gain within ``1e-12`` of zero is rounding, not profit.
    """
    _check_section_vi_power(attacker_power)
    params = params or RewardParams()
    return all(
        strategy.is_honest
        or deviation_outcome(strategy, attacker_power, params).net_gain <= 1e-12
        for strategy in strategy_grid(params.fault_fraction)
    )


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------
def iniva_max_latency(delta: float) -> float:
    """The 7Δ worst-case round latency derived in Section V-C."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return 7.0 * delta
