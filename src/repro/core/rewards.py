"""Iniva's rewarding mechanism (Section V-B of the paper).

The reward for one block is computed purely from public data — the
aggregation tree (reconstructable from the view number and previous QC)
and the signer multiplicities inside the quorum certificate — so every
process can recompute and verify the distribution chosen by the leader.

Multiplicity encoding (how provenance is proved without trusting the
leader):

* a leaf aggregated by its parent appears with multiplicity **2**;
* a leaf included through a 2ND-CHANCE message appears with
  multiplicity **1** (and is punished by ``b_a/n · R``);
* an internal node that aggregated ``k`` children appears with
  multiplicity ``1 + k`` (one extra copy of its own signature per child);
* the root/leader appears with multiplicity **1**.

Reward components (Requirements 1-4 of the paper):

* every included process receives the base voting reward ``b_v·R / n``;
* an internal node receives ``b_a/n · R`` per aggregated child, and the
  leader receives ``b_a/n · R`` per aggregated subtree;
* the leader receives ``b_l/(f·n) · R`` for every included signature
  beyond the minimal ``(1-f)·n`` quorum (the Cosmos-style variational
  bonus);
* all unearned or punished amounts are pooled and redistributed evenly
  over the whole committee, so the total paid per block is always ``R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.tree.overlay import AggregationTree

__all__ = [
    "RewardParams",
    "RewardDistribution",
    "compute_rewards",
    "compute_star_rewards",
    "validate_multiplicities",
]


@dataclass(frozen=True)
class RewardParams:
    """Parameters of the reward scheme.

    Attributes:
        total_reward: ``R``, the full amount distributed per block.
        leader_bonus: ``b_l`` — fraction of ``R`` reserved for the leader's
            variational bonus (0.15 in the paper's simulations).
        aggregation_bonus: ``b_a`` — fraction of ``R`` reserved for
            aggregation work (0.02 in the paper's simulations).
        fault_fraction: ``f`` — the protocol's fault threshold (1/3).
    """

    total_reward: float = 1.0
    leader_bonus: float = 0.15
    aggregation_bonus: float = 0.02
    fault_fraction: float = 1 / 3

    def __post_init__(self) -> None:
        if self.total_reward <= 0:
            raise ValueError("total reward must be positive")
        if not 0 <= self.leader_bonus < 1 or not 0 <= self.aggregation_bonus < 1:
            raise ValueError("bonus fractions must lie in [0, 1)")
        if self.leader_bonus + self.aggregation_bonus >= 1:
            raise ValueError("leader and aggregation bonuses must leave room for voting rewards")
        if not 0 < self.fault_fraction < 1:
            raise ValueError("fault fraction must lie in (0, 1)")

    @property
    def voting_fraction(self) -> float:
        """``b_v = 1 - b_l - b_a``."""
        return 1.0 - self.leader_bonus - self.aggregation_bonus


@dataclass
class RewardDistribution:
    """The outcome of the reward computation for one block.

    ``payouts`` always sums to ``params.total_reward`` (Requirement 4);
    the per-component breakdowns are kept for analysis and tests.
    """

    params: RewardParams
    committee_size: int
    payouts: Dict[int, float] = field(default_factory=dict)
    voting_rewards: Dict[int, float] = field(default_factory=dict)
    aggregation_rewards: Dict[int, float] = field(default_factory=dict)
    leader_reward: float = 0.0
    punishments: Dict[int, float] = field(default_factory=dict)
    redistributed: float = 0.0
    leader: Optional[int] = None
    included: Set[int] = field(default_factory=set)

    def reward_of(self, process_id: int) -> float:
        return self.payouts.get(process_id, 0.0)

    def total_paid(self) -> float:
        return sum(self.payouts.values())

    def fair_share(self) -> float:
        """The per-process payout when everyone behaves and is included."""
        return self.params.total_reward / self.committee_size

    def fraction_of_fair_share(self, process_id: int) -> float:
        """``reward / fair share - 1`` — the quantity plotted in Figure 2c."""
        fair = self.fair_share()
        if fair == 0:
            return 0.0
        return self.reward_of(process_id) / fair - 1.0


def _reward_threshold(committee_size: int, params: RewardParams) -> int:
    """The ``(1 - f)·n`` votes beyond which the leader's bonus grows (Equation 2).

    It is ``ceil((1 - f)·n)`` taken in floating point.  For ``f = 1/3`` the
    product rounds up past most whole thirds, so the value equals the
    consensus quorum :func:`repro.crypto.keys.bft_quorum` except where it
    lands on ``2n/3`` exactly (``n = 3·2^k``), where it is one less.  The
    reward figures 2c and 2d were computed with this value, so the scheme
    keeps it rather than switching to either integer reading.
    """
    return math.ceil((1 - params.fault_fraction) * committee_size)


def _leader_bonus(
    params: RewardParams, committee_size: int, leader_included: bool, votes: int
) -> float:
    """The leader's variational bonus for a certificate of ``votes`` signers.

    ``b_l·R`` scaled by the votes beyond the reward threshold (the
    Cosmos-style bonus); nothing when the leader's own vote is missing.
    """
    if not leader_included:
        return 0.0
    budget = params.leader_bonus * params.total_reward
    minimum_votes = _reward_threshold(committee_size, params)
    surplus_capacity = committee_size - minimum_votes
    if surplus_capacity <= 0:
        return budget
    surplus = max(votes - minimum_votes, 0)
    return budget * min(surplus / surplus_capacity, 1.0)


def validate_multiplicities(
    tree: AggregationTree, multiplicities: Mapping[int, int]
) -> List[str]:
    """Check that the QC's multiplicities are consistent with the tree.

    Returns a list of human-readable violations; an empty list means the
    leader reported a well-formed certificate.  Processes run this check
    before accepting the reward distribution — a leader reporting wrong
    multiplicities is considered faulty (Section V-B).
    """
    violations: List[str] = []
    mult = {pid: multiplicities.get(pid, 0) for pid in tree.processes}
    root_mult = mult[tree.root]
    if root_mult not in (0, 1):
        violations.append(f"root {tree.root} has multiplicity {root_mult}, expected 0 or 1")
    for leaf in tree.leaves:
        if mult[leaf] not in (0, 1, 2):
            violations.append(f"leaf {leaf} has multiplicity {mult[leaf]}, expected 0, 1 or 2")
    for internal in tree.internal_nodes:
        children = tree.children(internal)
        aggregated = sum(1 for child in children if mult[child] == 2)
        internal_mult = mult[internal]
        if internal_mult == 0:
            if aggregated:
                violations.append(
                    f"internal {internal} absent but {aggregated} children have multiplicity 2"
                )
            continue
        expected = 1 + aggregated
        if internal_mult != expected:
            violations.append(
                f"internal {internal} has multiplicity {internal_mult}, expected {expected} "
                f"(1 + {aggregated} aggregated children)"
            )
    return violations


def compute_rewards(
    tree: AggregationTree,
    multiplicities: Mapping[int, int],
    params: Optional[RewardParams] = None,
) -> RewardDistribution:
    """Compute the Iniva reward distribution for one block.

    Args:
        tree: The aggregation tree of the view (the root is the leader that
            collected the certificate).
        multiplicities: Signer multiplicities from the QC's aggregate.
        params: Reward parameters; defaults to the paper's values.

    Returns:
        A :class:`RewardDistribution` whose payouts sum to ``R``.
    """
    params = params or RewardParams()
    n = tree.size
    reward = params.total_reward
    unit_aggregation = params.aggregation_bonus * reward / n
    voting_share = params.voting_fraction * reward / n

    distribution = RewardDistribution(params=params, committee_size=n, leader=tree.root)
    mult = {pid: multiplicities.get(pid, 0) for pid in tree.processes}
    included = {pid for pid, m in mult.items() if m > 0}
    distribution.included = included

    pool = 0.0  # Forfeited / punished rewards, redistributed at the end.

    # -- voting rewards ------------------------------------------------------
    for pid in tree.processes:
        if pid in included:
            distribution.voting_rewards[pid] = voting_share
        else:
            pool += voting_share

    # -- aggregation bonuses and 2ND-CHANCE punishments -----------------------
    aggregation_budget = params.aggregation_bonus * reward
    earned_aggregation = 0.0
    for internal in tree.internal_nodes:
        children = tree.children(internal)
        aggregated_children = [child for child in children if mult[child] == 2]
        bonus = unit_aggregation * len(aggregated_children)
        if internal in included and bonus:
            distribution.aggregation_rewards[internal] = (
                distribution.aggregation_rewards.get(internal, 0.0) + bonus
            )
            earned_aggregation += bonus
        for child in children:
            if mult[child] == 1:
                # Included via 2ND-CHANCE: the child is punished by b_a/n * R.
                punishment = min(unit_aggregation, distribution.voting_rewards.get(child, 0.0))
                if punishment:
                    distribution.punishments[child] = (
                        distribution.punishments.get(child, 0.0) + punishment
                    )
                    distribution.voting_rewards[child] -= punishment
                    pool += punishment

    # The leader earns the aggregation bonus per aggregated subtree.
    if tree.root in included:
        aggregated_subtrees = sum(1 for internal in tree.internal_nodes if mult[internal] > 0)
        leader_aggregation = unit_aggregation * aggregated_subtrees
        if leader_aggregation:
            distribution.aggregation_rewards[tree.root] = (
                distribution.aggregation_rewards.get(tree.root, 0.0) + leader_aggregation
            )
            earned_aggregation += leader_aggregation
    pool += max(aggregation_budget - earned_aggregation, 0.0)

    # -- leader's variational bonus ---------------------------------------------
    distribution.leader_reward = _leader_bonus(params, n, tree.root in included, len(included))
    pool += params.leader_bonus * reward - distribution.leader_reward

    # -- redistribution (Requirement 4: the full R is always paid out) ------------
    distribution.redistributed = pool
    per_process_redistribution = pool / n

    for pid in tree.processes:
        payout = distribution.voting_rewards.get(pid, 0.0)
        payout += distribution.aggregation_rewards.get(pid, 0.0)
        if pid == tree.root:
            payout += distribution.leader_reward
        payout += per_process_redistribution
        distribution.payouts[pid] = payout
    return distribution


def compute_star_rewards(
    committee_size: int,
    leader: int,
    included: Iterable[int],
    params: Optional[RewardParams] = None,
) -> RewardDistribution:
    """Reward distribution of the star baseline (leader bonus, no aggregation).

    Used for the Figure 2c/2d comparisons: the baseline applies the same
    leader bonus ``b_l`` but has no aggregation bonus, and the leader alone
    decides which votes are included.
    """
    params = params or RewardParams()
    reward = params.total_reward
    included_set = set(included)
    n = committee_size
    voting_fraction = 1.0 - params.leader_bonus
    voting_share = voting_fraction * reward / n

    distribution = RewardDistribution(params=params, committee_size=n, leader=leader)
    distribution.included = included_set
    pool = 0.0
    for pid in range(n):
        if pid in included_set:
            distribution.voting_rewards[pid] = voting_share
        else:
            pool += voting_share

    distribution.leader_reward = _leader_bonus(params, n, leader in included_set, len(included_set))
    pool += params.leader_bonus * reward - distribution.leader_reward

    distribution.redistributed = pool
    per_process = pool / n
    for pid in range(n):
        payout = distribution.voting_rewards.get(pid, 0.0)
        if pid == leader:
            payout += distribution.leader_reward
        payout += per_process
        distribution.payouts[pid] = payout
    return distribution
