"""Targeted vote-omission analysis for Iniva and the star baseline.

``iniva_minimal_collateral`` encodes the structural argument of
Section VII-A: which combinations of corrupted roles allow the adversary
to keep the victim's signature out of the final certificate, and how many
other honest processes must be sacrificed (the *collateral*) to do so.
Monte-Carlo sampling of role assignments then yields the c-omission
probability of Definition 5 (Figures 2a and 2b), the cross-check of the
closed forms in :mod:`repro.analysis.model` (``m`` for the star, Theorem
4's ``m²`` for Iniva).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.attacks.adversary import AdversaryModel, RoleAssignment

__all__ = [
    "OmissionOutcome",
    "iniva_minimal_collateral",
    "star_minimal_collateral",
    "omission_probability",
]

#: Collateral value meaning "the attack is impossible this round".
IMPOSSIBLE = math.inf


@dataclass(frozen=True)
class OmissionOutcome:
    """Result of a Monte-Carlo omission estimate.

    Attributes:
        probability: Fraction of sampled rounds in which the targeted
            omission succeeded within the collateral budget.
        trials: Number of sampled rounds.
        successes: Number of successful rounds.
    """

    probability: float
    trials: int
    successes: int

    @property
    def standard_error(self) -> float:
        if self.trials == 0:
            return 0.0
        p = self.probability
        return math.sqrt(max(p * (1 - p), 0.0) / self.trials)


def star_minimal_collateral(assignment: RoleAssignment) -> float:
    """Minimal collateral to omit the victim in the star protocol.

    The collector alone decides which votes to include, so the attack
    needs nothing but a corrupted collector and costs no collateral.  For
    the star baseline the collector role coincides with the (next) leader;
    we reuse the sampled proposer as that leader.
    """
    return 0.0 if assignment.controls(assignment.proposer) else IMPOSSIBLE


def iniva_minimal_collateral(assignment: RoleAssignment) -> float:
    """Minimal collateral to omit the victim under Iniva (Section VII-A).

    Requires the sampled assignment to carry an aggregation tree.  The
    cases are:

    * honest root: impossible — the root's 2ND-CHANCE fallback re-adds the
      victim no matter what intermediate aggregators do;
    * corrupted root, victim is a leaf with a corrupted parent: free
      (the parent omits the victim, the root never asks again);
    * corrupted root, victim is a leaf with an honest parent: the root must
      drop the victim's whole branch; honest branch members other than the
      victim are lost (corrupted ones re-join via individual replies);
    * corrupted root, victim is an internal node and the proposer is also
      corrupted: free — the proposal is withheld from the victim and its
      leaves are collected through 2ND-CHANCE messages;
    * corrupted root, victim is an internal node, honest proposer: the root
      drops the victim's aggregate; its honest leaves only hold acks that
      contain the victim, so they are lost as collateral;
    * the victim is the root itself: impossible (the collector always
      includes its own signature).
    """
    tree = assignment.tree
    if tree is None:
        raise ValueError("iniva_minimal_collateral requires a tree in the assignment")
    victim = assignment.victim
    if not assignment.controls(tree.root):
        return IMPOSSIBLE
    if victim == tree.root:
        return IMPOSSIBLE

    if tree.is_leaf(victim):
        parent = tree.parent(victim)
        if parent == tree.root:
            # Degenerate star-shaped branch: the corrupted root simply drops
            # the individual signature.
            return 0.0
        if assignment.controls(parent):
            return 0.0
        branch = tree.branch_of(victim)
        honest_collateral = sum(
            1 for pid in branch if pid != victim and not assignment.controls(pid)
        )
        return float(honest_collateral)

    # Victim is an internal aggregator.
    if assignment.controls(assignment.proposer):
        return 0.0
    honest_leaves = sum(
        1 for pid in tree.children(victim) if not assignment.controls(pid)
    )
    return float(honest_leaves)


def omission_probability(
    attacker_power: float,
    collateral: int = 0,
    committee_size: int = 111,
    num_internal: int = 10,
    protocol: str = "iniva",
    trials: int = 20000,
    seed: int = 0,
) -> OmissionOutcome:
    """Monte-Carlo estimate of the c-omission probability (Definition 5).

    Args:
        attacker_power: Fraction ``m`` of the committee under adversarial
            control.
        collateral: Maximum number of non-target processes the attacker is
            willing to exclude.
        committee_size: Committee size (the paper uses 111 for Iniva).
        num_internal: Internal aggregators in the Iniva tree (10 in the
            paper's default configuration).
        protocol: ``"iniva"`` or ``"star"``.
        trials: Number of sampled role assignments.
        seed: RNG seed.
    """
    model = AdversaryModel(
        committee_size=committee_size,
        attacker_power=attacker_power,
        num_internal=num_internal,
        seed=seed,
    )
    if protocol == "iniva":
        cost_fn: Callable[[RoleAssignment], float] = iniva_minimal_collateral
        needs_tree = True
    elif protocol == "star":
        cost_fn = star_minimal_collateral
        needs_tree = False
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    successes = 0
    for trial in range(trials):
        assignment = model.sample(view=trial, build_tree=needs_tree)
        if cost_fn(assignment) <= collateral:
            successes += 1
    return OmissionOutcome(
        probability=successes / trials if trials else 0.0,
        trials=trials,
        successes=successes,
    )
