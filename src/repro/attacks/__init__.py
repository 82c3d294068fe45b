"""Attack models and Monte-Carlo simulations (Section VII of the paper).

This package reproduces the paper's security *simulations* (Figure 2).
They are the Monte-Carlo cross-check of the closed forms, which are
stated once in :mod:`repro.analysis.model`; Gosig has no closed form, so
its simulation here is the only source of its numbers.

* :mod:`repro.attacks.adversary` — adversary/role sampling shared by all
  simulations (attacker controls a random fraction ``m`` of the committee).
* :mod:`repro.attacks.omission` — structural targeted vote-omission
  analysis for Iniva and the star protocol: given a concrete tree and
  attacker/victim assignment, the minimal collateral needed to omit the
  victim, and Monte-Carlo estimates of the c-omission probability.
* :mod:`repro.attacks.gosig_sim` — a round-based simulation of Gosig's
  randomised aggregation with parameter ``k``, optional free-riding and a
  greedy malicious leader.
* :mod:`repro.attacks.reward_sim` — reward-loss simulations for victim and
  attacker under vote omission / vote denial (Figures 2c and 2d), built on
  the reward scheme in :mod:`repro.core.rewards`.
"""

from repro.attacks.adversary import AdversaryModel, RoleAssignment
from repro.attacks.byzantine import corrupt_replica
from repro.attacks.gosig_sim import GosigConfig, GosigSimulator
from repro.attacks.omission import (
    OmissionOutcome,
    iniva_minimal_collateral,
    omission_probability,
    star_minimal_collateral,
)
from repro.attacks.reward_sim import RewardAttackSimulator, RewardAttackResult

__all__ = [
    "AdversaryModel",
    "GosigConfig",
    "GosigSimulator",
    "OmissionOutcome",
    "RewardAttackResult",
    "RewardAttackSimulator",
    "RoleAssignment",
    "corrupt_replica",
    "iniva_minimal_collateral",
    "omission_probability",
    "star_minimal_collateral",
]
