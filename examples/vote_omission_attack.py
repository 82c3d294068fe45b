#!/usr/bin/env python3
"""Security analysis: how hard is it to censor one validator's vote?

Reproduces the paper's security story (Section VII / Figure 2) on a small
budget: it compares the probability and the economic cost of a targeted
vote-omission attack across the star protocol (HotStuff), Gosig's
randomised gossip and Iniva.

Run with::

    python examples/vote_omission_attack.py [--quick]
"""

import sys

from repro import api
from repro.analysis.model import iniva_omission, star_omission
from repro.attacks.gosig_sim import GosigConfig, GosigSimulator
from repro.attacks.omission import omission_probability
from repro.attacks.reward_sim import RewardAttackSimulator
from repro.core.rewards import RewardParams


QUICK = "--quick" in sys.argv
SCALE = 10 if QUICK else 1  # divide all trial counts in quick mode


def omission_probabilities(attacker_power: float = 0.10) -> None:
    print(f"=== Targeted vote omission, attacker controls {attacker_power:.0%} ===")
    star = star_omission(attacker_power)
    iniva = omission_probability(attacker_power, collateral=0, trials=20_000 // SCALE, seed=1)
    gosig = GosigSimulator(
        GosigConfig(gossip_fanout=2, attacker_power=attacker_power), seed=1
    ).omission_probability(trials=800 // SCALE)
    gosig_fr = GosigSimulator(
        GosigConfig(gossip_fanout=2, attacker_power=attacker_power, free_riding_fraction=0.3),
        seed=1,
    ).omission_probability(trials=800 // SCALE)

    print(f"star protocol (leader decides):        {star:6.2%}")
    print(f"Gosig k=2:                             {gosig.probability:6.2%}")
    print(f"Gosig k=2 with 30% free-riding:        {gosig_fr.probability:6.2%}")
    print(f"Iniva (tree + 2ND-CHANCE fallback):    {iniva.probability:6.2%}"
          f"   (analytic m^2 = {iniva_omission(attacker_power):.2%})")
    print(f"-> Iniva reduces the censorship chance by a factor of "
          f"{star / max(iniva.probability, 1e-9):.0f}x\n")


def attack_economics(attacker_power: float = 0.10) -> None:
    print(f"=== What does censoring one vote cost the attacker? (m = {attacker_power:.0%}) ===")
    params = RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    iniva = RewardAttackSimulator(111, 10, attacker_power, params, seed=2).run_iniva(
        "vote-omission", trials=3000 // SCALE, unlimited_collateral=True
    )
    iniva_small = RewardAttackSimulator(109, 4, attacker_power, params, seed=2).run_iniva(
        "vote-omission", trials=3000 // SCALE, unlimited_collateral=True
    )
    star = RewardAttackSimulator(111, 10, attacker_power, params, seed=2).run_star(
        "vote-omission", trials=3000 // SCALE
    )
    print("attacker's expected loss per block (fraction of the block reward R):")
    print(f"  star protocol:          {star.attacker_lost_reward:8.4%}")
    print(f"  Iniva, 10 aggregators:  {iniva.attacker_lost_reward:8.4%}")
    print(f"  Iniva,  4 aggregators:  {iniva_small.attacker_lost_reward:8.4%}")
    print("victim's expected loss per block:")
    print(f"  star protocol:          {star.victim_lost_reward:8.4%}")
    print(f"  Iniva, 10 aggregators:  {iniva.victim_lost_reward:8.4%}\n")


def scheme_comparison() -> None:
    # Table I through the facade: same registry + quick profile as the CLI.
    artifact = api.figure("table1", quick=QUICK, seed=3, gosig_trials=40 if QUICK else 400)
    print(artifact.to_table())


if __name__ == "__main__":
    omission_probabilities()
    attack_economics()
    scheme_comparison()
