"""Figure 2: security simulations (targeted vote omission and reward loss).

These wrappers assemble the same series the paper plots in Figure 2 from
the attack simulators in :mod:`repro.attacks`.  Each figure is a
declarative grid of independent, fully seeded Monte-Carlo cells that fan
out over worker processes via
:func:`repro.experiments.runner.parallel_map` — one cell per (variant,
attacker power / collateral) point, so the figures parallelize exactly
like the deployment sweeps do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.model import star_omission
from repro.attacks.gosig_sim import GosigConfig, GosigSimulator
from repro.attacks.omission import omission_probability
from repro.attacks.reward_sim import RewardAttackSimulator
from repro.core.rewards import RewardParams
from repro.experiments.runner import parallel_map

__all__ = ["figure_2a", "figure_2b", "figure_2c", "figure_2d"]

#: The Gosig variants plotted in Figures 2a and 2b.
GOSIG_VARIANTS = [
    {"label": "Gosig k=2", "k": 2, "free_riding": 0.0, "greedy": False},
    {"label": "Gosig k=2, free-riding", "k": 2, "free_riding": 0.3, "greedy": False},
    {"label": "Gosig k=2, greedy", "k": 2, "free_riding": 0.0, "greedy": True},
    {"label": "Gosig k=3", "k": 3, "free_riding": 0.0, "greedy": False},
    {"label": "Gosig k=3, free-riding", "k": 3, "free_riding": 0.3, "greedy": False},
]


# ---------------------------------------------------------------------------
# Cell runners (module-level so the grids pickle to worker processes)
# ---------------------------------------------------------------------------
def _omission_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """One (protocol, x-value) point of Figure 2a/2b."""
    kind = cell["kind"]
    x_key = str(cell["x_key"])
    row: Dict[str, object] = {"protocol": cell["label"], x_key: cell[x_key]}
    if kind == "gosig":
        config = GosigConfig(
            committee_size=int(cell["committee_size"]),
            gossip_fanout=int(cell["k"]),
            attacker_power=float(cell["attacker_power"]),
            free_riding_fraction=float(cell["free_riding"]),
            greedy_leader=bool(cell["greedy"]),
        )
        collateral = cell.get("collateral")  # None = Figure 2a's 0-collateral rule
        outcome = GosigSimulator(config, seed=int(cell["seed"])).omission_probability(
            trials=int(cell["trials"]),
            collateral=None if collateral is None else int(collateral),
        )
        row["omission_probability"] = round(outcome.probability, 4)
    elif kind == "star":
        row["omission_probability"] = round(star_omission(float(cell["attacker_power"])), 4)
    else:  # iniva
        outcome = omission_probability(
            float(cell["attacker_power"]),
            collateral=int(cell.get("collateral", 0)),
            committee_size=int(cell["committee_size"]),
            num_internal=int(cell["num_internal"]),
            trials=int(cell["trials"]),
            seed=int(cell["seed"]),
        )
        row["omission_probability"] = round(outcome.probability, 4)
    return row


def _reward_2c_cell(cell: Dict[str, object]) -> List[Dict[str, object]]:
    """All attack variants for one attacker power of Figure 2c.

    The whole power column is one cell because the simulator's adversary
    RNG advances across campaigns — splitting it further would change the
    sampled rounds (and therefore the published numbers).
    """
    params = RewardParams(**cell["params"])
    simulator = RewardAttackSimulator(
        committee_size=int(cell["committee_size"]),
        num_internal=int(cell["num_internal"]),
        attacker_power=float(cell["attacker_power"]),
        params=params,
        seed=int(cell["seed"]),
    )
    rows: List[Dict[str, object]] = []
    for attack_label, attack in cell["attacks"]:
        iniva = simulator.run_iniva(attack, trials=int(cell["trials"]))
        star = simulator.run_star(attack, trials=int(cell["trials"]))
        rows.append(
            {
                "attack": attack_label,
                "attacker_power": cell["attacker_power"],
                "victim_fraction_iniva": round(iniva.victim_fraction_of_fair_share, 4),
                "victim_fraction_star": round(star.victim_fraction_of_fair_share, 4),
                "attacker_fraction_iniva": round(iniva.attacker_fraction_of_fair_share, 4),
                "attacker_fraction_star": round(star.attacker_fraction_of_fair_share, 4),
            }
        )
    return rows


def _reward_2d_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """One (configuration, attacker power) point of Figure 2d."""
    params = RewardParams(**cell["params"])
    simulator = RewardAttackSimulator(
        committee_size=int(cell["committee_size"]),
        num_internal=int(cell["num_internal"]),
        attacker_power=float(cell["attacker_power"]),
        params=params,
        seed=int(cell["seed"]),
    )
    if cell["star"]:
        result = simulator.run_star("vote-omission", trials=int(cell["trials"]))
    else:
        result = simulator.run_iniva(
            "vote-omission", trials=int(cell["trials"]), unlimited_collateral=True
        )
    return {
        "configuration": cell["label"],
        "attacker_power": cell["attacker_power"],
        "victim_lost_pct_of_R": round(result.victim_lost_reward * 100, 3),
        "attacker_lost_pct_of_R": round(result.attacker_lost_reward * 100, 3),
    }


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------
def figure_2a(
    attacker_powers: Sequence[float] = (0.05, 0.10, 0.15),
    gosig_trials: int = 600,
    iniva_trials: int = 8000,
    committee_size_iniva: int = 111,
    committee_size_gosig: int = 100,
    num_internal: int = 10,
    seed: int = 1,
    max_workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Vote-omission probability with collateral 0 (Figure 2a).

    Returns one row per (protocol variant, attacker power).
    """
    cells: List[Dict[str, object]] = []
    for m in attacker_powers:
        for variant in GOSIG_VARIANTS:
            cells.append(
                {
                    "kind": "gosig",
                    "x_key": "attacker_power",
                    "label": variant["label"],
                    "attacker_power": m,
                    "k": variant["k"],
                    "free_riding": variant["free_riding"],
                    "greedy": variant["greedy"],
                    "committee_size": committee_size_gosig,
                    "trials": gosig_trials,
                    "seed": seed,
                }
            )
        cells.append(
            {
                "kind": "star",
                "x_key": "attacker_power",
                "label": "Star protocol (round robin)",
                "attacker_power": m,
            }
        )
        cells.append(
            {
                "kind": "iniva",
                "x_key": "attacker_power",
                "label": "Iniva",
                "attacker_power": m,
                "committee_size": committee_size_iniva,
                "num_internal": num_internal,
                "trials": iniva_trials,
                "seed": seed,
            }
        )
    return parallel_map(_omission_cell, cells, max_workers=max_workers)


def figure_2b(
    collaterals: Sequence[int] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
    attacker_power: float = 0.05,
    gosig_trials: int = 500,
    iniva_trials: int = 6000,
    seed: int = 1,
    max_workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Vote omission with larger collateral, m = 5 % (Figure 2b)."""
    gosig_variants = [v for v in GOSIG_VARIANTS if not v["greedy"]]
    cells: List[Dict[str, object]] = []
    for collateral in collaterals:
        for variant in gosig_variants:
            cells.append(
                {
                    "kind": "gosig",
                    "x_key": "collateral",
                    "label": variant["label"],
                    "collateral": collateral,
                    "attacker_power": attacker_power,
                    "k": variant["k"],
                    "free_riding": variant["free_riding"],
                    "greedy": False,
                    "committee_size": 100,
                    "trials": gosig_trials,
                    "seed": seed,
                }
            )
        cells.append(
            {
                "kind": "star",
                "x_key": "collateral",
                "label": "Star protocol (round robin)",
                "collateral": collateral,
                "attacker_power": attacker_power,
            }
        )
        cells.append(
            {
                "kind": "iniva",
                "x_key": "collateral",
                "label": "Iniva",
                "collateral": collateral,
                "attacker_power": attacker_power,
                "committee_size": 111,
                "num_internal": 10,
                "trials": iniva_trials,
                "seed": seed,
            }
        )
    return parallel_map(_omission_cell, cells, max_workers=max_workers)


def figure_2c(
    attacker_powers: Sequence[float] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    trials: int = 800,
    committee_size: int = 111,
    num_internal: int = 10,
    params: Optional[RewardParams] = None,
    seed: int = 1,
    max_workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Reward lost by victim and attacker under collateral-0 attacks (Figure 2c)."""
    params = params or RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    attacks = [("vote omission", "vote-omission"), ("no vote", "vote-denial"), ("all attacks", "all")]
    cells = [
        {
            "attacker_power": m,
            "committee_size": committee_size,
            "num_internal": num_internal,
            "trials": trials,
            "seed": seed,
            "attacks": attacks,
            "params": _reward_params_dict(params),
        }
        for m in attacker_powers
    ]
    grouped = parallel_map(_reward_2c_cell, cells, max_workers=max_workers)
    return [row for group in grouped for row in group]


def figure_2d(
    attacker_powers: Sequence[float] = (0.10, 0.30),
    trials: int = 800,
    params: Optional[RewardParams] = None,
    seed: int = 1,
    max_workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Reward lost under large-collateral vote omission (Figure 2d).

    Compares Iniva with 4 and 10 internal nodes against the star baseline.
    """
    params = params or RewardParams(leader_bonus=0.15, aggregation_bonus=0.02)
    configurations = [
        ("Iniva (fanout=4)", 109, 4, False),
        ("Iniva (fanout=10)", 111, 10, False),
        ("Star", 111, 10, True),
    ]
    cells = [
        {
            "label": label,
            "attacker_power": m,
            "committee_size": committee_size,
            "num_internal": num_internal,
            "star": star,
            "trials": trials,
            "seed": seed,
            "params": _reward_params_dict(params),
        }
        for m in attacker_powers
        for label, committee_size, num_internal, star in configurations
    ]
    return parallel_map(_reward_2d_cell, cells, max_workers=max_workers)


def _reward_params_dict(params: RewardParams) -> Dict[str, float]:
    """RewardParams as picklable plain kwargs for the cell grids."""
    from dataclasses import asdict, is_dataclass

    if is_dataclass(params):
        return asdict(params)
    return dict(params.__dict__)
