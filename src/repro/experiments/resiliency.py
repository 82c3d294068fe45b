"""Figure 4: resiliency of Iniva under crash faults.

The paper crashes 0-4 of 21 replicas (randomly placed in the tree each
view), and reports throughput, latency, the percentage of failed views and
the average quorum-certificate size for two second-chance timers
(δ = 5 ms, δ = 10 ms) and for the Carousel leader-election policy.

The figure is a declarative grid: one :class:`ScenarioSpec` cell per
(variant, fault count), fanned out through :func:`repro.api.sweep`.  The
cells let the initial leader crash, as the paper's random placement
does, and pin the crash seed to ``seed + faults`` (the golden tables'
draw).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.api import sweep
from repro.consensus.config import ConsensusConfig
from repro.experiments.specs import testbed_base

__all__ = ["figure_4", "default_variants"]


def default_variants() -> List[Dict[str, object]]:
    """The three Iniva variants plotted in Figure 4."""
    return [
        {"label": "delta=5ms (Carousel)", "second_chance": 0.005, "leader_policy": "carousel"},
        {"label": "delta=5ms", "second_chance": 0.005, "leader_policy": "round-robin"},
        {"label": "delta=10ms", "second_chance": 0.010, "leader_policy": "round-robin"},
    ]


def figure_4(
    committee_size: int = 21,
    fault_counts: Sequence[int] = (0, 1, 2, 3, 4),
    variants: Optional[List[Dict[str, object]]] = None,
    batch_size: int = 100,
    payload_size: int = 64,
    load: float = 6_000.0,
    duration: float = 6.0,
    warmup: float = 1.0,
    view_timeout: float = 0.25,
    seed: int = 1,
    max_workers: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Run the crash-fault sweep.  One row per (variant, fault count).

    The columns map onto the four panels of Figure 4: throughput (4a),
    latency (4b), failed views (4c) and average QC size (4d).  The row also
    records the quorum minimum and the maximum possible votes, the two
    reference lines of Figure 4d.
    """
    variants = variants if variants is not None else default_variants()
    base = testbed_base(
        "fig4", duration=duration, warmup=warmup, seed=seed,
        batch_size=batch_size, view_timeout=view_timeout,
    )
    quorum_minimum = ConsensusConfig(committee_size=committee_size).quorum_size
    cells: List[Dict[str, object]] = []
    grid: List[Dict[str, object]] = []
    for variant in variants:
        for faults in fault_counts:
            grid.append(
                {
                    "name": f"fig4-{variant['leader_policy']}-d{variant['second_chance']}-f{faults}",
                    "aggregation": "iniva",
                    "second_chance_timeout": float(variant["second_chance"]),
                    "leader_policy": str(variant["leader_policy"]),
                    "committee": {"size": committee_size},
                    "workload": {"rate": load, "payload_size": payload_size},
                    "faults": {
                        "crashes": faults,
                        "crash_seed": seed + faults,
                        "protect_leader": False,
                    },
                }
            )
            cells.append({"variant": variant["label"], "faulty_nodes": faults})
    results = sweep(base, grid, max_workers=max_workers)
    rows: List[Dict[str, object]] = []
    for cell, result in zip(cells, results):
        metrics = result.metrics
        faults = int(cell["faulty_nodes"])
        rows.append(
            {
                **cell,
                "throughput_ops": round(metrics.throughput, 1),
                "latency_ms": round(metrics.latency.mean * 1000, 2),
                "failed_views_pct": round(metrics.failed_view_fraction * 100, 2),
                "avg_qc_size": round(metrics.average_qc_size, 2),
                "quorum_minimum": quorum_minimum,
                "max_possible_votes": committee_size - faults,
                "second_chance_inclusions": metrics.second_chance_inclusions,
            }
        )
    return rows
