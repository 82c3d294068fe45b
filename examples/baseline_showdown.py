#!/usr/bin/env python3
"""Baseline showdown: every aggregation scheme on the same workload.

Runs the same committee and client load through all five vote-aggregation
schemes shipped with the library — HotStuff's star, the plain tree
(Iniva-No2C), Kauri's stable reconfiguring tree, Gosig's randomised
gossip (with and without free-riding) and Iniva itself — first
fault-free and then with crashed replicas.

Since the API redesign the whole comparison is one declarative grid over
``repro.api.sweep``: every scheme is a one-dict override of the same base
spec (scheme-specific knobs ride in ``scheme_params``), and the cells fan
out over worker processes instead of running serially.

The table makes the paper's central trade-off visible at a glance: the
tree-based schemes pay some throughput for lower leader load, but only
Iniva keeps *every* correct vote inside the certificates once processes
fail, which is what its reward mechanism needs.

Run with::

    python examples/baseline_showdown.py [--quick]
"""

import sys

from repro import api
from repro.consensus.config import ConsensusConfig
from repro.experiments.report import format_rows

QUICK = "--quick" in sys.argv
COMMITTEE = 13
DURATION = 1.2 if QUICK else 3.0
LOAD = 4_000

BASE_SPEC = {
    "name": "baseline-showdown",
    "batch_size": 50,
    "duration": DURATION,
    "warmup": DURATION / 6,
    "delta": 0.0025,
    "second_chance_timeout": 0.005,
    "view_timeout": 0.15,
    "committee": {"size": COMMITTEE},
    "topology": {"kind": "normal", "intra_delay": 0.0005, "jitter": 0.2},
    "workload": {"rate": float(LOAD), "payload_size": 64, "seed": 7},
}

SCHEMES = [
    ("HotStuff (star)", "star", {}),
    ("Iniva-No2C (tree)", "tree", {}),
    ("Kauri (stable tree)", "kauri", {}),
    ("Gosig k=3", "gosig", {"gossip_fanout": 3, "gossip_rounds": 8}),
    ("Gosig k=3, 30% free-riding", "gosig",
     {"gossip_fanout": 3, "gossip_rounds": 8, "free_rider_fraction": 0.3}),
    ("Iniva", "iniva", {}),
]


def run_grid(faults: int):
    # One override dict per scheme = the whole grid; the crash schedule is
    # part of the spec (seed 11, leader protected, like the original demo).
    grid = [
        {
            "name": f"showdown-{scheme}-f{faults}",
            "aggregation": scheme,
            "scheme_params": overrides,
            "faults": {"crashes": faults, "crash_seed": 11},
        }
        for _, scheme, overrides in SCHEMES
    ]
    results = api.sweep(BASE_SPEC, grid)
    rows = []
    for (label, _, _), run in zip(SCHEMES, results):
        metrics = run.metrics
        rows.append(
            {
                "scheme": label,
                "throughput_ops": round(metrics.throughput, 1),
                "latency_ms": round(metrics.latency.mean * 1000, 2),
                "failed_views_pct": round(metrics.failed_view_fraction * 100, 1),
                "avg_qc_size": round(metrics.average_qc_size, 2),
                "cpu_mean_pct": round(metrics.cpu_utilisation_mean * 100, 2),
            }
        )
    return rows


def main() -> None:
    quorum = ConsensusConfig(committee_size=COMMITTEE).quorum_size
    print(f"committee of {COMMITTEE}, quorum = {quorum}, load = {LOAD} ops/s\n")

    print(format_rows(run_grid(faults=0), title="Fault-free"))
    print()

    faults = 3
    rows = run_grid(faults=faults)
    print(format_rows(rows, title=f"{faults} crashed replicas"))
    print()

    iniva = next(row for row in rows if row["scheme"] == "Iniva")
    best_other = max(
        row["avg_qc_size"] for row in rows if row["scheme"] not in ("Iniva",)
    )
    print(
        "Under faults Iniva's certificates average "
        f"{iniva['avg_qc_size']} votes (max possible {COMMITTEE - faults}); the best "
        f"baseline reaches {best_other}.  Only the votes inside a certificate earn "
        "rewards, so that gap is exactly the income lost to omission."
    )


if __name__ == "__main__":
    main()
