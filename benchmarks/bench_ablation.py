"""Ablation benches for the design choices called out in DESIGN.md.

D1 — 2ND-CHANCE fallback (Iniva vs Iniva-No2C) under crash faults.
D2 — tree fan-out (number of internal aggregators).
D4 — second-chance timer δ.
D5 — leader-election policy under faults.
"""

from benchmarks.conftest import run_once
from repro import api
from repro.experiments import specs


def _sweep(seed, grid, faults=0, duration=4.0, load=6000):
    """One 21-replica testbed run per grid cell, in grid order.

    ``faults`` replicas crash from the start, drawn from crash seed 3
    with the initial leader eligible.
    """
    base = specs.testbed_base("ablation", duration=duration, warmup=0.5, seed=seed).with_(
        committee={"size": 21},
        workload={"rate": load},
        faults={"crashes": faults, "crash_seed": 3, "protect_leader": False},
    )
    return api.sweep(base, grid)


def test_ablation_second_chance_fallback(benchmark):
    """D1: the fallback path buys inclusion under faults for modest throughput cost."""

    def harness():
        rows = []
        for run in _sweep(5, {"aggregation": ["tree", "iniva"], "faults.crashes": [0, 3]}):
            result = run.metrics
            rows.append(
                {
                    "scheme": "Iniva" if run.spec.aggregation == "iniva" else "Iniva-No2C",
                    "faults": run.spec.faults.crashes,
                    "throughput_ops": round(result.throughput, 1),
                    "avg_qc_size": round(result.average_qc_size, 2),
                    "failed_views_pct": round(result.failed_view_fraction * 100, 2),
                }
            )
        return rows

    rows = run_once(benchmark, harness, "Ablation D1: 2ND-CHANCE fallback")
    qc = {(row["scheme"], row["faults"]): row["avg_qc_size"] for row in rows}
    assert qc[("Iniva", 3)] >= qc[("Iniva-No2C", 3)]
    assert qc[("Iniva", 0)] >= qc[("Iniva-No2C", 0)]


def test_ablation_tree_fanout(benchmark):
    """D2: more internal aggregators shorten branches but add root work."""

    def harness():
        rows = []
        for run in _sweep(6, {"num_internal": [2, 4, 10]}):
            result = run.metrics
            rows.append(
                {
                    "internal_nodes": run.spec.num_internal,
                    "throughput_ops": round(result.throughput, 1),
                    "latency_ms": round(result.latency.mean * 1000, 2),
                    "avg_qc_size": round(result.average_qc_size, 2),
                }
            )
        return rows

    rows = run_once(benchmark, harness, "Ablation D2: tree fan-out")
    assert all(row["avg_qc_size"] > 20.5 for row in rows)


def test_ablation_second_chance_timer(benchmark):
    """D4: larger δ favours inclusion, smaller δ favours throughput (under faults)."""

    def harness():
        rows = []
        for run in _sweep(7, {"second_chance_timeout": [0.005, 0.010]}, faults=3):
            result = run.metrics
            rows.append(
                {
                    "second_chance_ms": run.spec.second_chance_timeout * 1000,
                    "throughput_ops": round(result.throughput, 1),
                    "latency_ms": round(result.latency.mean * 1000, 2),
                    "avg_qc_size": round(result.average_qc_size, 2),
                    "failed_views_pct": round(result.failed_view_fraction * 100, 2),
                }
            )
        return rows

    rows = run_once(benchmark, harness, "Ablation D4: second-chance timer")
    assert len(rows) == 2


def test_ablation_leader_policy(benchmark):
    """D5: Carousel avoids electing crashed leaders, reducing failed views."""

    def harness():
        rows = []
        for run in _sweep(
            8, {"leader_policy": ["round-robin", "carousel"]}, faults=4, duration=5.0
        ):
            result = run.metrics
            rows.append(
                {
                    "leader_policy": run.spec.leader_policy,
                    "throughput_ops": round(result.throughput, 1),
                    "failed_views_pct": round(result.failed_view_fraction * 100, 2),
                    "avg_qc_size": round(result.average_qc_size, 2),
                }
            )
        return rows

    rows = run_once(benchmark, harness, "Ablation D5: leader election policy under 4 crash faults")
    by_policy = {row["leader_policy"]: row for row in rows}
    assert by_policy["carousel"]["failed_views_pct"] <= by_policy["round-robin"]["failed_views_pct"] + 5
