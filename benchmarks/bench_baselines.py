"""Baseline comparison — all aggregation schemes on one workload.

Not a figure of the paper itself, but the ablation DESIGN.md calls out for
the baseline implementations added alongside the reproduction: it pits the
star protocol, the plain tree (Iniva-No2C), Kauri, Gosig and Iniva against
each other fault-free and with crash faults, and asserts the
qualitative claims the paper makes about them (Sections II and IV):

* fault-free, every scheme reaches a quorum and the star protocol has the
  highest throughput;
* under crash faults, Iniva's certificates include (essentially) every
  correct vote while the baselines miss some.
"""

from benchmarks.conftest import run_once
from repro import api
from repro.consensus.config import ConsensusConfig
from repro.experiments import specs

COMMITTEE = 13
SCHEMES = [
    ("HotStuff (star)", "star", {}),
    ("Iniva-No2C (tree)", "tree", {}),
    ("Kauri", "kauri", {}),
    ("Gosig k=3", "gosig", {"gossip_fanout": 3, "gossip_rounds": 8}),
    ("Iniva", "iniva", {}),
]


def _scheme_rows(faults: int, duration: float = 2.5, load: float = 4_000):
    # Crashed replicas are drawn from crash seed 11; the initial leader
    # (process 0) is kept out of the draw.
    base = specs.testbed_base(
        "baselines", duration=duration, warmup=0.5, seed=1, batch_size=50, view_timeout=0.15
    ).with_(
        committee={"size": COMMITTEE},
        workload={"rate": load, "seed": 7},
        faults={"crashes": faults, "crash_seed": 11},
    )
    runs = api.sweep(
        base,
        [{"aggregation": scheme, "scheme_params": params} for _, scheme, params in SCHEMES],
    )
    rows = []
    for (label, _, _), run in zip(SCHEMES, runs):
        result = run.metrics
        rows.append(
            {
                "scheme": label,
                "faults": faults,
                "throughput_ops": round(result.throughput, 1),
                "latency_ms": round(result.latency.mean * 1000, 2),
                "failed_views_pct": round(result.failed_view_fraction * 100, 1),
                "avg_qc_size": round(result.average_qc_size, 2),
            }
        )
    return rows


def test_baselines_fault_free(benchmark):
    rows = run_once(
        benchmark, lambda: _scheme_rows(faults=0), "Baseline comparison (fault-free)"
    )
    quorum = ConsensusConfig(committee_size=COMMITTEE).quorum_size
    by_scheme = {row["scheme"]: row for row in rows}
    # Every scheme commits blocks and reaches at least a quorum per certificate.
    for row in rows:
        assert row["throughput_ops"] > 0
        assert row["avg_qc_size"] >= quorum - 0.01
    # The star protocol's two-hop critical path beats the tree's four hops,
    # and at this (non-saturating) load it delivers at least as many ops.
    assert by_scheme["HotStuff (star)"]["latency_ms"] <= by_scheme["Iniva"]["latency_ms"]
    assert (
        by_scheme["HotStuff (star)"]["throughput_ops"]
        >= by_scheme["Iniva"]["throughput_ops"] * 0.95
    )


def test_baselines_under_crash_faults(benchmark):
    faults = 3
    rows = run_once(
        benchmark,
        lambda: _scheme_rows(faults=faults),
        f"Baseline comparison ({faults} crash faults)",
    )
    by_scheme = {row["scheme"]: row for row in rows}
    correct = COMMITTEE - faults
    # Iniva includes essentially every correct vote...
    assert by_scheme["Iniva"]["avg_qc_size"] >= correct - 0.5
    # ...and at least matches every baseline's inclusion.
    for label, row in by_scheme.items():
        assert by_scheme["Iniva"]["avg_qc_size"] >= row["avg_qc_size"] - 1e-9, label
