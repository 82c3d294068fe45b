"""Golden pins: the spec-grid figure path and the facade reproduce the
pre-refactor (hand-wired ``run_experiment``) outputs bit for bit.

The literals below were captured from the repository *before* the
figures were rebuilt over ``repro.api.sweep`` and the scenario engine
started returning :class:`RunResult`.  They pin the acceptance criterion
that fixed-seed outputs stay byte-identical across the API redesign.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.experiments.resiliency import figure_4
from repro.experiments.scalability import figure_3c

# Captured with: figure_3c(replica_counts=(5, 9), payload_sizes=(64,),
# batch_size=20, load=2000, duration=1.0, warmup=0.2, seed=3) at the
# pre-refactor commit.
GOLDEN_FIG3C = [
    {"scheme": "HotStuff", "payload_bytes": 64, "replicas": 5,
     "throughput_ops": 1985.0, "latency_ms": 3.68, "cpu_mean_pct": 41.34},
    {"scheme": "HotStuff", "payload_bytes": 64, "replicas": 9,
     "throughput_ops": 1985.0, "latency_ms": 4.17, "cpu_mean_pct": 39.3},
    {"scheme": "Iniva", "payload_bytes": 64, "replicas": 5,
     "throughput_ops": 1990.0, "latency_ms": 7.02, "cpu_mean_pct": 28.49},
    {"scheme": "Iniva", "payload_bytes": 64, "replicas": 9,
     "throughput_ops": 1991.2, "latency_ms": 8.59, "cpu_mean_pct": 24.55},
]

# Captured with: figure_4(committee_size=7, fault_counts=(0, 1),
# variants=[delta=5ms round-robin], batch_size=20, load=1500,
# duration=1.5, warmup=0.2, view_timeout=0.1, seed=3).
# The faulty_nodes=1 row was re-pinned when the event queue's live-count
# starvation was fixed (cancelling an already-fired pacemaker timer used
# to decrement the count spuriously, silently truncating fault-heavy
# runs); the fault-free row is unchanged.
GOLDEN_FIG4 = [
    {"variant": "delta=5ms", "faulty_nodes": 0, "throughput_ops": 1478.5,
     "latency_ms": 7.85, "failed_views_pct": 0.0, "avg_qc_size": 7.0,
     "quorum_minimum": 5, "max_possible_votes": 7, "second_chance_inclusions": 0},
    {"variant": "delta=5ms", "faulty_nodes": 1, "throughput_ops": 384.6,
     "latency_ms": 693.64, "failed_views_pct": 26.83, "avg_qc_size": 6.0,
     "quorum_minimum": 5, "max_possible_votes": 6, "second_chance_inclusions": 14},
]

# Captured with: run_scenario(load_preset("partition-heal"), quick=True).rows().
GOLDEN_PARTITION_HEAL = [
    {"scenario": "partition-heal",
     "throughput_ops": 556.1, "latency_ms": 10.18, "latency_p90_ms": 9.73,
     "failed_views_pct": 1.18, "avg_qc_size": 8.95, "second_chance_votes": 4,
     "committed_blocks": 124, "messages_dropped": 32, "messages_blocked": 32},
]


@pytest.mark.slow
def test_fig3c_spec_grid_matches_pre_refactor_values():
    rows = figure_3c(
        replica_counts=(5, 9), payload_sizes=(64,), batch_size=20,
        load=2000, duration=1.0, warmup=0.2, seed=3, max_workers=1,
    )
    assert rows == GOLDEN_FIG3C


@pytest.mark.slow
def test_fig4_spec_grid_matches_pre_refactor_values():
    rows = figure_4(
        committee_size=7, fault_counts=(0, 1),
        variants=[{"label": "delta=5ms", "second_chance": 0.005,
                   "leader_policy": "round-robin"}],
        batch_size=20, load=1500, duration=1.5, warmup=0.2,
        view_timeout=0.1, seed=3, max_workers=1,
    )
    assert rows == GOLDEN_FIG4


def test_partition_heal_preset_matches_pre_refactor_values():
    assert api.run("partition-heal", quick=True).rows() == GOLDEN_PARTITION_HEAL
