"""Exact-count golden of a whole simulated run.

The spec has the shape of the benchmark's ``sim-n100-crash10`` workload
(n=100, ten crashed replicas chosen by ``crash_seed=11``, Poisson clients
at 600 ops/s, 2 s warm-up + 1.5 measured virtual seconds), run under
``iniva`` and ``star`` with two seeds each.  Every number a fixed seed must
reproduce is pinned: the events the simulator processed, the network's
message counters, 2ND-CHANCE inclusions, the mean QC size, the latency
summary, view counts, CPU utilisation and a digest of the committed
order.  A kernel change that
reorders, adds or drops one event anywhere fails here.

Three quick presets pin the same fields for the fault kinds the
crash-from-start shape does not reach: four simultaneous restarts
(``crash-storm`` with ``restart_at``, whose recoveries draw from the
network RNG in the order they fire), a partition that heals
(``partition-heal``) and an omission cartel (``omission-cartel``).

To regenerate ``golden_sim_counts.json`` (only for a deliberate behaviour
change, with the reason written down): ``PYTHONPATH=src python
tests/simnet/test_sim_counts.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro import api
from repro.experiments.runner import summarise
from repro.scenarios.presets import load_preset
from repro.scenarios.spec import CommitteeSpec, FaultSpec, ScenarioSpec, WorkloadSpec

_GOLDEN_PATH = Path(__file__).with_name("golden_sim_counts.json")
CASES = [(aggregation, seed) for aggregation in ("iniva", "star") for seed in (1, 2)]
FAULT_CASES = {
    "crash-storm-restart/quick": lambda: load_preset("crash-storm")
    .with_(faults={"restart_at": 3.5})
    .quick(),
    "partition-heal/quick": lambda: load_preset("partition-heal").quick(),
    "omission-cartel/quick": lambda: load_preset("omission-cartel").quick(),
}


def _spec(aggregation: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"golden-sim-n100-crash10-{aggregation}",
        aggregation=aggregation,
        signature_scheme="hashsig",
        batch_size=100,
        duration=2.0 + 1.5,
        warmup=2.0,
        seed=seed,
        committee=CommitteeSpec(size=100),
        faults=FaultSpec(crashes=10, crash_seed=11),
        workload=WorkloadSpec(rate=600.0, payload_size=64, arrival="poisson", seed=seed),
    )


def exact_counts(spec: ScenarioSpec) -> Dict[str, Any]:
    deployment = api.deploy(spec)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    result = summarise(deployment, spec.duration)
    order = "\n".join(deployment.mempool.committed_order).encode()
    return {
        "events_processed": deployment.simulator.events_processed,
        "messages": dict(result.message_counters),
        "second_chance_inclusions": result.second_chance_inclusions,
        "average_qc_size": result.average_qc_size,
        "latency": result.latency.to_dict(),
        "total_views": result.total_views,
        "successful_views": result.successful_views,
        # Sums of charged CPU seconds: the CPU model's float arithmetic.
        "cpu_utilisation_mean": result.cpu_utilisation_mean,
        "cpu_utilisation_max": result.cpu_utilisation_max,
        "committed_blocks": len(deployment.mempool.committed_order),
        "committed_order_sha256": hashlib.sha256(order).hexdigest(),
    }


def _key(aggregation: str, seed: int) -> str:
    return f"{aggregation}/seed={seed}"


@pytest.mark.slow
@pytest.mark.parametrize("aggregation,seed", CASES)
def test_exact_counts_match_golden(aggregation, seed):
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert exact_counts(_spec(aggregation, seed)) == golden[_key(aggregation, seed)]


@pytest.mark.parametrize("case", sorted(FAULT_CASES))
def test_fault_counts_match_golden(case):
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert exact_counts(FAULT_CASES[case]()) == golden[case]


if __name__ == "__main__":
    document = {
        _key(aggregation, seed): exact_counts(_spec(aggregation, seed))
        for aggregation, seed in CASES
    }
    document.update({case: exact_counts(build()) for case, build in FAULT_CASES.items()})
    _GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN_PATH}")
