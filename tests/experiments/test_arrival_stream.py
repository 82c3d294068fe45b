"""Golden of the simulated client arrival stream, and of what deploying it costs.

:meth:`ClientWorkload.attach` feeds the shared mempool one request per
arrival.  Every ``(submitted_at, client_id)`` pair it produces — for each
arrival model at two seeds — is pinned here as a digest of the exact
float bits, so a change to *how* arrivals are scheduled (all up front, or
one at a time as the clock reaches them) cannot move *when* they happen
or whom they are attributed to.

The deploy-size checks pin the other half of the contract: deploying a
spec posts a single arrival, so the heap a deployment starts from does
not grow with the run's length or rate.

To regenerate ``golden_arrival_streams.json`` (only for a deliberate
change to the arrival models, with the reason written down):
``PYTHONPATH=src python tests/experiments/test_arrival_stream.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro import api
from repro.clients.arrivals import ARRIVAL_MODELS
from repro.consensus.mempool import Mempool
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.spec import CommitteeSpec, FaultSpec, ScenarioSpec, WorkloadSpec
from repro.simnet.events import Simulator

_GOLDEN_PATH = Path(__file__).with_name("golden_arrival_streams.json")
DURATION = 2.0
SEEDS = (7, 11)
CASES = [(model, seed) for model in ARRIVAL_MODELS for seed in SEEDS]


def _workload(model: str, seed: int) -> ClientWorkload:
    # A half-second period puts four cycles of the time-varying models in
    # the window, so their phase arithmetic is exercised, not just the head.
    return ClientWorkload(
        rate=400.0, num_clients=3, arrival=model, burst_factor=4.0, period=0.5, seed=seed
    )


def arrival_stream(model: str, seed: int) -> List[Tuple[float, int]]:
    """Every ``(submitted_at, client_id)`` a run of ``DURATION`` seconds submits."""
    simulator, mempool = Simulator(), Mempool()
    _workload(model, seed).attach(simulator, mempool, DURATION)
    simulator.run(until=DURATION)
    requests = mempool.next_batch(mempool.pending_count)
    return [(request.submitted_at, request.client_id) for request in requests]


def stream_digest(model: str, seed: int) -> Dict[str, Any]:
    stream = arrival_stream(model, seed)
    lines = "\n".join(f"{time.hex()},{client}" for time, client in stream)
    return {
        "count": len(stream),
        "first": [stream[0][0].hex(), stream[0][1]],
        "last": [stream[-1][0].hex(), stream[-1][1]],
        "sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }


def _key(model: str, seed: int) -> str:
    return f"{model}/seed={seed}"


@pytest.mark.parametrize("model,seed", CASES)
def test_arrival_stream_matches_golden(model, seed):
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert stream_digest(model, seed) == golden[_key(model, seed)]


@pytest.mark.parametrize("model,seed", CASES)
def test_arrivals_are_submitted_in_time_order_before_the_horizon(model, seed):
    stream = arrival_stream(model, seed)
    times = [time for time, _ in stream]
    assert times == sorted(times)
    assert 0.0 < times[0] and times[-1] < DURATION
    # Round-robin attribution by arrival index.
    assert [client for _, client in stream] == [index % 3 for index in range(len(stream))]


def _sim_n100_crash10(duration: float) -> ScenarioSpec:
    """The benchmark's ``sim-n100-crash10`` shape (one seed, ``iniva``)."""
    return ScenarioSpec(
        name="arrivals-sim-n100-crash10",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=100,
        duration=duration,
        warmup=min(2.0, duration / 2),
        seed=1,
        committee=CommitteeSpec(size=100),
        faults=FaultSpec(crashes=10, crash_seed=11),
        workload=WorkloadSpec(rate=600.0, payload_size=64, arrival="poisson", seed=1),
    )


def _heap(deployment) -> list:
    return deployment.simulator._queue._heap


def _arrivals_in_heap(deployment) -> int:
    mempool = deployment.mempool
    return sum(
        1
        for _, _, _, callback, _ in _heap(deployment)
        if getattr(callback, "mempool", None) is mempool
    )


def test_deploy_posts_one_arrival():
    # The suite's run length: 2 s warm-up + 4 virtual seconds per second.
    deployment = api.deploy(_sim_n100_crash10(2.0 + 4.0 * 15))
    assert _arrivals_in_heap(deployment) == 1


def test_deployed_heap_does_not_grow_with_run_length():
    short = api.deploy(_sim_n100_crash10(1.0))
    long = api.deploy(_sim_n100_crash10(60.0))
    assert len(_heap(short)) == len(_heap(long))


def test_arrival_beyond_the_run_is_never_posted():
    # A rate so low the first gap overshoots the run: nothing is posted.
    simulator, mempool = Simulator(), Mempool()
    ClientWorkload(rate=1e-9, arrival="uniform").attach(simulator, mempool, 1.0)
    assert len(simulator._queue) == 0
    assert simulator.run(until=1.0) == 1.0
    assert mempool.submitted_count == 0


if __name__ == "__main__":
    _GOLDEN_PATH.write_text(
        json.dumps(
            {_key(model, seed): stream_digest(model, seed) for model, seed in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {_GOLDEN_PATH}")
