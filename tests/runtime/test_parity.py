"""Cross-runtime chaos parity: sim and live agree under adversity.

The acceptance property of the chaos layer: a fixed spec + seed produces
matching block finalization and inclusion metrics whether the adversity
is *simulated* (discrete-event network) or *injected* (chaos layer over
real localhost TCP).  Two presets are pinned:

* ``omission-cartel`` — the full compared prefix of committed block ids
  must be identical, the attacker coalition is the same draw, and both
  runtimes record 2ND-CHANCE inclusions (the fallback that defeats the
  censorship);
* ``partition-heal`` — the pre-partition prefix of committed block ids
  must be identical, both runtimes suppress messages while the partition
  is active (``messages_blocked``), and both keep finalizing after heal.

Workloads are preloaded (the determinism precondition PR 4 established);
wall-clock jitter means the *view path* may diverge once timeouts enter
the picture, which is why the partition comparison pins the prefix
committed before the cut rather than the whole chain.
"""

from __future__ import annotations

import pytest

from repro.runtime.live import LiveCluster
from repro.scenarios.engine import build_scenario_deployment, compile_scenario
from repro.scenarios.presets import load_preset


def _deterministic(spec):
    """The preset pinned for cross-runtime comparison: preloaded workload
    (batching independent of arrival timing) and a fixed workload seed."""
    return spec.quick().with_(workload={"preload": True, "seed": 77})


def _sim_run(spec):
    compiled = compile_scenario(spec)
    deployment = build_scenario_deployment(compiled)
    deployment.start()
    deployment.simulator.run(until=compiled.spec.duration)
    return compiled, deployment


@pytest.mark.slow
def test_omission_cartel_parity():
    spec = _deterministic(load_preset("omission-cartel"))
    prefix = 8

    compiled, deployment = _sim_run(spec)
    sim_order = list(deployment.mempool.committed_order)
    sim_inclusions = deployment.metrics.second_chance_inclusions()

    cluster = LiveCluster(spec=spec, target_blocks=prefix + 2, duration=20.0)
    cluster.run()
    live_order = cluster.committed_order(0)

    # Same coalition draw on both substrates (seeded from the spec).
    live_plan_attackers = cluster.compiled.attacker_ids
    assert live_plan_attackers == compiled.attacker_ids != ()

    # Identical finalization: the same censored committee finalizes the
    # same chain prefix under both runtimes.
    assert len(sim_order) >= prefix, "sim run finalized too few blocks"
    assert len(live_order) >= prefix, "live run finalized too few blocks"
    assert sim_order[:prefix] == live_order[:prefix]

    # Matching inclusion behaviour: the 2ND-CHANCE fallback re-added the
    # victim in both runtimes (Theorem 4's honest-root case).
    live_inclusions = sum(
        s["second_chance_inclusions"] for s in cluster.node_summaries
    )
    assert sim_inclusions > 0
    assert live_inclusions > 0


@pytest.mark.slow
def test_partition_heal_parity():
    spec = _deterministic(load_preset("partition-heal"))
    partition = spec.faults.partitions[0]
    prefix = 6

    compiled, deployment = _sim_run(spec)
    sim_order = list(deployment.mempool.committed_order)
    sim_blocked = deployment.network.counters()["messages_blocked"]

    cluster = LiveCluster(spec=spec, duration=compiled.spec.duration + 0.4)
    result = cluster.run()
    live_order = cluster.committed_order(0)
    live_blocked = result.metrics.message_counters["messages_blocked"]

    # The compared prefix commits well before the cut lands, so the two
    # runtimes must agree on it exactly.
    assert partition.at > 0.1
    assert len(sim_order) >= prefix and len(live_order) >= prefix
    assert sim_order[:prefix] == live_order[:prefix]

    # Both substrates actually enforced the partition...
    assert sim_blocked > 0
    assert live_blocked > 0
    # ...and both healed: the chain grew well past the pre-partition
    # prefix on each.
    assert len(sim_order) > 3 * prefix
    assert len(live_order) > 3 * prefix
