"""Chaos plans and the scheduled fault driver (no sockets involved).

Drivers are attached with :func:`repro.scenarios.engine.attach_chaos`,
the helper the simulator engine uses, to bare processes on the
deterministic sim runtime, so partition reference counting and
crash/restart timing can be asserted exactly; the socket integration
lives in ``tests/runtime/test_live_chaos.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import ChaosPlan
from repro.scenarios.engine import attach_chaos, compile_scenario
from repro.scenarios.presets import load_preset
from repro.simnet.events import Simulator
from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.process import Process


# ---------------------------------------------------------------------------
# compile_scenario's plan
# ---------------------------------------------------------------------------
def test_plan_from_partition_preset():
    plan = compile_scenario(load_preset("partition-heal")).plan
    assert len(plan.partitions) == 1
    assert plan.partitions[0].heal_at is not None
    assert not plan.crashes and not plan.attackers
    assert plan.shapes_traffic  # the latency model always shapes


def test_plan_from_omission_preset_is_deterministic():
    compiled = compile_scenario(load_preset("omission-cartel"))
    plan = compiled.plan
    again = compile_scenario(load_preset("omission-cartel")).plan
    assert plan.attackers == again.attackers == compiled.attacker_ids
    assert len(plan.attackers) == 4
    assert plan.victim == 2


def test_plan_carries_crash_restart_schedule():
    spec = load_preset("crash-storm").with_(faults={"restart_at": 3.5})
    plan = compile_scenario(spec).plan
    assert len(plan.crashes) == 6
    assert set(plan.restarts) == set(plan.crashes)
    assert all(at == 3.5 for at in plan.restarts.values())


def test_quick_scales_restart_time():
    spec = load_preset("crash-storm").with_(faults={"restart_at": 4.0})
    quick = spec.quick()
    factor = quick.duration / spec.duration
    assert quick.faults.restart_at == 4.0 * factor
    assert quick.faults.restart_at > quick.faults.crash_at


def test_loss_and_bandwidth_reach_the_plan():
    plan = compile_scenario(load_preset("lossy-wan")).plan
    assert plan.loss_probability == 0.03
    wan = compile_scenario(load_preset("wan-5-regions")).plan
    assert wan.bandwidth_bytes_per_sec == 25_000_000.0


def test_plan_refuses_a_restart_without_a_crash():
    with pytest.raises(ValueError, match="never crashes"):
        ChaosPlan(seed=1, restarts={3: 1.0})


def test_plan_refuses_a_restart_before_its_crash():
    with pytest.raises(ValueError, match="restarts before it crashes"):
        ChaosPlan(seed=1, crashes={3: 1.0}, restarts={3: 1.0})
    with pytest.raises(ValueError, match="restarts before it crashes"):
        ChaosPlan(seed=1, crashes={3: 1.0}, restarts={3: 0.5})


# ---------------------------------------------------------------------------
# ChaosDriver on bare processes over a sim clock
# ---------------------------------------------------------------------------
class _Idle(Process):
    def on_message(self, sender, message) -> None:
        pass


def _attach(plan: ChaosPlan, size: int = 6, until: float = 0.0):
    """``size`` idle processes with armed drivers; the clock is at ``until``."""
    sim = Simulator()
    network = Network(sim)
    processes = [_Idle(pid, sim, network) for pid in range(size)]
    sim.run(until=until)
    return sim, processes, attach_chaos(processes, network, plan)


def _plan(**overrides) -> ChaosPlan:
    defaults = dict(seed=1)
    defaults.update(overrides)
    return ChaosPlan(**defaults)


def test_driver_crash_and_restart_timers():
    sim, processes, _drivers = _attach(_plan(crashes={2: 0.5}, restarts={2: 1.0}))
    sim.run(until=0.6)
    assert processes[2].crashed
    sim.run(until=1.1)
    assert not processes[2].crashed
    assert processes[2].restarts == 1


def test_driver_applies_a_fault_already_due_when_armed():
    sim, processes, _drivers = _attach(_plan(crashes={1: 0.0, 4: 0.3}))
    assert processes[1].crashed  # inside attach_chaos, not from a timer
    assert not processes[4].crashed
    sim.run(until=0.5)
    assert processes[4].crashed
    assert sim.events_processed == 1  # pid 4's crash timer only


def test_driver_partition_blocks_only_crossing_links_then_heals():
    event = PartitionEvent(at=1.0, heal_at=2.0, groups=((0, 1, 2), (3, 4)))
    sim, _processes, drivers = _attach(_plan(partitions=(event,)))
    driver = drivers[0]
    assert not any(driver.blocked(dst) for dst in range(1, 6))
    sim.run(until=1.5)
    # Same group stays connected, other group and unlisted pid 5 are cut.
    assert not driver.blocked(1) and not driver.blocked(2)
    assert driver.blocked(3) and driver.blocked(4) and driver.blocked(5)
    sim.run(until=2.5)
    assert not any(driver.blocked(dst) for dst in range(1, 6))


def test_overlapping_partitions_compose_with_reference_counts():
    first = PartitionEvent(at=1.0, heal_at=3.0, groups=((0, 1), (2, 3, 4, 5)))
    second = PartitionEvent(at=1.5, heal_at=2.0, groups=((0, 2), (1, 3, 4, 5)))
    sim, _processes, drivers = _attach(_plan(partitions=(first, second)))
    driver = drivers[0]
    sim.run(until=1.7)
    # Both partitions cut 0->3; healing the second must not restore it.
    assert driver.blocked(3) and driver.blocked(1) and driver.blocked(2)
    sim.run(until=2.5)
    assert driver.blocked(3)  # still held by the first partition
    assert driver.blocked(2)  # ditto (cut 0->2 from 1.0 to 3.0)
    assert not driver.blocked(1)  # only the healed second partition cut 0->1
    sim.run(until=3.5)
    assert not any(driver.blocked(dst) for dst in range(1, 6))


def test_already_healed_partition_is_ignored():
    event = PartitionEvent(at=1.0, heal_at=2.0, groups=((0,), (1, 2, 3, 4, 5)))
    _sim, _processes, drivers = _attach(_plan(partitions=(event,)), until=5.0)
    assert not any(drivers[0].blocked(dst) for dst in range(1, 6))


def test_driver_corrupts_attacker_replicas():
    from repro.attacks.byzantine import OmittingInivaAggregator
    from repro.runtime.live import LiveCluster

    # Build a real (never started) live cluster node set for the cartel
    # preset and check exactly the planned attackers got the adversarial
    # aggregator wired in, aimed at the victim.
    spec = load_preset("omission-cartel").quick()
    cluster = LiveCluster(spec=spec)
    plan = cluster.compiled.plan
    import asyncio

    async def build_nodes():
        from repro.crypto.keys import Committee
        from repro.crypto import run_scheme
        from repro.runtime.live import LiveNode

        committee = Committee(
            run_scheme(cluster.compiled.config.signature_scheme),
            cluster.compiled.config.committee_size,
            seed=cluster.compiled.config.seed,
        )
        return [
            LiveNode(pid, cluster.compiled, committee, epoch=0.0)
            for pid in range(cluster.compiled.config.committee_size)
        ]

    nodes = asyncio.run(build_nodes())
    corrupted = {
        node.pid
        for node in nodes
        if isinstance(node.replica.aggregator, OmittingInivaAggregator)
    }
    assert corrupted == set(plan.attackers)
    for node in nodes:
        if node.pid in corrupted:
            assert node.replica.aggregator.victim == plan.victim


def test_shaper_only_built_when_needed():
    from repro.crypto import run_scheme
    from repro.crypto.keys import Committee
    from repro.runtime.live import LiveNode

    compiled = compile_scenario(load_preset("rack-baseline").quick())
    config = compiled.config
    committee = Committee(run_scheme(config.signature_scheme), config.committee_size, seed=1)
    bare = replace(compiled, plan=_plan())
    assert LiveNode(0, bare, committee, epoch=0.0).shaper is None
    shaped = replace(compiled, plan=_plan(latency_model=ConstantLatency(0.001)))
    assert LiveNode(0, shaped, committee, epoch=0.0).shaper is not None


def test_plan_compiles_for_every_builtin_preset():
    from repro.scenarios.presets import preset_names

    spec_names = preset_names()
    assert len(spec_names) == 9
    for name in spec_names:
        spec = load_preset(name)
        plan = compile_scenario(spec).plan
        assert isinstance(plan, ChaosPlan)
        assert plan.seed == spec.seed
