"""Chaos plans and the scheduled fault driver (no sockets involved).

The driver is exercised against a stub node running on the deterministic
sim runtime, so partition reference counting and crash/restart timing can
be asserted exactly; the socket integration lives in
``tests/runtime/test_live_chaos.py``.
"""

from __future__ import annotations

from repro.chaos import ChaosDriver, compile_chaos_plan
from repro.chaos.plan import ChaosPlan
from repro.scenarios.engine import compile_scenario
from repro.scenarios.presets import load_preset
from repro.simnet.events import Simulator
from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import ConstantLatency


# ---------------------------------------------------------------------------
# compile_chaos_plan
# ---------------------------------------------------------------------------
def test_plan_from_partition_preset():
    plan = compile_chaos_plan(compile_scenario(load_preset("partition-heal")))
    assert len(plan.partitions) == 1
    assert plan.partitions[0].heal_at is not None
    assert plan.has_scheduled_faults
    assert not plan.is_adversarial
    assert plan.shapes_traffic  # the latency model always shapes


def test_plan_from_omission_preset_is_deterministic():
    compiled = compile_scenario(load_preset("omission-cartel"))
    plan = compile_chaos_plan(compiled)
    again = compile_chaos_plan(compile_scenario(load_preset("omission-cartel")))
    assert plan.attackers == again.attackers == compiled.attacker_ids
    assert plan.victim == 2
    assert plan.is_adversarial


def test_plan_carries_crash_restart_schedule():
    spec = load_preset("crash-storm").with_(faults={"restart_at": 3.5})
    plan = compile_chaos_plan(compile_scenario(spec))
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
    plan = compile_chaos_plan(compile_scenario(load_preset("lossy-wan")))
    assert plan.loss_probability == 0.03
    wan = compile_chaos_plan(compile_scenario(load_preset("wan-5-regions")))
    assert wan.bandwidth_bytes_per_sec == 25_000_000.0


# ---------------------------------------------------------------------------
# ChaosDriver against a stub node on a sim clock
# ---------------------------------------------------------------------------
class _StubRuntime:
    """Minimal runtime for the driver: sim clock + relative timers."""

    def __init__(self) -> None:
        self.simulator = Simulator()

    @property
    def now(self) -> float:
        return self.simulator.now

    def set_timer(self, delay, callback, *args):
        return self.simulator.schedule(max(delay, 0.0), callback, *args)


class _StubReplica:
    def __init__(self, pid: int) -> None:
        self.process_id = pid
        self.crashed = False
        self.restarts = 0
        self.aggregator = None

    def crash(self) -> None:
        self.crashed = True

    def recover(self) -> None:
        if self.crashed:
            self.crashed = False
            self.restarts += 1


class _StubConfig:
    committee_size = 6


class _StubCompiled:
    config = _StubConfig()


class _StubNode:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.replica = _StubReplica(pid)
        self.runtime = _StubRuntime()
        self.compiled = _StubCompiled()


def _plan(**overrides) -> ChaosPlan:
    defaults = dict(seed=1)
    defaults.update(overrides)
    return ChaosPlan(**defaults)


def test_driver_crash_and_restart_timers():
    node = _StubNode(2)
    driver = ChaosDriver(node, _plan(crashes={2: 0.5}, restarts={2: 1.0}))
    driver.arm()
    sim = node.runtime.simulator
    sim.run(until=0.6)
    assert node.replica.crashed
    sim.run(until=1.1)
    assert not node.replica.crashed
    assert node.replica.restarts == 1


def test_driver_partition_blocks_only_crossing_links_then_heals():
    node = _StubNode(0)
    event = PartitionEvent(at=1.0, heal_at=2.0, groups=((0, 1, 2), (3, 4)))
    driver = ChaosDriver(node, _plan(partitions=(event,)))
    driver.arm()
    sim = node.runtime.simulator
    assert not any(driver.blocked(dst) for dst in range(1, 6))
    sim.run(until=1.5)
    # Same group stays connected, other group and unlisted pid 5 are cut.
    assert not driver.blocked(1) and not driver.blocked(2)
    assert driver.blocked(3) and driver.blocked(4) and driver.blocked(5)
    sim.run(until=2.5)
    assert not any(driver.blocked(dst) for dst in range(1, 6))


def test_overlapping_partitions_compose_with_reference_counts():
    node = _StubNode(0)
    first = PartitionEvent(at=1.0, heal_at=3.0, groups=((0, 1), (2, 3, 4, 5)))
    second = PartitionEvent(at=1.5, heal_at=2.0, groups=((0, 2), (1, 3, 4, 5)))
    driver = ChaosDriver(node, _plan(partitions=(first, second)))
    driver.arm()
    sim = node.runtime.simulator
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
    node = _StubNode(0)
    node.runtime.simulator.run(until=5.0)
    event = PartitionEvent(at=1.0, heal_at=2.0, groups=((0,), (1, 2, 3, 4, 5)))
    driver = ChaosDriver(node, _plan(partitions=(event,)))
    driver.arm()
    assert not any(driver.blocked(dst) for dst in range(1, 6))


def test_driver_corrupts_attacker_replicas():
    from repro.attacks.byzantine import OmittingInivaAggregator
    from repro.runtime.live import LiveCluster

    # Build a real (never started) live cluster node set for the cartel
    # preset and check exactly the planned attackers got the adversarial
    # aggregator wired in, aimed at the victim.
    spec = load_preset("omission-cartel").quick()
    cluster = LiveCluster(spec=spec)
    plan = compile_chaos_plan(cluster.compiled)
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
    node = _StubNode(0)
    bare = ChaosDriver(node, _plan())
    assert bare.shaper is None
    shaped = ChaosDriver(_StubNode(0), _plan(latency_model=ConstantLatency(0.001)))
    assert shaped.shaper is not None


def test_plan_compiles_for_every_builtin_preset():
    from repro.scenarios.presets import preset_names

    spec_names = preset_names()
    assert len(spec_names) == 9
    for name in spec_names:
        spec = load_preset(name)
        plan = compile_chaos_plan(compile_scenario(spec))
        assert isinstance(plan, ChaosPlan)
        assert plan.seed == spec.seed
