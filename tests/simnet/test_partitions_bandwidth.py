"""Tests for timed partitions (link suppression) and per-link bandwidth.

Partitions run through a :class:`~repro.chaos.plan.ChaosPlan` and the
drivers :func:`~repro.scenarios.engine.attach_chaos` arms, as in every
simulated scenario.
"""

import random

import pytest

from repro.chaos import ChaosPlan
from repro.scenarios.engine import attach_chaos
from repro.scenarios.spec import ScenarioSpec
from repro.simnet.events import Simulator
from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import ConstantLatency, LinkBandwidth
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.topology import RegionMatrixLatency


class Recorder(Process):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.simulator.now, sender, message))


def make_network(count: int = 4, delay: float = 0.001):
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(delay))
    processes = [Recorder(pid, sim, network) for pid in range(count)]
    return sim, network, processes


def schedule_partitions(processes, network, *events: PartitionEvent):
    return attach_chaos(processes, network, ChaosPlan(seed=0, partitions=events))


class TestPartitionEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionEvent(at=-1.0, groups=((0,),))
        with pytest.raises(ValueError):
            PartitionEvent(at=2.0, groups=((0,),), heal_at=1.0)
        with pytest.raises(ValueError):
            PartitionEvent(at=0.0, groups=())

    def test_a_process_may_be_listed_once_only(self):
        with pytest.raises(ValueError, match="process 1 is listed twice"):
            PartitionEvent(at=1.0, groups=((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="process 3 is listed twice"):
            PartitionEvent(at=1.0, groups=((3, 3),))

    def test_spec_loader_refuses_overlapping_groups(self):
        data = {
            "name": "overlap",
            "committee": {"size": 9},
            "faults": {
                "partitions": [{"at": 1.0, "groups": [[0, 1, 2, 3, 4], [4, 5, 6, 7, 8]]}]
            },
        }
        with pytest.raises(ValueError, match="process 4 is listed twice"):
            ScenarioSpec.from_dict(data)

    def test_scaled(self):
        event = PartitionEvent(at=2.0, groups=((0, 1), (2,)), heal_at=4.0)
        scaled = event.scaled(0.5)
        assert scaled.at == 1.0 and scaled.heal_at == 2.0
        assert scaled.groups == event.groups
        assert PartitionEvent(at=2.0, groups=((0,),)).scaled(0.5).heal_at is None


class TestLinkBlocking:
    def test_blocked_link_suppresses_and_counts(self):
        sim, network, processes = make_network()
        schedule_partitions(processes, network, PartitionEvent(at=0.0, groups=((0, 2, 3), (1,))))
        processes[0].send(1, "x")
        processes[1].send(0, "y")  # both directions of the link are cut
        processes[0].send(2, "z")  # unrelated link unaffected
        sim.run()
        assert processes[1].received == []
        assert processes[0].received == []
        assert len(processes[2].received) == 1
        assert network.messages_blocked == 2
        assert network.counters()["messages_blocked"] == 2

    def test_unblock_restores_delivery(self):
        sim, network, processes = make_network()
        schedule_partitions(
            processes, network, PartitionEvent(at=0.0, groups=((0,), (1, 2, 3)), heal_at=0.5)
        )
        sim.run(until=0.5)
        processes[0].send(1, "x")
        sim.run()
        assert len(processes[1].received) == 1
        assert network.messages_blocked == 0


class TestScheduledPartitions:
    def test_partition_suppresses_then_heals(self):
        sim, network, processes = make_network(count=4)
        drivers = schedule_partitions(
            processes, network, PartitionEvent(at=1.0, groups=((0, 1), (2, 3)), heal_at=2.0)
        )
        # Before the partition: everything flows.
        sim.run(until=0.5)
        processes[0].send(2, "before")
        sim.run(until=0.9)
        assert [m for _, _, m in processes[2].received] == ["before"]
        # During the partition: cross-group suppressed, intra-group fine.
        sim.run(until=1.1)
        processes[0].send(2, "during-cross")
        processes[0].send(1, "during-intra")
        sim.run(until=1.9)
        assert [m for _, _, m in processes[2].received] == ["before"]
        assert [m for _, _, m in processes[1].received] == ["during-intra"]
        assert network.messages_blocked == 1
        # After the heal: delivery restored, nothing left blocked.
        sim.run(until=2.1)
        processes[0].send(2, "after")
        sim.run()
        assert [m for _, _, m in processes[2].received] == ["before", "after"]
        assert not any(driver.blocked_links for driver in drivers.values())

    def test_unlisted_processes_are_isolated(self):
        sim, network, processes = make_network(count=3)
        schedule_partitions(processes, network, PartitionEvent(at=0.0, groups=((0, 1),)))
        processes[0].send(2, "x")
        processes[2].send(1, "y")
        processes[0].send(1, "z")
        sim.run()
        assert processes[2].received == []
        assert [m for _, _, m in processes[1].received] == ["z"]

    def test_overlapping_partitions_compose(self):
        sim, network, processes = make_network(count=3)
        schedule_partitions(
            processes,
            network,
            PartitionEvent(at=0.0, groups=((0,), (1, 2)), heal_at=1.0),
            PartitionEvent(at=0.5, groups=((0, 1), (2,)), heal_at=2.0),
        )
        # At t=1.2 the first partition healed but the second still cuts 2 off.
        sim.run(until=1.2)
        processes[0].send(1, "a")
        processes[0].send(2, "b")
        sim.run(until=1.9)
        assert [m for _, _, m in processes[1].received] == ["a"]
        assert processes[2].received == []
        sim.run(until=2.5)
        processes[0].send(2, "c")
        sim.run()
        assert [m for _, _, m in processes[2].received] == ["c"]

    def test_already_healed_partition_is_a_noop(self):
        sim, network, processes = make_network(count=2)
        sim.run(until=3.0)
        schedule_partitions(
            processes, network, PartitionEvent(at=1.0, groups=((0,), (1,)), heal_at=2.0)
        )
        processes[0].send(1, "x")
        sim.run()
        assert [m for _, _, m in processes[1].received] == ["x"]


class TestLinkBandwidth:
    def test_transmission_delay_and_fifo_queuing(self):
        model = LinkBandwidth(1000.0)  # 1000 B/s
        # First message: pure transmission time.
        assert model.transmission_delay(0, 1, 500, now=0.0) == pytest.approx(0.5)
        # Second message at the same instant queues behind the first.
        assert model.transmission_delay(0, 1, 500, now=0.0) == pytest.approx(1.0)
        # A different link has its own queue.
        assert model.transmission_delay(0, 2, 500, now=0.0) == pytest.approx(0.5)
        # Once the link drains, no queuing remains.
        assert model.transmission_delay(0, 1, 500, now=5.0) == pytest.approx(0.5)

    def test_overrides_and_reset(self):
        model = LinkBandwidth(1000.0, link_overrides={(0, 1): 100.0})
        assert model.transmission_delay(0, 1, 100, now=0.0) == pytest.approx(1.0)
        assert model.transmission_delay(1, 0, 100, now=0.0) == pytest.approx(0.1)
        model.reset()
        assert model.transmission_delay(0, 1, 100, now=0.0) == pytest.approx(1.0)

    def test_zero_rate_or_size_is_free(self):
        assert LinkBandwidth(None).transmission_delay(0, 1, 100, now=0.0) == 0.0
        assert LinkBandwidth(1000.0).transmission_delay(0, 1, 0, now=0.0) == 0.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            LinkBandwidth(-1.0)
        with pytest.raises(ValueError):
            LinkBandwidth(1000.0, link_overrides={(0, 1): -5.0})

    def test_network_applies_queuing_delay(self):
        sim = Simulator()
        network = Network(
            sim,
            latency_model=ConstantLatency(0.0),
            link_bandwidth=LinkBandwidth(1000.0),
        )
        a = Recorder(0, sim, network)
        b = Recorder(1, sim, network)
        a.send(1, "first", size_bytes=500)
        a.send(1, "second", size_bytes=500)
        sim.run()
        times = [time for time, _, _ in b.received]
        assert times == pytest.approx([0.5, 1.0])


class TestRegionMatrixLatency:
    MATRIX = ((0.0, 0.04, 0.1), (0.04, 0.0, 0.08), (0.1, 0.08, 0.0))

    def test_intra_vs_inter_region(self):
        model = RegionMatrixLatency.evenly_spread(6, self.MATRIX, intra_delay=0.001, jitter=0.0)
        rng = random.Random(1)
        # Processes 0 and 3 share region 0; 0 and 1 are regions 0 and 1.
        assert model.sample(rng, 0, 3) == pytest.approx(0.001)
        assert model.sample(rng, 0, 1) == pytest.approx(0.04)
        assert model.sample(rng, 2, 5) == pytest.approx(0.001)
        assert model.sample(rng, 1, 2) == pytest.approx(0.08)

    def test_jitter_stays_positive(self):
        model = RegionMatrixLatency.evenly_spread(6, self.MATRIX, jitter=0.5)
        rng = random.Random(2)
        samples = [model.sample(rng, 0, 1) for _ in range(200)]
        assert all(value > 0 for value in samples)
        assert model.upper_bound >= max(samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionMatrixLatency({0: 0}, ())
        with pytest.raises(ValueError):
            RegionMatrixLatency({0: 0}, ((0.0, 0.1),))  # not square
        with pytest.raises(ValueError):
            RegionMatrixLatency({0: 5}, self.MATRIX)  # region out of range
        with pytest.raises(ValueError):
            RegionMatrixLatency({0: 0}, self.MATRIX, jitter=1.5)
