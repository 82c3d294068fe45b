"""Tests for simulated processes, the CPU model and the network."""

import pytest

from repro.chaos import ChaosPlan
from repro.scenarios.engine import attach_chaos
from repro.simnet.events import Simulator
from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.process import CpuCostModel, Process


class Echo(Process):
    """A process that records everything it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message, self.simulator.now))


def make_pair(latency=0.001, **network_kwargs):
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(latency), **network_kwargs)
    a = Echo(0, sim, network)
    b = Echo(1, sim, network)
    return sim, network, a, b


class TestDelivery:
    def test_message_delivered_with_latency(self):
        sim, network, a, b = make_pair(latency=0.002)
        a.send(1, "hello")
        sim.run()
        assert b.received == [(0, "hello", 0.002)]

    def test_multicast(self):
        sim = Simulator()
        network = Network(sim, latency_model=ConstantLatency(0.001))
        sender = Echo(0, sim, network)
        receivers = [Echo(pid, sim, network) for pid in range(1, 4)]
        sender.multicast([1, 2, 3], "x")
        sim.run()
        assert all(r.received for r in receivers)

    def test_send_to_unknown_destination_counts_as_drop(self):
        sim, network, a, b = make_pair()
        a.send(99, "void")
        sim.run()
        assert network.messages_dropped == 1

    def test_counters(self):
        sim, network, a, b = make_pair()
        a.send(1, "x", size_bytes=100)
        sim.run()
        counters = network.counters()
        assert counters["messages_sent"] == 1
        assert counters["messages_delivered"] == 1
        assert counters["bytes_sent"] == 100

    def test_duplicate_registration_rejected(self):
        sim, network, a, b = make_pair()
        with pytest.raises(ValueError):
            Echo(0, sim, network)


class TestFailuresAndPartitions:
    def test_crashed_process_does_not_send_or_receive(self):
        sim, network, a, b = make_pair()
        b.crash()
        a.send(1, "x")
        b.send(0, "y")
        sim.run()
        assert b.received == []
        assert a.received == []

    def test_drop_rule(self):
        sim, network, a, b = make_pair()
        network.add_drop_rule(lambda src, dst, msg: msg == "secret")
        a.send(1, "secret")
        a.send(1, "public")
        sim.run()
        assert [m for _, m, _ in b.received] == ["public"]
        network.clear_drop_rules()
        a.send(1, "secret")
        sim.run()
        assert [m for _, m, _ in b.received] == ["public", "secret"]

    def test_partition_and_heal(self):
        sim, network, a, b = make_pair()
        partition = PartitionEvent(at=0.0, groups=((0,), (1,)), heal_at=1.0)
        attach_chaos([a, b], network, ChaosPlan(seed=0, partitions=(partition,)))
        a.send(1, "lost")
        sim.run(until=0.5)
        assert b.received == []
        sim.run(until=1.0)
        a.send(1, "found")
        sim.run()
        assert [m for _, m, _ in b.received] == ["found"]

    def test_probabilistic_loss(self):
        sim = Simulator()
        network = Network(sim, latency_model=ConstantLatency(0.0001), seed=3, loss_probability=0.5)
        a = Echo(0, sim, network)
        b = Echo(1, sim, network)
        for _ in range(200):
            a.send(1, "x")
        sim.run()
        assert 40 < len(b.received) < 160

    def test_invalid_loss_probability(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, loss_probability=1.5)


class TestCpuModel:
    def test_busy_time_accumulates(self):
        sim, network, a, b = make_pair()
        a.consume_cpu(0.25)
        a.consume_cpu(0.25)
        assert a.busy_time == pytest.approx(0.5)
        assert a.cpu_utilisation(elapsed=1.0) == pytest.approx(0.5)

    def test_utilisation_capped_at_one(self):
        sim, network, a, b = make_pair()
        a.consume_cpu(5.0)
        assert a.cpu_utilisation(elapsed=1.0) == 1.0

    def test_busy_process_delays_handling(self):
        sim = Simulator()
        network = Network(sim, latency_model=ConstantLatency(0.001))

        class Worker(Echo):
            def on_message(self, sender, message):
                super().on_message(sender, message)
                self.consume_cpu(0.010)

        sender = Echo(0, sim, network)
        worker = Worker(1, sim, network)
        sender.send(1, "first")
        sender.send(1, "second")
        sim.run()
        first_time = worker.received[0][2]
        second_time = worker.received[1][2]
        # The second message queues behind the 10 ms of CPU work.
        assert second_time >= first_time + 0.010

    def test_send_charges_serialisation_cost(self):
        sim, network, a, b = make_pair()
        model = CpuCostModel()
        a.send(1, "x", size_bytes=1_000_000)
        assert a.busy_time == pytest.approx(model.message_overhead + model.per_byte * 1_000_000)

    def test_cost_model_helpers(self):
        model = CpuCostModel()
        assert model.proposal_cost(0) == pytest.approx(model.message_overhead)
        assert model.aggregate_verify_cost(10) > model.aggregate_verify_cost(1)

    def test_timer_fires_and_cancel(self):
        sim, network, a, b = make_pair()
        fired = []
        timer = a.set_timer(0.5, fired.append, "t1")
        a.set_timer(0.7, fired.append, "t2")
        timer.cancel()
        sim.run()
        assert fired == ["t2"]

    def test_timer_suppressed_after_crash(self):
        sim, network, a, b = make_pair()
        fired = []
        a.set_timer(0.5, fired.append, "x")
        a.crash()
        sim.run()
        assert fired == []
