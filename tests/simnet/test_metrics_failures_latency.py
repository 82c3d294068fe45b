"""Tests for metrics collection, latency models and fault injection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosPlan
from repro.scenarios.engine import attach_chaos, compile_scenario
from repro.scenarios.spec import CommitteeSpec, FaultSpec, ScenarioSpec
from repro.simnet.events import Simulator
from repro.simnet.failures import PartitionEvent
from repro.simnet.latency import ConstantLatency, NormalLatency
from repro.simnet.metrics import LatencyStats, MetricsCollector
from repro.simnet.network import Network
from repro.simnet.process import Process


class Dummy(Process):
    def on_message(self, sender, message):  # pragma: no cover - not exercised
        pass


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.004)
        assert model.sample(random.Random(0), 0, 1) == 0.004
        assert model.upper_bound == 0.004

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_normal_respects_minimum(self):
        model = NormalLatency(mean=0.0005, std=0.01, minimum=0.0004)
        rng = random.Random(2)
        samples = [model.sample(rng, 0, 1) for _ in range(200)]
        assert all(s >= 0.0004 for s in samples)
        assert model.upper_bound > model.mean

    def test_normal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NormalLatency(mean=-1.0)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.5])
        assert stats.count == 1
        assert stats.mean == stats.median == stats.p99 == stats.maximum == 0.5

    def test_percentiles_ordering(self):
        stats = LatencyStats.from_samples([i / 100 for i in range(1, 101)])
        assert stats.median <= stats.p90 <= stats.p99 <= stats.maximum
        assert stats.maximum == 1.0

    @given(samples=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_stats_bounded_by_extremes(self, samples):
        stats = LatencyStats.from_samples(samples)
        assert min(samples) <= stats.mean <= max(samples) + 1e-9
        assert stats.maximum == max(samples)


class TestMetricsCollector:
    def test_throughput_over_window(self):
        metrics = MetricsCollector()
        metrics.record_commit(1.0, 100)
        metrics.record_commit(2.0, 300)
        metrics.mark_window(0.0, 4.0)
        assert metrics.throughput() == pytest.approx(100.0)
        assert metrics.committed_operations() == 400
        assert metrics.committed_blocks() == 2

    def test_warmup_excludes_early_samples(self):
        metrics = MetricsCollector(warmup=5.0)
        metrics.record_commit(1.0, 100)
        metrics.record_latencies(1.0, [0.2, 0.3])
        metrics.record_commit(6.0, 100)
        metrics.record_latencies(6.0, [0.4])
        metrics.mark_window(0.0, 10.0)
        assert metrics.committed_operations() == 100
        assert metrics.latency_samples() == [0.4]

    def test_view_and_qc_records(self):
        metrics = MetricsCollector()
        metrics.record_view(1, True)
        metrics.record_view(2, False)
        metrics.record_qc_size(15)
        metrics.record_qc_size(21)
        assert metrics.total_views() == 2
        assert metrics.average_qc_size() == 18
        assert metrics.qc_sizes() == [15, 21]

    def test_counters_and_second_chance(self):
        metrics = MetricsCollector()
        assert metrics.second_chance_inclusions() == 0
        metrics.record_second_chance_inclusion()
        metrics.record_second_chance_inclusion(3)
        assert metrics.second_chance_inclusions() == 4

    def test_zero_duration_throughput(self):
        metrics = MetricsCollector()
        assert metrics.throughput() == 0.0


def _processes(count: int):
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(0.001))
    return sim, network, [Dummy(pid, sim, network) for pid in range(count)]


def _crash_draw(size: int, crashes: int, **faults) -> ChaosPlan:
    spec = ScenarioSpec(
        name="crash-draw",
        committee=CommitteeSpec(size=size),
        faults=FaultSpec(crashes=crashes, **faults),
    )
    return compile_scenario(spec).plan


class TestFailureInjection:
    def test_crash_from_start(self):
        sim, network, processes = _processes(4)
        attach_chaos(processes, network, ChaosPlan(seed=0, crashes={1: 0.0, 3: 0.0}))
        assert [process.crashed for process in processes] == [False, True, False, True]

    def test_random_crashes_respect_exclusions(self):
        plan = _crash_draw(10, 3, crash_seed=1, crash_exclude=(1,))
        assert len(plan.crashes) == 3
        assert not set(plan.crashes) & {0, 1}  # the leader is protected too
        assert set(plan.crashes.values()) == {0.0}
        assert plan.restarts == {}

    def test_random_crashes_too_many(self):
        with pytest.raises(ValueError, match="cannot crash more processes"):
            _crash_draw(4, 4)

    def test_injector_applies_immediate_and_scheduled_crashes(self):
        sim, network, processes = _processes(3)
        attach_chaos(processes, network, ChaosPlan(seed=0, crashes={0: 0.0, 1: 1.0}))
        assert processes[0].crashed
        assert not processes[1].crashed
        sim.run()
        assert processes[1].crashed
        assert not processes[2].crashed

    def test_crash_link_drops_messages(self):
        sim = Simulator()
        network = Network(sim, latency_model=ConstantLatency(0.001))

        received = []

        class Recorder(Process):
            def on_message(self, sender, message):
                received.append((self.process_id, message))

        a = Recorder(0, sim, network)
        b = Recorder(1, sim, network)
        # A partition that never heals is a crashed link, both directions.
        cut = PartitionEvent(at=0.0, groups=((0,), (1,)))
        attach_chaos([a, b], network, ChaosPlan(seed=0, partitions=(cut,)))
        a.send(1, "x")
        b.send(0, "y")
        sim.run()
        assert received == []
