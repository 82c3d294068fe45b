"""The sans-I/O Process over the SimRuntime adapter.

The refactor's contract: a process constructed the classic way (simulator
+ network) behaves exactly as before, a process constructed with an
explicit runtime behaves identically, and the runtime interface exposes
everything the protocol core needs (now / send / timers / counters).
"""

from __future__ import annotations

import pytest

from repro.runtime.base import Runtime
from repro.runtime.sim import SimRuntime
from repro.simnet.events import Simulator
from repro.simnet.latency import ConstantLatency
from repro.simnet.network import Network
from repro.simnet.process import Process


class Echo(Process):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message, self.now))


def _pair(latency=0.001):
    sim = Simulator()
    network = Network(sim, latency_model=ConstantLatency(latency))
    return sim, network


def test_shared_runtime_is_cached_per_network():
    sim, network = _pair()
    a = Echo(0, sim, network)
    b = Echo(1, sim, network)
    assert isinstance(a.runtime, SimRuntime)
    assert a.runtime is b.runtime
    assert isinstance(a.runtime, Runtime)


def test_explicit_runtime_construction_equivalent():
    sim, network = _pair(latency=0.002)
    runtime = SimRuntime.shared(sim, network)
    a = Echo(0, runtime=runtime)
    b = Echo(1, runtime=runtime)
    a.send(1, "hello")
    sim.run()
    assert b.received == [(0, "hello", 0.002)]
    # The classic attribute surface still works under the sim runtime.
    assert a.simulator is sim
    assert a.network is network


def test_process_requires_runtime_or_sim_pair():
    with pytest.raises(TypeError, match="runtime"):
        Echo(0)


def test_now_property_tracks_virtual_clock():
    sim, network = _pair()
    a = Echo(0, sim, network)
    assert a.now == 0.0
    sim.schedule(1.5, lambda: None)
    sim.run()
    assert a.now == 1.5


def test_runtime_timer_cancellation():
    sim, network = _pair()
    a = Echo(0, sim, network)
    fired = []
    timer = a.set_timer(0.5, fired.append, "x")
    assert not timer.cancelled
    timer.cancel()
    assert timer.cancelled
    sim.run()
    assert fired == []


def test_cpu_backlog_still_modelled_under_sim_runtime():
    sim, network = _pair(latency=0.001)
    a = Echo(0, sim, network)
    b = Echo(1, sim, network)
    # Charge 10ms of CPU to b at t=0; a message arriving at 1ms must wait.
    b.consume_cpu(0.010)
    a.send(1, "queued")
    sim.run()
    assert b.received == [(0, "queued", 0.010)]
    assert a.runtime.models_cpu


def test_per_replica_counters_through_runtime():
    sim, network = _pair()
    a = Echo(0, sim, network)
    Echo(1, sim, network)
    a.send(1, "x", size_bytes=100)
    a.send(1, "y", size_bytes=50)
    sim.run()
    per_replica = a.runtime.per_replica_counters()
    assert per_replica[0] == {
        "messages_sent": 2,
        "messages_received": 0,
        "bytes_sent": 150,
        "messages_dropped": 0,
        "messages_delayed": 2,  # both sends paid the constant link latency
    }
    assert per_replica[1]["messages_received"] == 2
    assert a.runtime.counters()["messages_sent"] == 2


def test_multicast_through_runtime():
    sim, network = _pair()
    sender = Echo(0, sim, network)
    receivers = [Echo(pid, sim, network) for pid in (1, 2, 3)]
    sender.runtime.multicast(0, [1, 2, 3], "fan-out")
    sim.run()
    assert all(r.received for r in receivers)


def test_runtime_surface_is_the_five_verbs():
    """now, send/multicast, set_timer/call_at, spawn — and registration."""
    assert Runtime.__abstractmethods__ == {"now", "send", "register", "set_timer", "call_at"}
    assert not hasattr(Runtime, "offload")
