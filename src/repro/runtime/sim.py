"""The deterministic discrete-event runtime (the correctness oracle).

:class:`SimRuntime` adapts one ``(Simulator, Network)`` pair to the
:class:`~repro.runtime.base.Runtime` interface.  It adds **no** behaviour
of its own: every verb delegates straight to the simulator/network call
the protocol core used to make directly, so fixed-seed runs are
bit-identical to the pre-refactor code (pinned by the golden tests in
``tests/api/test_golden.py``).

One runtime is shared by every process on the same network; use
:meth:`SimRuntime.shared` to get (or lazily create) it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.runtime.base import Runtime, TimerHandle
from repro.simnet.events import Simulator
from repro.simnet.network import Network

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """Runtime over the discrete-event :class:`Simulator` + :class:`Network`."""

    models_cpu = True
    name = "sim"

    def __init__(self, simulator: Simulator, network: Network) -> None:
        self.simulator = simulator
        self.network = network

    @classmethod
    def shared(cls, simulator: Simulator, network: Network) -> "SimRuntime":
        """The per-network singleton runtime (created on first use)."""
        runtime = getattr(network, "_sim_runtime", None)
        if runtime is None or runtime.simulator is not simulator:
            runtime = cls(simulator, network)
            network._sim_runtime = runtime
        return runtime

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.simulator._now  # read on every delivery: skip the property

    # -- transport -----------------------------------------------------------
    def register(self, process: Any) -> None:
        self.network.register(process)

    def send(self, src: int, dst: int, message: Any, size_bytes: int = 0) -> None:
        self.network.send(src, dst, message, size_bytes)

    def counters(self) -> Dict[str, int]:
        return self.network.counters()

    def per_replica_counters(self) -> Dict[int, Dict[str, int]]:
        return self.network.per_replica_counters()

    # -- timers --------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        return self.simulator.schedule(delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        self.simulator.post_at(time, callback, *args)
