"""Protocol processes: sans-I/O message handling, timers and a CPU model.

A :class:`Process` is a pure protocol state machine: it never touches an
event loop, a socket or the simulator directly.  All I/O goes through the
narrow :class:`~repro.runtime.base.Runtime` interface (now / send /
multicast / set_timer), so the same process runs unchanged under the
deterministic discrete-event runtime (:class:`~repro.runtime.sim.SimRuntime`)
and the live asyncio TCP runtime (:class:`~repro.runtime.live.LiveRuntime`).

Each process also models a single-core machine: handling a message or
signing a block consumes CPU time, and — under a runtime that *models*
CPU (``runtime.models_cpu``) — work queued while the CPU is busy is
delayed.  This is what lets the simulator reproduce the paper's
throughput saturation and CPU-usage comparisons (Figures 3a and 3b)
without real hardware; under the live runtime the work is real, so the
charge is only accumulated for utilisation reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Runtime, TimerHandle
    from repro.simnet.events import Simulator
    from repro.simnet.network import Network

__all__ = ["CpuCostModel", "Process", "Timer"]


@dataclass(frozen=True)
class CpuCostModel:
    """CPU time (seconds) charged for cryptographic and protocol work.

    The defaults approximate BLS-style pairing signatures on commodity
    hardware and are deliberately conservative; the *relative* costs are
    what shapes the reproduced figures.

    Attributes:
        sign: Producing one signature share.
        verify_share: Verifying one individual share.
        verify_aggregate_base: Fixed cost of verifying an aggregate.
        verify_aggregate_per_signer: Added per distinct signer (aggregating
            the public keys).
        aggregate_per_share: Folding one share into an aggregate.
        message_overhead: Fixed cost of handling any message.
        per_byte: Serialisation/hashing cost per payload byte.
    """

    sign: float = 0.00005
    verify_share: float = 0.00005
    verify_aggregate_base: float = 0.0003
    verify_aggregate_per_signer: float = 0.00001
    aggregate_per_share: float = 0.00001
    message_overhead: float = 0.000002
    per_byte: float = 1e-9

    def proposal_cost(self, payload_bytes: int) -> float:
        """Cost of validating a proposal with ``payload_bytes`` of payload."""
        return self.message_overhead + self.per_byte * payload_bytes

    def aggregate_verify_cost(self, signer_count: int) -> float:
        """Cost of verifying one aggregate covering ``signer_count`` signers."""
        return self.verify_aggregate_base + self.verify_aggregate_per_signer * max(signer_count, 0)


@dataclass
class Timer:
    """A cancellable timer owned by a process."""

    handle: "TimerHandle"

    def cancel(self) -> None:
        self.handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self.handle.cancelled


class Process:
    """Base class for all protocol participants (sans-I/O).

    Construct either with an explicit runtime::

        Process(process_id, runtime=my_runtime)

    or — the long-standing simulator signature, kept for the many tests
    and harnesses wiring deployments by hand — with a simulator/network
    pair, which is adapted through the shared :class:`SimRuntime`::

        Process(process_id, simulator, network)
    """

    def __init__(
        self,
        process_id: int,
        simulator: "Optional[Simulator]" = None,
        network: "Optional[Network]" = None,
        cpu_model: Optional[CpuCostModel] = None,
        runtime: "Optional[Runtime]" = None,
    ) -> None:
        if runtime is None:
            if simulator is None or network is None:
                raise TypeError(
                    "Process needs either runtime=... or a (simulator, network) pair"
                )
            from repro.runtime.sim import SimRuntime  # local: avoids import cycle

            runtime = SimRuntime.shared(simulator, network)
        self.process_id = process_id
        self.runtime = runtime
        # Convenience accessors for sim-runtime callers (tests, failure
        # injectors); ``None`` under runtimes without a simulator.
        self.simulator = getattr(runtime, "simulator", None)
        self.network = getattr(runtime, "network", None)
        self.cpu_model = cpu_model or CpuCostModel()
        self.crashed = False
        self.restarts = 0
        # Fault timeline (runtime clock): when this process last went
        # down and came back — the resilience report's raw material.
        self.crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        self.busy_time = 0.0
        self._cpu_available_at = 0.0
        # A runtime either models CPU or it does not; read once, not per
        # delivery and per charge.
        self._models_cpu = runtime.models_cpu
        runtime.register(self)

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time (virtual under sim, wall-clock under live)."""
        return self.runtime.now

    # -- messaging ----------------------------------------------------------
    def send(self, destination: int, message: Any, size_bytes: int = 0) -> None:
        """Send a message unless this process has crashed.

        Serialisation and transmission work is charged to the sender's CPU,
        which is what makes a star leader pushing large batched proposals to
        the whole committee a bottleneck at scale.
        """
        if self.crashed:
            return
        self.consume_cpu(self.cpu_model.message_overhead + self.cpu_model.per_byte * size_bytes)
        self.runtime.send(self.process_id, destination, message, size_bytes)

    def multicast(self, destinations, message: Any, size_bytes: int = 0) -> None:
        """Send one message to many destinations through the runtime.

        CPU is charged per destination exactly as :meth:`send` would (the
        charging sequence is kept loop-shaped so simulated timings are
        bit-identical to per-destination sends), but the fan-out reaches
        the runtime as *one* :meth:`Runtime.multicast` call — which lets
        the live runtime encode the payload once and splice the same
        bytes into every peer session instead of re-serialising per peer.
        """
        if self.crashed:
            return
        destinations = list(destinations)
        cost = self.cpu_model.message_overhead + self.cpu_model.per_byte * size_bytes
        for _ in destinations:
            self.consume_cpu(cost)
        self.runtime.multicast(self.process_id, destinations, message, size_bytes)

    def _deliver(self, sender: int, message: Any) -> None:
        """Internal delivery hook called by the runtime.

        Under a CPU-modelling runtime, queues the message behind any CPU
        work in progress, then invokes :meth:`on_message`.
        """
        if self.crashed:
            return
        if self._models_cpu:
            available = self._cpu_available_at
            if self.runtime.now < available:
                self.runtime.call_at(available, self._deliver, sender, message)
                return
        self.on_message(sender, message)

    def on_message(self, sender: int, message: Any) -> None:  # pragma: no cover - abstract
        """Handle a delivered message.  Subclasses override this."""
        raise NotImplementedError

    # -- CPU accounting -------------------------------------------------------
    def consume_cpu(self, seconds: float) -> None:
        """Charge ``seconds`` of CPU time to this process.

        Under the sim runtime, subsequent message deliveries are delayed
        until the CPU is free again, which models processing backlog under
        load; under live runtimes the charge only feeds utilisation stats.
        """
        if seconds <= 0:
            return
        self.busy_time += seconds
        if self._models_cpu:
            now = self.runtime.now
            available = self._cpu_available_at
            # max(now, available) + seconds, without the builtin call.
            self._cpu_available_at = (available if available > now else now) + seconds

    def cpu_utilisation(self, elapsed: float) -> float:
        """Fraction of wall-clock (virtual) time this process was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    # -- timers ---------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback`` after ``delay`` seconds unless crashed by then."""
        return Timer(self.runtime.set_timer(delay, self._fire, callback, args))

    def _fire(self, callback: Callable[..., None], args: tuple) -> None:
        if not self.crashed:
            callback(*args)

    # -- fault injection --------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this process: it neither sends nor receives afterwards."""
        if not self.crashed:
            self.crashed_at = self.runtime.now
        self.crashed = True

    def recover(self) -> None:
        """Restart a crashed process (crash-restart churn).

        The process keeps its pre-crash state — the model is a restart
        from durable storage, not a fresh join — but every message sent
        to it while down was dropped, so subclasses typically re-arm
        their timers to catch up with the rest of the system.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.restarts += 1
        self.recovered_at = self.runtime.now

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}(id={self.process_id}, {status})"
