"""Fault injection and traffic shaping, one executor for both runtimes.

A scenario's faults — crashes, crash-restart churn, timed partitions and
the Byzantine omission cartel — are declared once in the
:class:`~repro.scenarios.spec.ScenarioSpec` and executed by one piece of
code on the simulator and on the live asyncio cluster alike:

* :mod:`repro.chaos.plan` — :class:`ChaosPlan`, the seeded, deterministic
  schedule :func:`~repro.scenarios.engine.compile_scenario` resolves from
  the spec: crashes/restarts, timed partitions, the Byzantine coalition
  and the link-shaping parameters (latency model, loss, bandwidth);
* :mod:`repro.chaos.driver` — :class:`ChaosDriver`, the scheduled fault
  executor attached to every replica (by
  :func:`~repro.scenarios.engine.attach_chaos` on the simulator, by
  :class:`~repro.runtime.live.LiveNode` on the live cluster): it corrupts
  attacker replicas with the adversarial behaviours from
  :mod:`repro.attacks`, arms crash/restart timers through the runtime's
  ``set_timer`` and applies timed partitions as reference-counted
  suppression of the replica's outbound links;
* :mod:`repro.chaos.shaping` — :class:`LinkShaper`, the live node's
  outbound pipeline that emulates the spec's topology on real links:
  latency sampled from the :mod:`repro.simnet.topology` models (including
  the WAN :class:`~repro.simnet.topology.RegionMatrixLatency`),
  probabilistic loss, and per-link FIFO bandwidth queuing.  The simulated
  :class:`~repro.simnet.network.Network` applies the same three itself.

Everything is derived from ``(spec, seed)``, so a live chaos run is
reproducible in the same sense a simulated one is: the *schedule* is
identical on every run, while wall-clock jitter only perturbs where the
protocol happens to be when an event lands.
"""

from repro.chaos.driver import ChaosDriver
from repro.chaos.plan import ChaosPlan
from repro.chaos.shaping import LinkShaper

__all__ = ["ChaosDriver", "ChaosPlan", "LinkShaper"]
