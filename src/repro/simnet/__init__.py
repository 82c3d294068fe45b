"""Discrete-event network simulation substrate.

The paper evaluates Iniva on a 25-machine cluster.  This package provides
the simulation substitute: a deterministic, seeded discrete-event
simulator with

* an event queue and virtual clock (:mod:`repro.simnet.events`),
* message-passing processes with timers and a single-core CPU model
  (:mod:`repro.simnet.process`),
* a network with configurable latency distributions, bandwidth cost,
  message loss and drop rules (:mod:`repro.simnet.network`,
  :mod:`repro.simnet.latency`, :mod:`repro.simnet.topology`),
* the timed partition description (:mod:`repro.simnet.failures`); the
  faults themselves are scheduled by :mod:`repro.chaos`, the executor
  the live runtime uses too, and
* metric collection (throughput, latency percentiles, CPU utilisation,
  message/byte counters, :mod:`repro.simnet.metrics`).

Per-message tracing is :mod:`repro.observe`'s job, on both runtimes.
"""

from repro.simnet.events import EventHandle, EventQueue, Simulator
from repro.simnet.latency import (
    ConstantLatency,
    LatencyModel,
    LinkBandwidth,
    NormalLatency,
)
from repro.simnet.metrics import MetricsCollector
from repro.simnet.network import Network
from repro.simnet.process import CpuCostModel, Process, Timer
from repro.simnet.failures import PartitionEvent
from repro.simnet.topology import MatrixLatency, RackTopologyLatency, RegionMatrixLatency

__all__ = [
    "ConstantLatency",
    "CpuCostModel",
    "EventHandle",
    "EventQueue",
    "LatencyModel",
    "LinkBandwidth",
    "MatrixLatency",
    "MetricsCollector",
    "Network",
    "NormalLatency",
    "PartitionEvent",
    "Process",
    "RackTopologyLatency",
    "RegionMatrixLatency",
    "Simulator",
    "Timer",
]
