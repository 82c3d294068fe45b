"""Shared spec-grid building blocks for the figure modules.

Every performance figure (3a, 3b, 3c, 4) is a declarative grid of
:class:`~repro.scenarios.spec.ScenarioSpec` cells over
:func:`repro.api.sweep`, and the ablation and baseline benches build
their cells the same way.  The cells share the paper's testbed
baseline: one rack behind a top-of-rack switch (normal latency, 0.5 ms
mean, 20 % jitter) and the protocol timers of
:class:`~repro.consensus.config.ConsensusConfig` (Δ = 2.5 ms, δ = 5 ms,
250 ms pacemaker), pinned so the derived-timer logic of WAN scenarios
does not kick in.  The workload seed is pinned to the
:class:`~repro.experiments.workloads.ClientWorkload` default (42), which
the golden figure tables were recorded with.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec

__all__ = ["TESTBED_TOPOLOGY", "testbed_base"]

#: The paper's single-rack testbed: sub-millisecond normal latency.
TESTBED_TOPOLOGY = TopologySpec(kind="normal", intra_delay=0.0005, jitter=0.2)


def testbed_base(
    name: str,
    duration: float,
    warmup: float,
    seed: int,
    batch_size: int = 100,
    view_timeout: float = 0.25,
) -> ScenarioSpec:
    """The base spec a figure grid derives its cells from."""
    return ScenarioSpec(
        name=name,
        duration=duration,
        warmup=warmup,
        seed=seed,
        batch_size=batch_size,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=view_timeout,
        topology=TESTBED_TOPOLOGY,
        workload=WorkloadSpec(seed=42),
    )
