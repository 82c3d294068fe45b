"""Declarative scenario engine for adversarial and WAN campaigns.

One :class:`ScenarioSpec` composes committee size, topology and per-link
bandwidth, crash/partition schedules, a Byzantine strategy mix and the
client workload — and compiles into a configured, fully seeded
simulator run:

    >>> from repro.scenarios import load_preset, run_scenario
    >>> result = run_scenario(load_preset("partition-heal"), quick=True)
    >>> result.summary()["messages_blocked"] > 0
    True

Specs round-trip through dicts and JSON files, so campaigns
live in version control instead of copy-pasted Python; the built-in
catalogue (``python -m repro scenario --list``) covers WAN spreads,
partitions, crash storms, crash-restart, lossy links, bandwidth crunches,
open-loop clients and omission cartels.

The :mod:`repro.api` facade is the preferred entry point
(``repro.run``/``repro.sweep`` accept preset names, spec files and
dicts); ``run_scenario`` returns the unified
:class:`~repro.results.RunResult`.
"""

from repro.scenarios.engine import (
    CompiledScenario,
    build_latency_model,
    build_scenario_deployment,
    compile_scenario,
    run_scenario,
)
from repro.scenarios.presets import PRESETS, load_preset, preset_names
from repro.scenarios.spec import (
    AttackSpec,
    CommitteeSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "AttackSpec",
    "CommitteeSpec",
    "CompiledScenario",
    "FaultSpec",
    "PRESETS",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "build_latency_model",
    "build_scenario_deployment",
    "compile_scenario",
    "load_preset",
    "preset_names",
    "run_scenario",
]
