"""Reproduction of "Iniva: Inclusive and Incentive-Compatible Vote Aggregation".

The front door is the :mod:`repro.api` facade — one spec-driven entry
point for everything the repository can run::

    from repro import ScenarioSpec, run, sweep

    result = run("partition-heal", quick=True)     # preset, file or spec
    print(result.summary())                        # unified RunResult
    print(result.to_json())                        # stable JSON schema

    runs = sweep("rack-baseline",                  # grid fan-out over
                 {"aggregation": ["star", "iniva"],  # worker processes
                  "faults.crashes": [0, 2, 4]})

``repro.api.figure("fig3c", quick=True)`` reproduces any paper
table/figure, and ``python -m repro`` exposes the same surface on the
command line.

Subpackages
-----------
``repro.api`` / ``repro.results``
    The facade (``run``/``sweep``/``figure``/``deploy``) and the result
    types: one run's :class:`ExperimentResult` metrics inside the
    unified :class:`RunResult` with its versioned JSON schema.
``repro.scenarios``
    Declarative :class:`ScenarioSpec` (committee, topology, faults,
    attack, workload) plus the compiler/engine and the
    built-in preset catalogue.
``repro.core``
    The paper's contribution: the Iniva aggregation protocol, its reward
    scheme, the QC/reward audit path and the Rebop reputation election.
``repro.crypto``
    Indivisible multi-signature substrate (pure-Python BLS and a fast
    hash-based simulation backend).
``repro.tree``
    Deterministic shuffling and two-level aggregation trees.
``repro.simnet``
    Discrete-event network simulator (processes, timers, latency models
    and topologies, fault injection, metrics, message tracing).
``repro.consensus``
    Chained HotStuff with Leader-Speak-Once rotation, pluggable vote
    aggregation and round-robin / Carousel / Rebop leader election.
``repro.aggregation``
    Baseline aggregation schemes: star (HotStuff), plain tree
    (Iniva-No2C), Kauri, Gosig and Handel.
``repro.analysis``
    The paper's analysis, each formula stated once in
    :mod:`repro.analysis.model` (Table I, Theorem 4, Section VI's
    incentive analysis, the 7Δ bound), and protocol property checkers.
``repro.attacks``
    The Monte-Carlo that cross-checks the model: targeted vote-omission
    and reward-loss simulators and the Gosig simulation.
``repro.experiments`` / ``repro.cli``
    The simulator deployment builder, the per-figure spec grids and the
    ``python -m repro`` command-line interface.
"""

from typing import TYPE_CHECKING

__version__ = "1.1.0"

# The curated public surface.  Imports resolve lazily (PEP 562) so that
# ``import repro`` stays cheap and the submodules' absolute imports never
# re-enter a partially initialised package.
_EXPORTS = {
    "RunResult": "repro.results",
    "ScenarioSpec": "repro.scenarios.spec",
    "deploy": "repro.api",
    "figure": "repro.api",
    "list_figures": "repro.api",
    "list_presets": "repro.api",
    "load_preset": "repro.scenarios.presets",
    "run": "repro.api",
    "sweep": "repro.api",
}

__all__ = ["__version__", *sorted(_EXPORTS)]

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.api import (  # noqa: F401
        deploy,
        figure,
        list_figures,
        list_presets,
        run,
        sweep,
    )
    from repro.results import RunResult  # noqa: F401
    from repro.scenarios.presets import load_preset  # noqa: F401
    from repro.scenarios.spec import ScenarioSpec  # noqa: F401


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
