"""One front door: the spec-driven ``repro.api`` facade.

Every way of running the reproduction — a single deployment, a
declarative adversarial/WAN scenario, a parameter sweep or a full paper
figure — goes through this module:

* :func:`run` — one :class:`~repro.scenarios.spec.ScenarioSpec` (or a
  preset name, spec file path or plain dict) → one
  :class:`~repro.results.RunResult` with a stable JSON schema.
* :func:`sweep` — a base spec plus a grid of overrides, fanned out over
  the shared worker-process pool; returns one ``RunResult`` per cell.
* :func:`figure` — any paper table/figure as a
  :class:`~repro.experiments.export.FigureArtifact`; ``quick=True``
  applies the same reduced-size profile the CLI uses.
* :func:`deploy` — the escape hatch: a fully wired, not-yet-started
  :class:`~repro.experiments.runner.Deployment` compiled from a spec,
  for callers that need the live simulator (drop rules, QC audits).

    >>> from repro import api
    >>> result = api.run("partition-heal", quick=True)
    >>> result.summary()["committed_blocks"] > 0
    True
    >>> runs = api.sweep("rack-baseline", {"aggregation": ["star", "iniva"]},
    ...                  quick=True)
    >>> len(runs)
    2

Fixed seeds make every entry point deterministic; ``RunResult.to_dict``
round-trips through JSON for archival and diffing.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.experiments.export import FigureArtifact
from repro.experiments.runner import parallel_map
from repro.results import RESULT_SCHEMA, RunResult
from repro.scenarios.engine import (
    build_scenario_deployment,
    compile_scenario,
    run_scenario,
)
from repro.scenarios.presets import PRESETS, load_preset, preset_names
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "FIGURES",
    "Figure",
    "QUICK_PROFILES",
    "RESULT_SCHEMA",
    "RunResult",
    "ScenarioSpec",
    "deploy",
    "expand_grid",
    "figure",
    "list_figures",
    "list_presets",
    "resolve_spec",
    "run",
    "sweep",
]

SpecLike = Union[ScenarioSpec, str, Path, Mapping[str, Any]]


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------
def resolve_spec(spec_or_preset: SpecLike) -> ScenarioSpec:
    """Turn any accepted description of a run into a :class:`ScenarioSpec`.

    Accepts a spec instance (returned as-is), a plain mapping
    (``ScenarioSpec.from_dict``), a path to a JSON spec file, or a
    string — preset names always win over same-named local files so a
    stray directory can't shadow the catalogue.
    """
    if isinstance(spec_or_preset, ScenarioSpec):
        return spec_or_preset
    if isinstance(spec_or_preset, Mapping):
        return ScenarioSpec.from_dict(spec_or_preset)
    if isinstance(spec_or_preset, Path):
        return ScenarioSpec.load(spec_or_preset)
    name = str(spec_or_preset)
    if name in PRESETS:
        return load_preset(name)
    if os.path.isfile(name):
        return ScenarioSpec.load(name)
    if name.lower().endswith(".json"):
        raise FileNotFoundError(f"scenario spec file not found: {name}")
    return load_preset(name)  # raises KeyError listing the catalogue


def list_presets() -> List[str]:
    """Names of the built-in scenario presets."""
    return preset_names()


# ---------------------------------------------------------------------------
# run / deploy
# ---------------------------------------------------------------------------
def run(
    spec_or_preset: SpecLike,
    *,
    quick: bool = False,
    seed: Optional[int] = None,
    runtime: str = "sim",
    overrides: Optional[Mapping[str, Any]] = None,
    **runtime_options: Any,
) -> RunResult:
    """Run one scenario end to end and return the unified result.

    Args:
        spec_or_preset: Spec instance, preset name, spec file path or dict.
        quick: Shrink the spec via :meth:`ScenarioSpec.quick` so the run
            finishes in seconds (the CI/CLI quick profile).
        seed: Optional seed override applied before running.
        overrides: Spec-field overrides applied before running, dotted
            paths allowed (``{"workload.rate": 800}``) — how the CLI's
            ``--rate``/``--clients``/``--arrival`` flags reach the spec.
        runtime: ``"sim"`` (deterministic discrete-event simulation, the
            default) or ``"live"`` (an asyncio cluster of real replica
            processes over localhost TCP, with the :mod:`repro.chaos`
            layer injecting the spec's partitions, loss, WAN latency,
            bandwidth limits, crash-restart churn and Byzantine cartels
            onto the real transport).  Both return the same
            :class:`RunResult` schema and run every built-in preset.
        **runtime_options: Live-runtime knobs forwarded to
            :func:`repro.runtime.live.run_live` — ``duration`` (wall
            seconds), ``target_blocks`` (stop early once a node commits
            this many) and ``procs`` (worker subprocess count).

    Returns:
        One :class:`RunResult`; ``to_json()`` emits the stable
        ``repro.run-result/2`` document for archival and diffing.
    """
    spec = resolve_spec(spec_or_preset)
    if seed is not None:
        spec = spec.with_(seed=seed)
    if overrides:
        spec = spec.with_(**_nest_dotted(overrides))
    if runtime == "live":
        from repro.runtime.live import run_live

        return run_live(spec, quick=quick, **runtime_options)
    if runtime != "sim":
        raise ValueError(f"unknown runtime {runtime!r} (expected 'sim' or 'live')")
    if runtime_options:
        unknown = ", ".join(sorted(runtime_options))
        raise TypeError(f"sim runtime does not accept options: {unknown}")
    return run_scenario(spec, quick=quick)


def deploy(spec_or_preset: SpecLike, *, quick: bool = False, runtime: str = "sim"):
    """Compile a spec into a fully wired, not-yet-started deployment.

    With ``runtime="sim"`` (default) the workload is attached and
    crash/partition/attack schedules are installed, but
    ``deployment.start()`` / ``simulator.run(...)`` are left to the
    caller — use this when you need the live simulator (e.g. custom drop
    rules or auditing QCs out of replica state).  With ``runtime="live"``
    you get a not-yet-started :class:`~repro.runtime.live.LiveCluster`
    whose ``run()`` brings up the asyncio TCP committee.
    """
    spec = resolve_spec(spec_or_preset)
    if quick:
        spec = spec.quick()
    return build_scenario_deployment(compile_scenario(spec), runtime=runtime)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def _nest_dotted(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Expand ``{"workload.rate": 5}`` into ``{"workload": {"rate": 5}}``."""
    nested: Dict[str, Any] = {}
    for key, value in overrides.items():
        if "." in key:
            head, _, rest = key.partition(".")
            bucket = nested.setdefault(head, {})
            if not isinstance(bucket, dict):
                raise ValueError(f"override {key!r} conflicts with {head!r}")
            bucket[rest] = value
        elif key in nested and isinstance(nested[key], dict) and isinstance(value, Mapping):
            nested[key].update(value)
        else:
            nested[key] = dict(value) if isinstance(value, Mapping) else value
    return nested


def expand_grid(grid: Union[None, Mapping[str, Sequence[Any]], Iterable[Mapping[str, Any]]]) -> List[Dict[str, Any]]:
    """Normalise a sweep grid into a list of override mappings.

    A mapping of ``field -> list of values`` expands to the cartesian
    product (fields may use dotted paths like ``"workload.rate"``); an
    iterable of mappings is taken cell-by-cell; ``None`` is one empty
    cell.  A bare scalar (including a string) counts as a single value,
    not a sequence — ``{"aggregation": "star"}`` is one cell, not four
    per-character ones.  Order is deterministic: the last field varies
    fastest.
    """
    if grid is None:
        return [{}]
    if isinstance(grid, Mapping):
        keys = list(grid)
        value_lists = [
            [value] if isinstance(value, (str, bytes)) or not _is_sequence(value) else list(value)
            for value in (grid[key] for key in keys)
        ]
        return [
            _nest_dotted(dict(zip(keys, combo)))
            for combo in itertools.product(*value_lists)
        ]
    return [_nest_dotted(cell) for cell in grid]


def _is_sequence(value: Any) -> bool:
    try:
        iter(value)
    except TypeError:
        return False
    return not isinstance(value, Mapping)


def sweep(
    base_spec: SpecLike,
    grid: Union[None, Mapping[str, Sequence[Any]], Iterable[Mapping[str, Any]]] = None,
    *,
    quick: bool = False,
    max_workers: Optional[int] = None,
) -> List[RunResult]:
    """Run one scenario per grid cell, in parallel where possible.

    Each cell's overrides are merged onto ``base_spec`` via
    :meth:`ScenarioSpec.with_` (nested specs accept partial dicts), the
    resulting specs fan out over the shared process pool, and the results
    come back in grid order.  ``REPRO_MAX_WORKERS`` (or ``max_workers``)
    bounds the parallelism; one worker reproduces the serial run exactly.

    Args:
        base_spec: Spec instance, preset name, spec file path or dict
            every cell starts from.
        grid: ``field -> values`` mapping (cartesian product, dotted
            paths allowed), an iterable of per-cell override mappings,
            or ``None`` for a single unmodified run.
        quick: Shrink every cell via :meth:`ScenarioSpec.quick`.
        max_workers: Cap on the worker-process pool (defaults to the
            ``REPRO_MAX_WORKERS`` environment variable).

    Returns:
        One :class:`RunResult` per grid cell, in grid order.
    """
    base = resolve_spec(base_spec)
    specs = [base.with_(**cell) if cell else base for cell in expand_grid(grid)]
    if quick:
        specs = [spec.quick() for spec in specs]
    return parallel_map(run_scenario, specs, max_workers=max_workers)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------
class Figure:
    """One reproducible paper table/figure and how to present it.

    Attributes:
        name: Catalogue key (``"fig3c"``, ``"table1"``, ...).
        title: Human-readable caption used by exports.
        runner: Callable producing the figure's rows (one dict per
            data point); resolved lazily to keep the import graph
            acyclic.
        series_key: Row field that splits the data into plot series,
            or ``None`` for tabular output.
        x, y: Row fields plotted on each axis, or ``None``.
    """

    def __init__(
        self,
        name: str,
        title: str,
        runner: Callable[..., List[Dict[str, object]]],
        series_key: Optional[str] = None,
        x: Optional[str] = None,
        y: Optional[str] = None,
    ) -> None:
        self.name = name
        self.title = title
        self.runner = runner
        self.series_key = series_key
        self.x = x
        self.y = y


def _run_table1(seed: int = 1, attacker_power: float = 0.1, gosig_trials: int = 800, **kwargs):
    from repro.analysis.model import table1

    rows = table1(
        attacker_power=attacker_power, gosig_trials=gosig_trials, seed=seed, **kwargs
    )
    return [row.as_dict() for row in rows]


def _figure_runner(module: str, func: str) -> Callable[..., List[Dict[str, object]]]:
    # Figure modules import repro.api for sweep(), so they are resolved
    # lazily here to keep the import graph acyclic.
    def call(**kwargs):
        import importlib

        return getattr(importlib.import_module(module), func)(**kwargs)

    return call


FIGURES: Dict[str, Figure] = {
    fig.name: fig
    for fig in (
        Figure("table1", "Table I: scheme comparison", _run_table1),
        Figure(
            "fig2a",
            "Figure 2a: 0-collateral omission probability",
            _figure_runner("repro.experiments.security", "figure_2a"),
            series_key="protocol",
            x="attacker_power",
            y="omission_probability",
        ),
        Figure(
            "fig2b",
            "Figure 2b: omission probability vs collateral",
            _figure_runner("repro.experiments.security", "figure_2b"),
            series_key="protocol",
            x="collateral",
            y="omission_probability",
        ),
        Figure(
            "fig2c",
            "Figure 2c: reward lost under collateral-0 attacks",
            _figure_runner("repro.experiments.security", "figure_2c"),
        ),
        Figure(
            "fig2d",
            "Figure 2d: reward lost with large collateral",
            _figure_runner("repro.experiments.security", "figure_2d"),
        ),
        Figure(
            "fig3a",
            "Figure 3a: throughput vs latency",
            _figure_runner("repro.experiments.throughput", "figure_3a"),
            series_key="scheme",
            x="throughput_ops",
            y="latency_ms",
        ),
        Figure(
            "fig3b",
            "Figure 3b: CPU usage",
            _figure_runner("repro.experiments.cpu", "figure_3b"),
        ),
        Figure(
            "fig3c",
            "Figure 3c: scalability",
            _figure_runner("repro.experiments.scalability", "figure_3c"),
            series_key="scheme",
            x="replicas",
            y="throughput_ops",
        ),
        Figure(
            "fig4",
            "Figure 4: resiliency under crash faults",
            _figure_runner("repro.experiments.resiliency", "figure_4"),
            series_key="variant",
            x="faulty_nodes",
            y="throughput_ops",
        ),
    )
}

#: The single quick-profile table: reduced trial counts / durations per
#: figure so every entry finishes in seconds.  ``figure(name, quick=True)``
#: and the CLI's ``--quick`` flag both read from here.
QUICK_PROFILES: Dict[str, Dict[str, Any]] = {
    "table1": {"gosig_trials": 100},
    "fig2a": {"attacker_powers": (0.05, 0.10, 0.15), "gosig_trials": 60, "iniva_trials": 800},
    "fig2b": {"collaterals": (0, 2, 4, 6, 8), "gosig_trials": 60, "iniva_trials": 600},
    "fig2c": {"attacker_powers": (0.1, 0.3), "trials": 80},
    "fig2d": {"trials": 80},
    "fig3a": {"committee_size": 9, "loads": (2_000, 6_000), "duration": 1.0, "warmup": 0.2},
    "fig3b": {
        "committee_size": 9,
        "payload_sizes": (64,),
        "saturation_load": 6_000,
        "duration": 1.0,
        "warmup": 0.2,
    },
    "fig3c": {
        "replica_counts": (9, 13),
        "payload_sizes": (64,),
        "load": 4_000,
        "duration": 1.0,
        "warmup": 0.2,
    },
    "fig4": {
        "committee_size": 9,
        "fault_counts": (0, 1, 2),
        "load": 2_000,
        "duration": 1.5,
        "warmup": 0.2,
        "view_timeout": 0.1,
    },
}


def list_figures() -> List[str]:
    """Names of the reproducible paper tables/figures."""
    return list(FIGURES)


def figure(
    name: str, *, quick: bool = False, seed: int = 1, **overrides: Any
) -> FigureArtifact:
    """Reproduce one paper table/figure and return its artifact.

    Args:
        name: Figure name (see :func:`list_figures`).
        quick: Apply the figure's :data:`QUICK_PROFILES` entry (reduced
            trials and durations) before ``overrides``.
        seed: Seed forwarded to the figure harness.
        overrides: Extra keyword arguments for the underlying
            ``figure_*`` function (grid sizes, trial counts, ...).

    Returns:
        A :class:`~repro.experiments.export.FigureArtifact` holding the
        rows plus presentation metadata; its ``write()`` exports
        CSV/JSON/Markdown/plot files.
    """
    try:
        entry = FIGURES[name]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {name!r} (known: {known})") from None
    kwargs: Dict[str, Any] = {}
    if quick:
        kwargs.update(QUICK_PROFILES.get(name, {}))
    kwargs.update(overrides)
    rows = entry.runner(seed=seed, **kwargs)
    return FigureArtifact(
        name=entry.name,
        title=entry.title,
        rows=list(rows),
        series_key=entry.series_key,
        x=entry.x,
        y=entry.y,
    )
