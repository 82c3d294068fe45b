"""Command-line interface for regenerating the paper's tables and figures.

``python -m repro`` is a thin shell over the :mod:`repro.api` facade: it
exposes every experiment in the repository so a user can reproduce a
figure, run a one-off deployment or export the underlying data without
writing any code::

    python -m repro list
    python -m repro table1 --quick
    python -m repro fig2a --quick --format markdown
    python -m repro fig4 --quick --output-dir results/
    python -m repro run --scheme iniva --replicas 21 --faults 2 --duration 3
    python -m repro scenario --list
    python -m repro scenario partition-heal --quick
    python -m repro scenario my_campaign.json --output-dir results/
    python -m repro live rack-baseline --quick
    python -m repro live my_campaign.json --duration 5 --procs 4
    python -m repro trace omission-cartel --quick
    python -m repro trace rack-baseline --runtime live --output-dir traces/
    python -m repro sweep rack-baseline --set aggregation=star,iniva --quick

``--quick`` applies the shared quick-profile table (reduced trial counts
and durations) so every command finishes in seconds; dropping it uses the
defaults the benchmarks use (minutes).  Use ``--output-dir`` to also
write CSV/JSON/Markdown artifacts.  ``--format json`` always emits a
versioned schema document: the full
:class:`~repro.results.RunResult` document (config echo, seed, the run's
metrics, per-replica transport counters) for ``run``/``scenario``/
``live``, a run-result *list* document for ``sweep``, and the
``repro.figure/1`` document for the figure commands.  ``scenario`` and
``live`` accept either a built-in preset name (see ``scenario --list``)
or a path to a JSON spec file (see :mod:`repro.scenarios`);
``live`` executes the spec on the asyncio localhost-TCP cluster instead
of the simulator — including the adversarial and WAN presets, whose
partitions, loss, latency/bandwidth shaping, crash-restart churn and
Byzantine omission cartels are injected by :mod:`repro.chaos` (task
mode; ``--procs`` clusters run clean or shaped links only).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import api
from repro.consensus.config import ConsensusConfig
from repro.experiments.export import FigureArtifact
from repro.results import RESULT_LIST_SCHEMA, RunResult
from repro.scenarios.spec import (
    CommitteeSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: The figure catalogue (name → how to run/plot it) — shared with the API.
EXPERIMENTS = api.FIGURES


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the Iniva paper (DSN 2024).",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list all reproducible tables and figures")

    for experiment in EXPERIMENTS.values():
        sub = subparsers.add_parser(experiment.name, help=experiment.title)
        _add_common_options(sub)
        if experiment.name == "table1":
            sub.add_argument(
                "--attacker-power", type=float, default=0.1, dest="attacker_power",
                help="attacker power m (default 0.1)",
            )

    run_parser = subparsers.add_parser("run", help="run a single simulated deployment")
    _add_common_options(run_parser)
    run_parser.add_argument(
        "--scheme", default="iniva", choices=sorted(ConsensusConfig.SUPPORTED_AGGREGATIONS)
    )
    run_parser.add_argument("--replicas", type=int, default=21)
    run_parser.add_argument("--batch", type=int, default=100)
    run_parser.add_argument("--payload", type=int, default=64)
    run_parser.add_argument("--load", type=float, default=6_000.0, help="offered load in ops/sec")
    run_parser.add_argument(
        "--rate", type=float, default=None,
        help="offered load in ops/sec (synonym for --load; wins when both given)",
    )
    run_parser.add_argument(
        "--clients", type=int, default=None,
        help="logical client population the requests are attributed to",
    )
    run_parser.add_argument(
        "--arrival", default=None, choices=["poisson", "uniform", "bursty", "diurnal"],
        help="request arrival model (default poisson)",
    )
    run_parser.add_argument("--duration", type=float, default=3.0, help="simulated seconds")
    run_parser.add_argument("--faults", type=int, default=0, help="number of crashed replicas")
    run_parser.add_argument(
        "--leader-policy", default="round-robin", choices=["round-robin", "carousel", "rebop"]
    )
    run_parser.add_argument(
        "--second-chance-timeout", type=float, default=0.005, help="the δ timer in seconds"
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="run a declarative scenario (preset name or spec file)"
    )
    scenario_parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="built-in preset name or path to a .json scenario spec",
    )
    scenario_parser.add_argument(
        "--list", action="store_true", dest="list_presets", help="list the built-in presets"
    )
    scenario_parser.add_argument("--quick", action="store_true", help="reduced duration/committee")
    scenario_parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    scenario_parser.add_argument(
        "--format",
        choices=["table", "csv", "json", "markdown", "plot"],
        default="table",
        help="how to print the result on stdout (json = RunResult schema)",
    )
    scenario_parser.add_argument(
        "--output-dir",
        default=None,
        help="also write CSV/JSON/Markdown/plot artifacts into this directory",
    )

    live_parser = subparsers.add_parser(
        "live",
        help="run a scenario on the live asyncio runtime (localhost TCP cluster "
        "with chaos fault injection for adversarial/WAN specs)",
    )
    live_parser.add_argument(
        "spec", help="built-in preset name or path to a .json scenario spec"
    )
    live_parser.add_argument(
        "--quick", action="store_true",
        help="shrink the spec and stop after a handful of committed blocks",
    )
    live_parser.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    live_parser.add_argument(
        "--duration", type=float, default=None,
        help="wall-clock seconds to serve traffic (default: the spec's duration)",
    )
    live_parser.add_argument(
        "--target-blocks", type=int, default=None, dest="target_blocks",
        help="stop early once a replica has committed this many blocks",
    )
    live_parser.add_argument(
        "--procs", type=int, default=1,
        help="spread the replicas over this many worker subprocesses (default: tasks in one process)",
    )
    live_parser.add_argument(
        "--rate", type=float, default=None,
        help="override the spec's open-loop client request rate (ops/sec)",
    )
    live_parser.add_argument(
        "--clients", type=int, default=None,
        help="override the spec's logical client population",
    )
    live_parser.add_argument(
        "--arrival", default=None, choices=["poisson", "uniform", "bursty", "diurnal"],
        help="override the spec's arrival model",
    )
    live_parser.add_argument(
        "--format",
        choices=["table", "csv", "json", "markdown", "plot"],
        default="table",
        help="how to print the result on stdout (json = RunResult schema)",
    )
    live_parser.add_argument(
        "--output-dir",
        default=None,
        help="also write CSV/JSON/Markdown/plot artifacts into this directory",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="run a scenario with consensus tracing on and print the forensic "
        "report (see repro.observe; --output-dir also writes the JSONL trace "
        "and a Perfetto-loadable Chrome trace)",
    )
    trace_parser.add_argument(
        "spec", help="built-in preset name or path to a .json scenario spec"
    )
    trace_parser.add_argument(
        "--runtime", choices=["sim", "live"], default="sim",
        help="which substrate executes the traced run (default sim)",
    )
    trace_parser.add_argument(
        "--quick", action="store_true", help="reduced duration/committee"
    )
    trace_parser.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    trace_parser.add_argument(
        "--sample-rate", type=float, default=1.0, dest="sample_rate",
        help="fraction of views whose hot-path share events are traced "
        "(milestone events are always recorded; default 1.0)",
    )
    trace_parser.add_argument(
        "--capacity", type=int, default=None,
        help="per-tracer event ring capacity (default: the spec's observe.capacity)",
    )
    trace_parser.add_argument(
        "--duration", type=float, default=None,
        help="live runtime only: wall-clock seconds to serve traffic",
    )
    trace_parser.add_argument(
        "--target-blocks", type=int, default=None, dest="target_blocks",
        help="live runtime only: stop early after this many committed blocks",
    )
    trace_parser.add_argument(
        "--procs", type=int, default=1,
        help="live runtime only: spread replicas over worker subprocesses",
    )
    trace_parser.add_argument(
        "--output-dir",
        default=None,
        help="write trace.jsonl, trace_chrome.json and report.md into this directory",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run one scenario per grid cell (cartesian --set product)"
    )
    sweep_parser.add_argument(
        "spec", help="base spec: built-in preset name or path to a .json file"
    )
    sweep_parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="grid",
        metavar="FIELD=V1,V2,...",
        help="sweep a (possibly dotted) spec field over comma-separated values; "
        "repeatable — cells are the cartesian product",
    )
    sweep_parser.add_argument("--quick", action="store_true", help="reduced duration/committee")
    sweep_parser.add_argument(
        "--format",
        choices=["table", "csv", "json", "markdown", "plot"],
        default="table",
        help="how to print the results (json = versioned run-result list document)",
    )
    sweep_parser.add_argument(
        "--output-dir",
        default=None,
        help="also write CSV/JSON/Markdown artifacts into this directory",
    )
    return parser


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true", help="reduced trials/durations")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--format",
        choices=["table", "csv", "json", "markdown", "plot"],
        default="table",
        help="how to print the result on stdout",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write CSV/JSON/Markdown/plot artifacts into this directory",
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _render(artifact: FigureArtifact, fmt: str) -> str:
    from repro.experiments.report import rows_to_csv

    if fmt == "csv":
        return rows_to_csv(artifact.rows)
    if fmt == "json":
        # The versioned figure document (schema + metadata + rows) — the
        # figure analogue of the RunResult document run/scenario/live emit.
        return json.dumps(artifact.to_document(), indent=2)
    if fmt == "markdown":
        return artifact.to_markdown()
    if fmt == "plot":
        return artifact.to_plot()
    return artifact.to_table()


def _command_list() -> str:
    lines = ["Reproducible experiments:", ""]
    for experiment in EXPERIMENTS.values():
        lines.append(f"  {experiment.name:<8} {experiment.title}")
    lines.append("")
    lines.append("  run      a single simulated deployment (see `repro run --help`)")
    lines.append("  scenario a declarative campaign (see `repro scenario --list`)")
    lines.append("  live     a scenario on the asyncio TCP cluster (see `repro live --help`)")
    lines.append("  trace    a traced run + forensic report (see `repro trace --help`)")
    lines.append("  sweep    one scenario per --set grid cell (see `repro sweep --help`)")
    return "\n".join(lines)


def _command_scenario_list() -> str:
    from repro.scenarios import PRESETS

    lines = ["Built-in scenario presets:", ""]
    for name in sorted(PRESETS):
        lines.append(f"  {name:<18} {PRESETS[name].get('description', '')}")
    lines.append("")
    lines.append("Run one with `python -m repro scenario <name> [--quick]` (simulated)")
    lines.append("or `python -m repro live <name> [--quick]` (asyncio TCP cluster), or")
    lines.append("pass a path to a JSON spec file (format: repro.scenarios.ScenarioSpec).")
    return "\n".join(lines)


def _command_scenario(args: argparse.Namespace) -> RunResult:
    return api.run(args.spec, quick=args.quick, seed=args.seed)


def _workload_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """Dotted spec overrides for the shared --rate/--clients/--arrival flags."""
    overrides: Dict[str, Any] = {}
    if getattr(args, "rate", None) is not None:
        overrides["workload.rate"] = args.rate
    if getattr(args, "clients", None) is not None:
        overrides["workload.num_clients"] = args.clients
    if getattr(args, "arrival", None) is not None:
        overrides["workload.arrival"] = args.arrival
    return overrides


def _command_live(args: argparse.Namespace) -> RunResult:
    return api.run(
        args.spec,
        quick=args.quick,
        seed=args.seed,
        runtime="live",
        overrides=_workload_overrides(args) or None,
        duration=args.duration,
        target_blocks=args.target_blocks,
        procs=args.procs,
    )


def _command_trace(args: argparse.Namespace) -> int:
    """Run a spec with tracing on, validate the trace, print the report."""
    from repro.observe import (
        critical_path,
        forensic_report,
        to_chrome_trace,
        to_jsonl,
        trace_document,
        validate_trace,
    )

    overrides: Dict[str, Any] = {
        "observe.enabled": True,
        "observe.sample_rate": args.sample_rate,
    }
    if args.capacity is not None:
        overrides["observe.capacity"] = args.capacity
    kwargs: Dict[str, Any] = {}
    if args.runtime == "live":
        kwargs.update(
            duration=args.duration,
            target_blocks=args.target_blocks,
            procs=args.procs,
        )
    result = api.run(
        args.spec,
        quick=args.quick,
        seed=args.seed,
        runtime=args.runtime,
        overrides=overrides,
        **kwargs,
    )
    observability = result.observability
    if not observability.get("enabled"):
        print("error: the run produced no trace", file=sys.stderr)
        return 1
    document = trace_document(
        observability["trace"],
        spec_name=result.spec.name,
        seed=result.seed,
        runtime=args.runtime,
    )
    problems = validate_trace(document)
    if problems:
        print("error: trace failed schema validation:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    paths = critical_path(document["events"])
    report = forensic_report(document, paths=paths)
    print(report)
    if args.output_dir:
        import os

        os.makedirs(args.output_dir, exist_ok=True)
        written = {
            "trace (JSONL)": os.path.join(args.output_dir, "trace.jsonl"),
            "trace (Chrome)": os.path.join(args.output_dir, "trace_chrome.json"),
            "report": os.path.join(args.output_dir, "report.md"),
        }
        with open(written["trace (JSONL)"], "w", encoding="utf-8") as stream:
            stream.write(to_jsonl(document))
        with open(written["trace (Chrome)"], "w", encoding="utf-8") as stream:
            json.dump(to_chrome_trace(document, critical_paths=paths), stream)
        with open(written["report"], "w", encoding="utf-8") as stream:
            stream.write(report)
        print("\nwrote artifacts:")
        for kind, path in sorted(written.items()):
            print(f"  {kind}: {path}")
    return 0


def _parse_sweep_grid(assignments: List[str]) -> Dict[str, List[Any]]:
    """Turn repeated ``--set field=v1,v2`` options into an api.sweep grid."""
    grid: Dict[str, List[Any]] = {}
    for assignment in assignments:
        field, separator, values = assignment.partition("=")
        field = field.strip()
        if not separator or not field or not values.strip():
            raise SystemExit(f"error: --set expects FIELD=V1[,V2,...], got {assignment!r}")
        grid[field] = [_sweep_value(value) for value in values.split(",")]
    return grid


def _sweep_value(text: str) -> Any:
    """One ``--set`` value: int, float, ``true``/``false``, ``null``, or
    else the bare string."""
    text = text.strip()
    keywords = {"true": True, "false": False, "null": None}
    if text in keywords:
        return keywords[text]
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _sweep_artifact(
    args: argparse.Namespace, cells: List[Dict[str, Any]], results: List[RunResult]
) -> FigureArtifact:
    rows: List[Dict[str, object]] = []
    for cell_overrides, result in zip(cells, results):
        label = " ".join(
            f"{field}={value}" for field, value in _flatten_cell(cell_overrides)
        )
        for row in result.rows():
            row = dict(row)
            row["cell"] = label or "(base)"
            rows.append(row)
    return FigureArtifact(
        name=f"sweep-{results[0].spec.name}" if results else "sweep",
        title=f"Sweep over {args.spec} ({len(results)} cells)",
        rows=rows,
    )


def _flatten_cell(cell: Dict[str, Any], prefix: str = "") -> List[tuple]:
    pairs: List[tuple] = []
    for key, value in cell.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            pairs.extend(_flatten_cell(value, prefix=f"{dotted}."))
        else:
            pairs.append((dotted, value))
    return pairs


def _command_run(args: argparse.Namespace) -> RunResult:
    duration = min(args.duration, 1.5) if args.quick else args.duration
    rate = args.rate if args.rate is not None else args.load
    workload = WorkloadSpec(
        rate=rate,
        payload_size=args.payload,
        seed=args.seed,
        num_clients=args.clients if args.clients is not None else 4,
        arrival=args.arrival if args.arrival is not None else "poisson",
    )
    spec = ScenarioSpec(
        name="run",
        aggregation=args.scheme,
        batch_size=args.batch,
        leader_policy=args.leader_policy,
        duration=duration,
        warmup=min(0.2, duration / 5),
        seed=args.seed,
        delta=0.0025,
        second_chance_timeout=args.second_chance_timeout,
        view_timeout=0.1 if args.quick else 0.25,
        committee=CommitteeSpec(size=args.replicas),
        topology=TopologySpec(kind="normal", intra_delay=0.0005, jitter=0.2),
        workload=workload,
        faults=FaultSpec(crashes=args.faults, crash_seed=args.seed, protect_leader=False),
    )
    return api.run(spec)


def _run_artifact(args: argparse.Namespace, result: RunResult) -> FigureArtifact:
    metrics = result.metrics
    row: Dict[str, object] = {
        "configuration": f"{args.scheme} n={args.replicas} faults={args.faults}"
    }
    row.update(metrics.row())
    row["committed_blocks"] = metrics.committed_blocks
    return FigureArtifact(name="run", title="Single deployment run", rows=[row])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "list":
        print(_command_list())
        return 0

    result: Optional[RunResult] = None
    if args.command == "scenario":
        if args.list_presets:
            print(_command_scenario_list())
            return 0
        if args.spec is None:
            print(_command_scenario_list())
            print("\nerror: give a preset name or spec file (or --list)")
            return 2
        result = _command_scenario(args)
        artifact = result.artifact()
    elif args.command == "live":
        result = _command_live(args)
        artifact = result.artifact()
    elif args.command == "trace":
        return _command_trace(args)
    elif args.command == "sweep":
        grid = _parse_sweep_grid(args.grid)
        cells = api.expand_grid(grid or None)
        results = api.sweep(args.spec, grid or None, quick=args.quick)
        sweep_artifact = None
        if args.format != "json" or args.output_dir:
            sweep_artifact = _sweep_artifact(args, cells, results)
        if args.format == "json":
            document = {
                "schema": RESULT_LIST_SCHEMA,
                "runs": [run.to_dict() for run in results],
            }
            print(json.dumps(document, indent=2))
        else:
            print(_render(sweep_artifact, args.format))
        if args.output_dir:
            _write_artifacts(sweep_artifact, args.output_dir)
        return 0
    elif args.command == "run":
        result = _command_run(args)
        artifact = _run_artifact(args, result)
    else:
        extra = {}
        if args.command == "table1":
            extra["attacker_power"] = args.attacker_power
        artifact = api.figure(args.command, quick=args.quick, seed=args.seed, **extra)

    if result is not None and args.format == "json":
        # A single run serialises as the full RunResult schema document.
        print(result.to_json())
    else:
        print(_render(artifact, args.format))
    if args.output_dir:
        _write_artifacts(artifact, args.output_dir)
    return 0


def _write_artifacts(artifact: FigureArtifact, output_dir: str) -> None:
    paths = artifact.write(output_dir)
    print("\nwrote artifacts:")
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
