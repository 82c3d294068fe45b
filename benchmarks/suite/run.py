#!/usr/bin/env python3
"""The benchmark's one command.

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py suite --seed N [--sets K] [--quick] --out FILE
    python3 benchmarks/suite/run.py compare A.json B.json

The first form is one run of one workload in this process: it prints every
metric by name with its unit, checks the program's outputs, and ends with
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 0`` reports the end-to-end metrics with all tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  ``suite`` runs every workload, one fresh subprocess at a time,
into a document ``compare`` reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: What a fresh interpreter runs to time the program's imports.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; started = time.perf_counter(); "
    "import live_cells, sim_cells; print(time.perf_counter() - started)"
)


def _locate_program() -> None:
    """Put ``src/`` on the path — and in the environment, for the worker
    subprocesses ``procs2-n16`` spawns."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"run.py: the program's sources are missing ({SRC / 'repro'})")
    sys.path[:0] = [str(HERE), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def _import_program(fresh: int) -> List[float]:
    """Import the program; returns the seconds it took here and in
    ``fresh`` more interpreters.  Imports are the first part of every
    user's set-up, so ``setup_s`` includes their median."""
    started = time.perf_counter()
    import live_cells  # noqa: F401  (pulls in repro.runtime.live, codec, crypto)
    import sim_cells  # noqa: F401

    samples = [time.perf_counter() - started]
    for _ in range(fresh):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        samples.append(float(probe.stdout))
    return samples


def run_one(workload_name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """One run of one workload; returns the full run record."""
    from stats import spin_ms

    spin_before = spin_ms()
    import_samples = _import_program(fresh=0 if quick or trace else 2)
    import live_cells
    import sim_cells
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if workload.kind == "clients":
        outcome = (
            live_cells.trace_clients(workload, seed, seconds)
            if trace
            else live_cells.measure_clients(workload, seed, seconds, quick)
        )
    elif workload.kind == "sim":
        outcome = (
            sim_cells.trace_sim(workload, seed, seconds)
            if trace
            else sim_cells.measure_sim(workload, seed, seconds, quick)
        )
    elif trace:
        outcome = live_cells.trace_saturated(workload, seed, seconds)
    else:
        outcome = live_cells.measure_saturated(workload, seed, seconds, quick)
    spin_after = spin_ms()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if trace:
        import layers

        values = {name: 0.0 for name, _, _ in PER_LAYER}
        values.update(outcome["per_layer"])
        values.update(layers.proposal_microbench(_sample_block(workload), workload.scheme))
        values.update({
            "host.spin_ms_before": spin_before,
            "host.spin_ms_after": spin_after,
            "host.nproc": float(os.cpu_count() or 1),
        })
        catalogue: Sequence[Sequence[Any]] = PER_LAYER
    else:
        values = dict(outcome["end_to_end"])
        values["setup_s"] = statistics.median(import_samples) + statistics.median(outcome["setup_samples"])
        # ru_maxrss is per process: this one, plus the largest worker once
        # for each worker the workload spawns.
        values["peak_rss_mb"] = (own + (workers * workload.procs if workload.procs > 1 else 0)) / 1024.0
        catalogue = END_TO_END
    checks = [{"name": name, "ok": bool(ok), "detail": why} for name, ok, why in outcome["checks"]]
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "comparable": not quick,
        "correct": all(c["ok"] for c in checks),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {row[0]: {"value": values[row[0]], "unit": row[1]} for row in catalogue},
        "checks": checks,
        "host": {"spin_ms": [spin_before, spin_after], "nproc": os.cpu_count()},
        "setup": {"import_s": import_samples, "bring_up_s": outcome.get("setup_samples", [])},
        "detail": outcome["detail"],
    }


def _sample_block(workload: Any) -> Any:
    """A real committed block of the workload's shape (committee size,
    signature scheme), from a few views of a throwaway simulation."""
    from repro import api
    from workloads import BATCH_SIZE, sim_spec

    spec = sim_spec(workload, 1, 0.0).with_(
        duration=0.15, warmup=0.0, batch_size=BATCH_SIZE if workload.kind != "sim" else 100,
        faults={"crashes": 0}, workload={"rate": 4000.0, "preload": True},
    )
    deployment = api.deploy(spec)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    replica = deployment.replicas[0]
    return replica.blocks[deployment.mempool.committed_order[-1]]


def print_record(record: Dict[str, Any]) -> None:
    """Human-readable lines, then the one JSON result line the driver reads."""
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}" + ("" if record["comparable"] else "  [quick: not comparable]"))
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for check in record["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}" + ("" if check["ok"] else f" — {check['detail']}"))
    spins = record["host"]["spin_ms"]
    print(f"host.spin_ms before={spins[0]:.1f} after={spins[1]:.1f} nproc={record['host']['nproc']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# suite: every workload, each run in its own fresh subprocess
# ---------------------------------------------------------------------------
def run_suite(seed: int, sets: int, seconds: float, quick: bool, out: Path) -> int:
    from metrics import END_TO_END
    from stats import flag_noisy
    from workloads import WORKLOADS

    runs: List[Dict[str, Any]] = []
    scratch = out.with_suffix(".run.json")
    failed = False
    for repeat in range(sets):
        for name in WORKLOADS:
            for trace in (0, 1) if repeat == 0 else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed + repeat), "--seconds", str(seconds),
                    "--trace", str(trace), "--record", str(scratch),
                ] + (["--quick"] if quick else [])
                print(f"== {name} seed={seed + repeat} trace={trace}", flush=True)
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0 or not scratch.exists():
                    print(done.stdout)
                    print(f"!! {name} exited with {done.returncode}")
                    failed = True
                if scratch.exists():
                    record = json.loads(scratch.read_text())
                    scratch.unlink()
                    runs.append(record)
                    failed = failed or not record["correct"]
                    if trace == 0:
                        for metric, row in record["metrics"].items():
                            print(f"   {metric:28s} {row['value']:>14.6g} {row['unit']}")
    sentinels = [spin for record in runs for spin in record["host"]["spin_ms"]]
    noisy = flag_noisy(sentinels) if sentinels else []
    for index, record in enumerate(runs):
        record["host"]["noisy"] = noisy[2 * index] or noisy[2 * index + 1]
    document = {
        "schema": "repro.benchmark-suite/1",
        "comparable": not quick,
        "seconds": seconds,
        "bounds": {name: bound for name, _, _, bound in END_TO_END},
        "host": {"nproc": os.cpu_count(), "spin_ms": sentinels, "best_spin_ms": min(sentinels, default=0.0)},
        "runs": runs,
    }
    out.write_text(json.dumps(document, indent=1))
    flagged = sum(1 for record in runs if record["host"].get("noisy"))
    print(f"wrote {out}: {len(runs)} runs, {flagged} measured during a slow phase of the host")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    _locate_program()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    if argv and argv[0] == "suite":
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--sets", type=int, default=1, help="untraced runs per workload (seeds seed..seed+sets-1)")
        parser.add_argument("--seconds", type=float, default=None)
        parser.add_argument("--quick", action="store_true", help="tiny sizes, marked not comparable")
        parser.add_argument("--out", type=Path, required=True)
        args = parser.parse_args(argv[1:])
        seconds = args.seconds if args.seconds is not None else (1.0 if args.quick else _run_seconds())
        return run_suite(args.seed, args.sets, seconds, args.quick, args.out)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="one bring-up cycle, marked not comparable")
    parser.add_argument("--record", type=Path, help="also write the full run record here")
    args = parser.parse_args(argv)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    if args.record:
        args.record.write_text(json.dumps(record))
    print_record(record)
    return 0 if record["correct"] else 1


def _run_seconds() -> float:
    return float(json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
