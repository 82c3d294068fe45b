#!/usr/bin/env python3
"""Which ``src/repro`` functions no real entry point enters.

Runs every real entry point of the program, each in a fresh subprocess
with ``REPRO_MAX_WORKERS=1`` (so sweeps stay in the traced process) under
a ``sys.setprofile`` / ``threading.setprofile`` call hook, and records
which functions of ``src/repro`` were entered.  The real entry points are:

* the built-in scenario presets on the simulator, untraced
  (``repro scenario P --quick``) and traced (``repro trace P --quick``);
* the same presets on the live runtime in task mode, untraced and traced,
  and untraced with ``--procs 2``;
* every figure and table command with ``--quick``;
* the benchmark suite's workloads, ``--trace 0`` and ``--trace 1``.

The examples also run, each with ``--quick``, but do not count as real:
a function only an example enters is flagged ``[examples only]``.  Tests
are not run at all.

Blind spot: ``--procs`` worker subprocesses (``python -m
repro.runtime.live_worker``) are not traced, so code that only runs
inside a worker — the worker loop in ``runtime/live_worker.py`` and the
cross-worker sessions in ``resilience/session.py`` — reads as unreached
here even though ``--procs`` runs it.

    python tools/reachability.py

Prints, per file, each function no real entry entered, with its line
count.  The last line is one JSON object (totals, the entries that
exited non-zero, and the unreached functions).  This is a report, not a
gate: the exit status is 0 whatever it finds.  A full pass takes a few
minutes.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Seconds one entry may run before it is killed (its calls are then lost).
ENTRY_TIMEOUT = 600

# A function is keyed by (path relative to src/, first line), where the
# first line is that of its first decorator, as in ``co_firstlineno``.
FunctionKey = Tuple[str, int]


def _entries() -> List[Tuple[str, bool, List[str]]]:
    """``(label, real, argv)`` for every run; ``argv`` follows ``python``."""
    sys.path.insert(0, str(SRC))
    from repro.cli import EXPERIMENTS
    from repro.scenarios.presets import preset_names

    sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
    from workloads import WORKLOADS

    runs: List[Tuple[str, bool, List[str]]] = []
    for preset in preset_names():
        runs += [
            (f"scenario {preset}", True, ["-m", "repro", "scenario", preset, "--quick"]),
            (f"trace {preset}", True, ["-m", "repro", "trace", preset, "--quick"]),
            (f"live {preset}", True, ["-m", "repro", "live", preset, "--quick"]),
            (
                f"trace --runtime live {preset}",
                True,
                ["-m", "repro", "trace", preset, "--runtime", "live", "--quick"],
            ),
            (
                f"live --procs 2 {preset}",
                True,
                ["-m", "repro", "live", preset, "--quick", "--procs", "2"],
            ),
        ]
    for figure in EXPERIMENTS:
        runs.append((f"{figure} --quick", True, ["-m", "repro", figure, "--quick"]))
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            runs.append(
                (
                    f"suite {workload} --trace {trace}",
                    True,
                    [
                        "benchmarks/suite/run.py", "--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", trace, "--quick",
                    ],
                )
            )
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"example {example.name}", False, [str(example), "--quick"]))
    return runs


def _child(out: str, argv: List[str]) -> None:
    """Run ``argv`` (``-m module ...`` or ``script ...``) under the hook."""
    import runpy
    import threading

    entered: Dict[int, object] = {}

    def hook(frame, event, arg, entered=entered):  # noqa: ARG001
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    status = 0
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1]] + argv[2:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        hits = sorted(
            {
                (os.path.relpath(code.co_filename, SRC), code.co_firstlineno)
                for code in entered.values()
                if code.co_filename.startswith(prefix)
            }
        )
        Path(out).write_text(json.dumps(hits))
    sys.exit(status)


def _functions() -> Dict[FunctionKey, Tuple[str, int]]:
    """Every function and method under ``src/repro``: key -> (qualname, lines)."""
    found: Dict[FunctionKey, Tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node: ast.AST, scope: List[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = ".".join(scope + [child.name])
                    found[(rel, first)] = (qualname, child.end_lineno - child.lineno + 1)
                    visit(child, scope + [child.name, "<locals>"])
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)

        visit(tree, [])
    return found


def _run_entries() -> Tuple[Set[FunctionKey], Set[FunctionKey], List[Dict[str, object]]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_MAX_WORKERS"] = "1"
    real: Set[FunctionKey] = set()
    examples: Set[FunctionKey] = set()
    failed: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        out = os.path.join(scratch, "hits.json")
        for label, is_real, argv in _entries():
            started = time.perf_counter()
            command = [sys.executable, str(Path(__file__).resolve()), "--child", out, *argv]
            try:
                status = subprocess.run(
                    command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, timeout=ENTRY_TIMEOUT,
                ).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            hits: Set[FunctionKey] = set()
            if os.path.exists(out):
                hits = {tuple(hit) for hit in json.loads(Path(out).read_text())}
                os.remove(out)
            (real if is_real else examples).update(hits)
            seconds = time.perf_counter() - started
            print(f"# {label}: exit {status}, {len(hits)} functions, {seconds:.1f} s", flush=True)
            if status != 0:
                failed.append({"entry": label, "exit": status})
    return real, examples, failed


def main() -> int:
    functions = _functions()
    real, examples, failed = _run_entries()
    unreached = {key: value for key, value in functions.items() if key not in real}
    print()
    print("src/repro functions no real entry enters (blind spot: --procs workers):")
    by_file: Dict[str, List[FunctionKey]] = {}
    for key in sorted(unreached):
        by_file.setdefault(key[0], []).append(key)
    report = []
    for rel, keys in by_file.items():
        lines = sum(unreached[key][1] for key in keys)
        print(f"{rel}: {len(keys)} function(s), {lines} lines")
        for key in keys:
            qualname, length = unreached[key]
            flag = "  [examples only]" if key in examples else ""
            print(f"    {qualname} (line {key[1]}, {length} lines){flag}")
            report.append(
                {"file": rel, "function": qualname, "line": key[1], "lines": length,
                 "examples_only": key in examples}
            )
    entered = len(functions) - len(unreached)
    print(
        f"{entered} of {len(functions)} functions entered by a real entry; "
        f"{sum(item['examples_only'] for item in report)} more only by examples"
    )
    print(
        json.dumps(
            {
                "functions": len(functions),
                "entered": entered,
                "unreached": len(unreached),
                "unreached_lines": sum(length for _, length in unreached.values()),
                "examples_only": sum(item["examples_only"] for item in report),
                "failed_entries": failed,
                "unreached_functions": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3:])
    sys.exit(main())
