#!/usr/bin/env python3
"""Where a simulated run's memory goes: deploy cost, heap, retained objects.

Deploys one spec on the simulator, runs it to its duration and prints:

* ``deploy_s`` — wall seconds of ``api.deploy`` (the deployment part of
  the benchmark suite's ``setup_s``);
* ``heap_after_deploy`` — entries in the simulator's event heap before
  the run starts (client arrivals, crash and partition schedules);
* ``run_s`` — wall seconds of ``start()`` plus the run;
* the GC-tracked objects still alive at the end of the run, by type;
* ``gc_s`` — one full ``gc.collect()`` over that heap, the pause every
  later allocation-triggered full collection in the process pays;
* ``peak_rss_mb`` — the process's peak resident set size.

The last line of output is the same numbers as one JSON object, so a CI
step can ``tail -n 1`` it into a gate or an artifact.

    python tools/sim_footprint.py SPEC|PRESET [--top N]

``SPEC`` is a JSON scenario file, ``PRESET`` a built-in preset
name (``python -m repro scenario --list``).
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def footprint(spec_or_preset: str, *, top: int = 12) -> Dict[str, Any]:
    """Deploy and run one simulated spec; return what it cost and kept."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro import api

    spec = api.resolve_spec(spec_or_preset)
    started = time.perf_counter()
    deployment = api.deploy(spec)
    deployed = time.perf_counter()
    heap_after_deploy = len(deployment.simulator._queue._heap)
    deployment.start()
    deployment.simulator.run(until=spec.duration)
    finished = time.perf_counter()

    gc_started = time.perf_counter()
    gc.collect()
    gc_s = time.perf_counter() - gc_started
    tracked = collections.Counter(type(obj).__name__ for obj in gc.get_objects())
    return {
        "spec": spec.name,
        "committee": spec.committee.size,
        "rate": spec.workload.rate,
        "duration": spec.duration,
        "committed_blocks": len(deployment.mempool.committed_order),
        "events_processed": deployment.simulator.events_processed,
        "deploy_s": round(deployed - started, 4),
        "heap_after_deploy": heap_after_deploy,
        "run_s": round(finished - deployed, 3),
        "gc_s": round(gc_s, 4),
        "gc_tracked": sum(tracked.values()),
        "gc_tracked_by_type": dict(tracked.most_common(top)),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def render(numbers: Dict[str, Any]) -> List[str]:
    lines = [
        f"spec               {numbers['spec']} (n={numbers['committee']}, "
        f"{numbers['rate']:g} ops/s, {numbers['duration']:g} s)",
        f"committed_blocks   {numbers['committed_blocks']}",
        f"events_processed   {numbers['events_processed']}",
        f"deploy_s           {numbers['deploy_s']}",
        f"heap_after_deploy  {numbers['heap_after_deploy']}",
        f"run_s              {numbers['run_s']}",
        f"gc_s               {numbers['gc_s']}",
        f"peak_rss_mb        {numbers['peak_rss_mb']}",
        f"gc_tracked         {numbers['gc_tracked']}",
    ]
    width = max(len(name) for name in numbers["gc_tracked_by_type"])
    by_type = numbers["gc_tracked_by_type"].items()
    lines += [f"  {name:<{width}}  {count:>9}" for name, count in by_type]
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec", help="scenario spec file or preset name")
    parser.add_argument("--top", type=int, default=12, help="object types to list (default 12)")
    args = parser.parse_args(argv)
    numbers = footprint(args.spec, top=args.top)
    print("\n".join(render(numbers)))
    print(json.dumps(numbers, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
