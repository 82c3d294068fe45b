"""Worker subprocess for the live runtime's ``--procs`` mode.

Reads one JSON config line from stdin::

    {
      "spec": {...ScenarioSpec.to_dict()...},
      "worker": 1,                 # this worker's index in the placement
      "placement": [[0, 3], [1, 4], [2, 5]],  # worker -> hosted pids
      "ports": {"0": 51001, ...},  # worker -> port map (one per worker)
      "host": "127.0.0.1",
      "fast_path": true,           # colocated direct delivery on/off
      "duration": 3.0,             # the window ends at epoch + duration
      "target_blocks": null,
      "cold_start": false,         # true for a supervisor-restarted worker
      "client_shard": [0, 3],      # open-loop swarm slice offset::step
      "incarnation": 0             # restart generation (namespaces request ids)
    }

hosts its placement slice of the committee behind one
:class:`~repro.runtime.fabric.WorkerFabric` — a single TCP server and one
multiplexed session per remote worker, the exact same code path as task
mode (only the process boundary differs) — and writes
``{"nodes": [...], "window": {...}}`` to stdout as its last line.

stdin stays open after the config: the parent
(:class:`~repro.runtime.live.ClusterSwitch`) starts and stops the worker
with three control lines, one word each plus the epoch:

* ``ready`` (worker → parent, stdout): the worker's sessions are up and
  its preload is done;
* ``start <epoch>`` (parent → worker, stdin): the cluster's shared
  wall-clock zero, sent once every worker is ready (or the ready timeout
  passed).  The worker sets it on every hosted node and sleeps until it;
  a restarted worker gets the original, already-past epoch;
* ``stop`` (both ways): a worker whose replica reached ``target_blocks``
  reports it, and the parent relays it to every other worker, which
  ends its window as if it had reached the target itself.

A ``cold_start`` worker — respawned by the
:class:`~repro.resilience.supervisor.WorkerSupervisor` after its previous
incarnation died — marks its replicas for catch-up sync, so they request
the committed blocks they missed the moment they start.  Spawned by
:class:`~repro.runtime.live.LiveCluster`; not intended to be run by hand.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO, Any, Dict

from repro.crypto.keys import Committee
from repro.crypto.multisig import run_scheme
from repro.observe.logging_setup import configure_logging
from repro.runtime.fabric import Placement, WorkerFabric
from repro.runtime.live import LiveNode, ParentLink, serve_window
from repro.runtime.net import run_loop
from repro.scenarios.engine import compile_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["run_worker"]

logger = logging.getLogger("repro.runtime.live_worker")


async def _run_nodes(config: Dict[str, Any], stdin: IO[str], stdout: IO[str]) -> Dict[str, Any]:
    spec = ScenarioSpec.from_dict(config["spec"])
    compiled = compile_scenario(spec)
    host = config.get("host", "127.0.0.1")
    duration = float(config["duration"])
    target_blocks = config.get("target_blocks")
    worker = int(config["worker"])
    placement = Placement.from_payload(config["placement"])
    ports = {int(w): int(port) for w, port in config["ports"].items()}
    committee = Committee(
        run_scheme(compiled.config.signature_scheme),
        compiled.config.committee_size,
        seed=compiled.config.seed,
    )
    fabric = WorkerFabric(
        worker,
        placement,
        compiled,
        host=host,
        fast_path=bool(config.get("fast_path", True)),
    )
    for pid in placement.pids_of(worker):
        fabric.add_node(LiveNode(pid, compiled, committee, time.time(), host=host))
    await fabric.serve(port=ports[worker])
    fabric.set_worker_addresses({w: (host, port) for w, port in ports.items()})
    # The shared readiness + start + poll + stop lifecycle (same code path
    # as task mode); the parent's start line carries the cluster epoch.  A
    # restarted worker's replicas cold-start: they ask the surviving
    # committee for the committed blocks they missed.
    cold = bool(config.get("cold_start", False))
    shard = config.get("client_shard")
    return await serve_window(
        fabric,
        ParentLink(stdin, stdout),
        duration,
        None if target_blocks is None else int(target_blocks),
        cold_start_pids=placement.pids_of(worker) if cold else (),
        client_shard=None if shard is None else (int(shard[0]), int(shard[1])),
        incarnation=int(config.get("incarnation", 0)),
    )


def run_worker(stdin: Any = None, stdout: Any = None) -> int:
    # Logging goes to stderr only (REPRO_LOG_LEVEL selects the level):
    # stdout carries the control lines and the summary the parent parses
    # as JSON, so a single stray print there would corrupt the report.
    configure_logging()
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    config = json.loads(stdin.readline())
    logger.info(
        "worker %s starting (incarnation %s, cold_start=%s)",
        config.get("worker"),
        config.get("incarnation", 0),
        config.get("cold_start", False),
    )
    report = run_loop(_run_nodes(config, stdin, stdout))
    json.dump(report, stdout)
    stdout.write("\n")
    stdout.flush()
    logger.info("worker %s finished", config.get("worker"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(run_worker())
