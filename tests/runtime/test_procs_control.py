"""The ``--procs`` start/stop handshake between the parent and its workers.

The parent half (:class:`ClusterSwitch` behind :class:`SupervisedWorker`)
is driven by tiny real subprocesses that speak the control lines; the
worker half (:func:`run_worker`) is driven in-process through a scripted
stdin pipe, with no cluster around it.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience.supervisor import RestartPolicy, SupervisedWorker, WorkerSupervisor
from repro.runtime import net
from repro.runtime.fabric import Placement
from repro.runtime.live import ClusterSwitch, LiveNode, _free_port
from repro.runtime.live_worker import run_worker
from repro.scenarios.spec import CommitteeSpec, ScenarioSpec, TopologySpec, WorkloadSpec

# A stand-in worker: waits ``delay`` seconds, reports ready (unless it
# never does), then waits for its start line and reports what it saw as
# one JSON line.  ``stopper`` reports stop right after starting; a
# ``listener`` waits for a relayed stop before reporting.
_WORKER = r"""
import json, sys, time
delay, role = float(sys.argv[1]), sys.argv[2]
time.sleep(delay)
if role == "never":
    time.sleep(1.5)
    sys.exit(0)
ready_at = time.time()
print("ready", flush=True)
words = sys.stdin.readline().split()
report = {"ready_at": ready_at, "start_at": time.time(), "line": words}
if role == "stopper":
    print("stop", flush=True)
elif role == "listener":
    report["relayed"] = sys.stdin.readline().strip()
print(json.dumps(report), flush=True)
"""


def _fleet(roles, ready_timeout=5.0):
    """Run one stand-in worker per ``(delay, role)`` under a switch."""
    spawned = time.time()
    switch = ClusterSwitch(len(roles), ready_timeout)

    def spawn(pids, attempt):
        delay, role = roles[pids[0]]
        proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(delay), role],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return SupervisedWorker(pids, proc, on_line=switch.on_line)

    supervisor = WorkerSupervisor(spawn, RestartPolicy(max_attempts=0), poll_interval=0.01)
    try:
        succeeded, failed = supervisor.run(
            [[slot] for slot in range(len(roles))], time.monotonic() + 20.0
        )
    finally:
        switch.close()
    assert failed == []
    reports = {}
    for worker in succeeded:
        # Control lines never reach ``out``: what is left is the report.
        assert "ready" not in worker.out.splitlines()
        assert "stop" not in worker.out.splitlines()
        if worker.out:
            reports[worker.pids[0]] = json.loads(worker.out)
    return switch, spawned, reports


def _start_epoch(report):
    assert report["line"][0] == "start"
    return float(report["line"][1])


@pytest.mark.timeout(60)
def test_start_waits_for_the_slowest_worker():
    switch, _, reports = _fleet([(0.0, "plain"), (0.8, "plain"), (0.2, "plain")])
    assert switch.all_ready is True
    slowest_ready = max(r["ready_at"] for r in reports.values())
    epochs = {_start_epoch(r) for r in reports.values()}
    assert epochs == {switch.epoch}
    assert switch.epoch > slowest_ready
    assert all(r["start_at"] >= slowest_ready for r in reports.values())


@pytest.mark.timeout(60)
def test_a_worker_that_never_reports_ready_does_not_hang_the_fleet():
    switch, spawned, reports = _fleet(
        [(0.0, "plain"), (1.0, "plain"), (0.0, "never")], ready_timeout=0.5
    )
    assert switch.all_ready is False
    assert sorted(reports) == [0, 1]
    prompt, late = reports[0], reports[1]
    # The ready worker is released at the timeout, not held for the
    # others; the late one is released on its ready line, same epoch.
    assert prompt["start_at"] - spawned >= 0.5
    assert prompt["start_at"] < late["ready_at"]
    assert late["start_at"] >= late["ready_at"]
    assert _start_epoch(prompt) == _start_epoch(late) == switch.epoch


@pytest.mark.timeout(60)
def test_a_stop_line_reaches_every_other_worker():
    switch, _, reports = _fleet([(0.0, "stopper"), (0.0, "listener"), (0.0, "listener")])
    assert switch.stopped is True
    assert "relayed" not in reports[0]
    assert reports[1]["relayed"] == reports[2]["relayed"] == "stop"


def test_lines_pass_through_to_out_without_a_callback():
    proc = subprocess.Popen(
        [sys.executable, "-c", "print('ready'); print('{}')"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    worker = SupervisedWorker([0], proc)
    worker.join(timeout=20.0)
    assert worker.done()
    assert worker.out == "ready\n{}\n"
    worker.send("start 1.0")  # no stdin pipe: nothing to write to


# -- the worker's half, in-process ----------------------------------------------------
def _worker_config(*, duration, cold_start):
    spec = ScenarioSpec(
        name="worker-control",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        seed=5,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=5),
    )
    return {
        "spec": spec.to_dict(),
        "worker": 0,
        "placement": Placement.round_robin(4, 1).to_payload(),
        "ports": {"0": _free_port("127.0.0.1")},
        "host": "127.0.0.1",
        "fast_path": True,
        "duration": duration,
        "target_blocks": None,
        "cold_start": cold_start,
        "client_shard": None,
        "incarnation": 1 if cold_start else 0,
    }


def _drive_worker(monkeypatch, config, epoch):
    """Run one worker on a scripted stdin: its config, then ``start``."""
    started = {}
    start_protocol = LiveNode.start_protocol

    def spy(node, request_sync=False):
        started[node.pid] = (node.epoch, request_sync, time.time())
        return start_protocol(node, request_sync)

    monkeypatch.setattr(LiveNode, "start_protocol", spy)
    before = set(threading.enumerate())
    read_fd, write_fd = os.pipe()
    stdin = os.fdopen(read_fd)
    script = os.fdopen(write_fd, "w")
    out = io.StringIO()
    try:
        # stdin stays open while the worker serves, as the parent keeps it.
        script.write(json.dumps(config) + "\n" + f"start {epoch!r}\n")
        script.flush()
        assert run_worker(stdin, out) == 0
    finally:
        script.close()
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=5.0)
        stdin.close()
    lines = out.getvalue().splitlines()
    assert lines[0] == "ready"
    report = json.loads(lines[-1])
    assert sorted(started) == [0, 1, 2, 3]
    release = min(at for _, _, at in started.values())
    # The window closes at the cluster's deadline, epoch + duration.
    window_end = release + report["window"]["elapsed"]
    assert window_end == pytest.approx(max(epoch + config["duration"], release), abs=0.1)
    return started, report


@pytest.mark.timeout(60)
def test_released_worker_runs_on_the_epoch_of_its_start_line(monkeypatch):
    epoch = time.time() + 0.6
    started, _ = _drive_worker(
        monkeypatch, _worker_config(duration=0.5, cold_start=False), epoch
    )
    for node_epoch, request_sync, at in started.values():
        assert node_epoch == epoch
        assert request_sync is False
        assert at >= epoch


@pytest.mark.timeout(60)
def test_worker_runs_on_the_microsecond_loop(monkeypatch):
    selectors_seen = []
    start_protocol = LiveNode.start_protocol

    def spy(node, request_sync=False):
        selectors_seen.append(type(asyncio.get_running_loop()._selector))
        return start_protocol(node, request_sync)

    monkeypatch.setattr(LiveNode, "start_protocol", spy)
    _drive_worker(
        monkeypatch, _worker_config(duration=0.2, cold_start=False), time.time() + 0.1
    )
    assert selectors_seen == [type(net._selector())] * 4


@pytest.mark.timeout(60)
def test_restarted_worker_joins_the_cluster_clock_and_deadline(monkeypatch):
    # The cluster started a second ago; its window closes 0.4 s from now.
    epoch = time.time() - 1.0
    started, report = _drive_worker(
        monkeypatch, _worker_config(duration=1.4, cold_start=True), epoch
    )
    for node_epoch, request_sync, _ in started.values():
        assert node_epoch == epoch
        assert request_sync is True
    # No 0.75 s floor for a late joiner.
    assert report["window"]["elapsed"] < 0.75
