"""Supervision of ``--procs`` worker subprocesses.

The pre-resilience cluster spawned its workers and then blocked in a
serial ``communicate()`` per worker: a worker that died unexpectedly
(OOM kill, segfault, operator SIGKILL) either stalled the whole run
until the timeout or aborted it with ``RuntimeError`` — the one failure
mode a robustness paper's harness should not have.

:class:`WorkerSupervisor` replaces that with a poll loop over
:class:`SupervisedWorker` handles (each a ``Popen`` drained by daemon
threads, so a chatty worker can never deadlock on a full stdout pipe):

* a worker exiting non-zero before the deadline is **restarted** per the
  :class:`RestartPolicy` — bounded attempts, linear backoff — and the
  restart is recorded on the supervision ``events`` timeline;
* a worker that exhausts its attempts has its replicas **salvaged**: the
  run completes degraded, with placeholder summaries for the lost pids
  instead of a hang or an exception;
* stragglers still alive at the deadline are killed and treated the
  same way.

The supervisor is deliberately ignorant of *what* it supervises — it
sees only a spawn callback ``(pids, attempt) -> SupervisedWorker`` — so
tests can drive it with fake subprocesses and the cluster can inject the
real worker command line, port map and control-line handler through a
closure.
"""

from __future__ import annotations

import logging
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["RestartPolicy", "SupervisedWorker", "WorkerSupervisor"]

logger = logging.getLogger("repro.resilience.supervisor")


@dataclass(frozen=True)
class RestartPolicy:
    """How hard the supervisor tries to bring a dead worker back.

    ``max_attempts`` counts *restarts* (0 disables restarting entirely);
    attempt ``k`` waits ``backoff * k`` seconds before respawning.
    """

    max_attempts: int = 2
    backoff: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")


class SupervisedWorker:
    """One worker subprocess plus the threads draining its pipes.

    stdout and stderr are drained on daemon threads from birth, so the
    worker can write megabytes of summaries without anyone deadlocking
    on the 64KB pipe buffer; the supervisor polls :meth:`done` instead of
    blocking.  stdout is read line by line: each line is first offered
    to ``on_line(worker, line)`` (newline stripped), and a line the
    callback consumes — it returns true — is a control line that never
    reaches :attr:`out`.  What the lines mean is the callback's business.
    A piped stdin stays open for :meth:`send` until stdout closes.
    """

    def __init__(
        self,
        pids: Sequence[int],
        proc: subprocess.Popen,
        on_line: Optional[Callable[["SupervisedWorker", str], bool]] = None,
    ) -> None:
        self.pids = list(pids)
        self.proc = proc
        self.out: str = ""
        self.err: str = ""
        self._on_line = on_line
        self._stdin_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._drain_out, daemon=True),
            threading.Thread(target=self._drain_err, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _drain_out(self) -> None:
        lines: List[str] = []
        if self.proc.stdout is not None:
            for line in self.proc.stdout:
                if self._on_line is None or not self._on_line(self, line.rstrip("\n")):
                    lines.append(line)
            self.proc.stdout.close()
        self.out = "".join(lines)
        with self._stdin_lock:
            if self.proc.stdin is not None:
                try:
                    self.proc.stdin.close()
                except OSError:  # unflushed bytes to a dead reader
                    pass
        self.proc.wait()

    def _drain_err(self) -> None:
        if self.proc.stderr is not None:
            self.err = self.proc.stderr.read()
            self.proc.stderr.close()

    def send(self, line: str) -> None:
        """Write one line to the worker's stdin; a no-op once it is gone."""
        with self._stdin_lock:
            stdin = self.proc.stdin
            if stdin is None or stdin.closed:
                return
            try:
                stdin.write(line + "\n")
                stdin.flush()
            except OSError:  # the worker exited or closed its end
                pass

    def done(self) -> bool:
        """Exited *and* fully drained (out/err are complete)."""
        return self.proc.poll() is not None and not any(
            thread.is_alive() for thread in self._threads
        )

    @property
    def returncode(self) -> Optional[int]:
        return self.proc.poll()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:  # already gone
            pass

    def join(self, timeout: Optional[float] = None) -> None:
        for thread in self._threads:
            thread.join(timeout)


class WorkerSupervisor:
    """Spawn, watch, restart and reap a fleet of worker subprocesses.

    Args:
        spawn: ``(pids, attempt) -> SupervisedWorker``.  ``attempt`` is 0
            for the initial launch and ``k`` for the ``k``-th restart, so
            the callback can mark late joiners for cold-start sync.
        policy: Restart budget and backoff.
        poll_interval: Seconds between liveness sweeps.
    """

    def __init__(
        self,
        spawn: Callable[[Sequence[int], int], SupervisedWorker],
        policy: Optional[RestartPolicy] = None,
        *,
        poll_interval: float = 0.05,
    ) -> None:
        self.spawn = spawn
        self.policy = policy or RestartPolicy()
        self.poll_interval = poll_interval
        self.events: List[Dict[str, Any]] = []
        self.restarts = 0
        self._active: Dict[int, Tuple[SupervisedWorker, int]] = {}
        self._lock = threading.Lock()

    def active_workers(self) -> List[SupervisedWorker]:
        """Live handles, for tests that want to kill one mid-run."""
        with self._lock:
            return [worker for worker, _ in self._active.values()]

    def run(
        self, assignments: Sequence[Sequence[int]], deadline: float
    ) -> Tuple[List[SupervisedWorker], List[List[int]]]:
        """Supervise one fleet to completion.

        Returns ``(succeeded, failed_pid_groups)``: handles whose final
        incarnation exited cleanly (their ``out`` holds the summary
        JSON), and the pid groups whose workers exhausted the restart
        budget or were still running at ``deadline`` — the caller
        salvages those into placeholder summaries.

        ``deadline`` is a ``time.monotonic()`` instant.
        """
        started = time.monotonic()
        with self._lock:
            self._active = {
                slot: (self.spawn(pids, 0), 0)
                for slot, pids in enumerate(assignments)
            }
        pending: Dict[int, Tuple[float, int, List[int]]] = {}  # slot -> (when, attempt, pids)
        succeeded: List[SupervisedWorker] = []
        failed: List[List[int]] = []

        while True:
            with self._lock:
                active_items = list(self._active.items())
            if not active_items and not pending:
                break
            now = time.monotonic()
            if now >= deadline:
                break
            for slot, (worker, attempt) in active_items:
                if not worker.done():
                    continue
                with self._lock:
                    self._active.pop(slot, None)
                if worker.returncode == 0:
                    succeeded.append(worker)
                    continue
                logger.warning(
                    "worker hosting pids %s died with returncode %s (attempt %d)",
                    worker.pids,
                    worker.returncode,
                    attempt,
                )
                self.events.append(
                    {
                        "kind": "worker-died",
                        "pids": worker.pids,
                        "returncode": worker.returncode,
                        "attempt": attempt,
                        "at": now - started,
                        "stderr": worker.err.strip()[-500:],
                    }
                )
                if attempt < self.policy.max_attempts:
                    wait = self.policy.backoff * (attempt + 1)
                    pending[slot] = (now + wait, attempt + 1, worker.pids)
                else:
                    failed.append(worker.pids)
            now = time.monotonic()
            for slot, (when, attempt, pids) in list(pending.items()):
                if now >= when:
                    del pending[slot]
                    replacement = self.spawn(pids, attempt)
                    with self._lock:
                        self._active[slot] = (replacement, attempt)
                    self.restarts += 1
                    logger.info(
                        "restarted worker hosting pids %s (attempt %d)",
                        list(pids),
                        attempt,
                    )
                    self.events.append(
                        {
                            "kind": "worker-restarted",
                            "pids": list(pids),
                            "attempt": attempt,
                            "at": now - started,
                        }
                    )
            time.sleep(self.poll_interval)

        # Deadline: kill stragglers and salvage whatever they reported.
        with self._lock:
            stragglers = list(self._active.values())
            self._active = {}
        for worker, attempt in stragglers:
            worker.kill()
            worker.join(timeout=5.0)
            if worker.returncode == 0:
                succeeded.append(worker)
            else:
                logger.warning(
                    "worker hosting pids %s killed at deadline (returncode %s)",
                    worker.pids,
                    worker.returncode,
                )
                self.events.append(
                    {
                        "kind": "worker-timeout",
                        "pids": worker.pids,
                        "returncode": worker.returncode,
                        "attempt": attempt,
                        "at": time.monotonic() - started,
                        "stderr": worker.err.strip()[-500:],
                    }
                )
                failed.append(worker.pids)
        for _, attempt, pids in pending.values():  # never respawned
            failed.append(list(pids))
        return succeeded, failed

    def summary(self) -> Dict[str, Any]:
        """JSON-safe supervision record for ``RunResult.resilience``."""
        return {
            "restarts": self.restarts,
            "events": list(self.events),
            "policy": {
                "max_attempts": self.policy.max_attempts,
                "backoff": self.policy.backoff,
            },
        }
