"""The live runtime's event loop: microsecond idle waits, same wake-ups.

:func:`repro.runtime.net.run_loop` builds every live loop.  On epoll
platforms its :class:`~repro.runtime.net.MicrosecondEpollSelector` spends
a timed wait in ``select()`` on the epoll descriptor instead of rounding
it up to whole milliseconds in ``epoll_wait``.  These tests pin the
unrounded timeout (by spying, not timing), the early wake on I/O, both
fallbacks, ``asyncio.run``'s cleanup, that task mode and a ``--procs``
worker both run on that loop, and one generously bounded wall-clock
check of a 0.5 ms runtime timer.
"""

from __future__ import annotations

import asyncio
import gc
import selectors
import socket
import statistics
import threading
import time
import types

import pytest

from repro.runtime import net
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveCluster, LiveRuntime
from repro.scenarios.spec import CommitteeSpec, ScenarioSpec, TopologySpec, WorkloadSpec

epoll_only = pytest.mark.skipif(
    selectors.DefaultSelector is not getattr(selectors, "EpollSelector", None),
    reason="the microsecond selector replaces epoll only",
)


@pytest.fixture
def select_calls(monkeypatch):
    """Every ``select.select`` timeout, passed through to the real call."""
    calls = []
    real = net.select.select

    def spy(rlist, wlist, xlist, timeout=None):
        calls.append(timeout)
        return real(rlist, wlist, xlist, timeout)

    monkeypatch.setattr(net.select, "select", spy)
    return calls


def _ready_socketpair(selector):
    """A socketpair whose read end is registered and already readable."""
    left, right = socket.socketpair()
    selector.register(left, selectors.EVENT_READ, data="left")
    right.send(b"x")
    return left, right


@epoll_only
def test_sub_millisecond_timeout_reaches_the_os_wait_unrounded(select_calls):
    with net.MicrosecondEpollSelector() as selector:
        assert selector.select(0.0003) == []
        # A zero timeout is a poll, not a timed wait: straight to epoll.
        selector.select(0)
    assert select_calls == [0.0003]


@epoll_only
def test_io_during_a_long_wait_wakes_it_and_reports_the_fd():
    left, right = socket.socketpair()
    writer = threading.Timer(0.05, right.send, args=(b"x",))
    try:
        with net.MicrosecondEpollSelector() as selector:
            selector.register(left, selectors.EVENT_READ, data="left")
            writer.start()
            started = time.perf_counter()
            events = selector.select(1.0)
            waited = time.perf_counter() - started
        assert [(key.fileobj, key.data, mask) for key, mask in events] == [
            (left, "left", selectors.EVENT_READ)
        ]
        assert waited < 0.5
    finally:
        writer.join()
        left.close()
        right.close()


@epoll_only
def test_epoll_fd_at_or_above_fd_setsize_keeps_the_stock_wait(monkeypatch, select_calls):
    monkeypatch.setattr(net, "FD_SETSIZE", 0)  # every descriptor is "too high"
    with net.MicrosecondEpollSelector() as selector:
        left, right = _ready_socketpair(selector)
        try:
            events = selector.select(0.5)
            assert [(key.data, mask) for key, mask in events] == [("left", selectors.EVENT_READ)]
            left.recv(1)
            assert selector.select(0.0003) == []
        finally:
            left.close()
            right.close()
    assert select_calls == []


def test_non_epoll_platform_gets_the_stock_selector(monkeypatch, select_calls):
    monkeypatch.setattr(selectors, "DefaultSelector", selectors.PollSelector)
    selector = net._selector()
    assert type(selector) is selectors.PollSelector
    with selector:
        left, right = _ready_socketpair(selector)
        try:
            events = selector.select(0.5)
            assert [(key.data, mask) for key, mask in events] == [("left", selectors.EVENT_READ)]
        finally:
            left.close()
            right.close()

    async def nap():
        await asyncio.sleep(0.001)
        return type(asyncio.get_running_loop()._selector)

    assert net.run_loop(nap()) is selectors.PollSelector
    assert select_calls == []


def test_run_loop_cleans_up_like_asyncio_run():
    seen = {}

    async def forever():
        try:
            await asyncio.sleep(3600)
        finally:
            seen["task_cancelled"] = True

    async def ticker():
        try:
            while True:
                yield 1
        finally:
            seen["asyncgen_closed"] = True

    async def main():
        loop = asyncio.get_running_loop()
        seen["loop"] = loop
        loop.create_task(forever())
        seen["agen"] = ticker()
        await seen["agen"].__anext__()
        assert await loop.run_in_executor(None, sum, (1, 2)) == 3
        await asyncio.sleep(0)
        return "done"

    assert net.run_loop(main()) == "done"
    assert seen["task_cancelled"] and seen["asyncgen_closed"]
    assert seen["loop"].is_closed()
    assert seen["loop"]._executor_shutdown_called

    async def boom():
        raise ValueError("propagates")

    with pytest.raises(ValueError, match="propagates"):
        net.run_loop(boom())


def _small_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="loop-check",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        seed=3,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=3),
    )


@pytest.mark.timeout(60)
def test_task_mode_runs_on_the_helper_loop(monkeypatch):
    selectors_seen = []
    serve = WorkerFabric.serve

    async def spy(fabric, *args, **kwargs):
        selectors_seen.append(type(asyncio.get_running_loop()._selector))
        return await serve(fabric, *args, **kwargs)

    monkeypatch.setattr(WorkerFabric, "serve", spy)
    cluster = LiveCluster(_small_spec(), duration=5.0, target_blocks=3)
    result = cluster.run()
    assert result.metrics.committed_blocks >= 3
    assert selectors_seen == [type(net._selector())]


def test_half_millisecond_runtime_timers_fire_under_a_millisecond():
    """Stock asyncio reads >= 1.0 ms here (the wait is rounded up)."""

    async def fire_timers(count):
        loop = asyncio.get_running_loop()
        runtime = LiveRuntime(types.SimpleNamespace(loop=loop))
        late = []
        for _ in range(count):
            fired = loop.create_future()
            armed = time.perf_counter()
            runtime.set_timer(0.0005, lambda: fired.set_result(time.perf_counter()))
            late.append(await fired - armed)
        return late

    gc.collect()
    late = net.run_loop(fire_timers(250))
    assert statistics.median(late) < 0.0009
