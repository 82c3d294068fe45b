"""Tests for the discrete-event queue and simulator clock."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.events import EventQueue, Simulator


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, order.append, "b")
        queue.push(1.0, order.append, "a")
        queue.push(3.0, order.append, "c")
        while queue:
            event = queue.pop()
            event.callback(*event.args)
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.push(1.0, order.append, name)
        while queue:
            event = queue.pop()
            event.callback(*event.args)
        assert order == ["a", "b", "c"]

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 2.0

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue and len(queue) == 1

    def test_pop_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: "keep")
        first.cancel()
        event = queue.pop()
        assert event.time == 2.0
        assert not event.cancelled

    def test_pop_skips_run_of_cancelled(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(5)]
        for handle in handles[:4]:
            handle.cancel()
        assert queue.pop().time == 4.0

    def test_drain_with_trailing_cancelled(self):
        # Regression: len()/bool count live events only, so draining with
        # `while queue: queue.pop()` terminates even when cancelled events
        # remain in the heap.
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        late = queue.push(2.0, lambda: None)
        late.cancel()
        assert len(queue) == 1
        drained = []
        while queue:
            drained.append(queue.pop().time)
        assert drained == [1.0]
        assert len(queue) == 0 and not queue

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 1

    def test_handle_is_the_one_slotted_event_object(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        assert not hasattr(handle, "__dict__")
        assert queue.pop() is handle


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.now == 1.5

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        end = sim.run(until=1.0)
        assert end == 1.0
        assert fired == []
        sim.run(until=3.0)
        assert fired == ["late"]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i + 1.0, fired.append, i)
        sim.run(max_events=4)
        assert len(fired) == 4

    def test_max_events_stop_leaves_clock_at_last_event(self):
        sim = Simulator()
        seen = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, lambda: seen.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.now == 1.0
        assert sim.run(until=10.0) == 10.0
        assert seen == [1.0, 2.0, 3.0]

    def test_until_in_the_past_never_rewinds_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, lambda: None)
        sim.schedule_at(20.0, fired.append, "late")
        sim.run(until=10.0)
        assert sim.run(until=5.0) == 10.0
        assert sim.now == 10.0 and fired == [] and len(sim._queue) == 1
        sim.run()
        assert fired == ["late"] and sim.now == 20.0

    def test_post_is_fire_and_forget(self):
        sim = Simulator()
        fired = []
        assert sim.post(1.0, fired.append, "a") is None
        assert sim.post_at(0.5, fired.append, "b") is None
        sim.run()
        assert fired == ["b", "a"] and sim.events_processed == 2
        with pytest.raises(ValueError):
            sim.post(-0.1, fired.append, "c")
        with pytest.raises(ValueError):
            sim.post_at(0.5, fired.append, "c")

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    @given(delays=st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)


class SortedListModel:
    """The kernel's specification: a sorted list, fired from the front.

    An entry is ``[time, seq, label, then, cancelled]``; firing one with a
    ``then`` schedules its child ``then`` seconds later, as the callbacks
    in :func:`test_simulator_matches_the_sorted_list_model` do.
    """

    def __init__(self):
        self.now, self.seq, self.processed, self.fired, self.pending = 0.0, 0, 0, [], []

    def schedule_at(self, time, label, then):
        if time < self.now:
            raise ValueError("cannot schedule events in the past")
        entry = [time, self.seq, label, then, False]
        self.seq += 1
        bisect.insort(self.pending, entry)  # seq is unique: nothing past it compares
        return entry

    def __len__(self):
        return sum(not entry[4] for entry in self.pending)

    def run(self, until, max_events):
        count = 0
        while self.pending and (until is None or self.pending[0][0] <= until):
            time, _, label, then, cancelled = self.pending.pop(0)
            if cancelled:
                continue
            self.now, count, self.processed = time, count + 1, self.processed + 1
            self.fired.append(label)
            if then is not None:
                self.schedule_at(time + then, (label, "then"), None)
            if max_events is not None and count >= max_events:
                return self.now
        if until is not None and until > self.now:
            self.now = until
        return self.now


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 6.0])
_THEN = st.one_of(st.none(), _TIMES)
_OPS = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at", "post", "post_at"]), _TIMES, _THEN),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), _TIMES, _TIMES.map(lambda t: t + 4.0)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    ),
)


@given(program=st.lists(_OPS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_simulator_matches_the_sorted_list_model(program):
    """Random schedule / post / cancel / run programs against the model.

    Cancels pick any handle made so far, so a program cancels events that
    already fired and cancels one event twice (the live-count bug once
    starved far-future events); runs stop on ``until`` (also one in the
    past) and on ``max_events``.
    """
    sim, model = Simulator(), SortedListModel()
    fired = []
    handles = []  # (sim handle, model entry) of every cancellable event

    def fire(label, then):
        fired.append(label)
        if then is not None:
            sim.schedule(then, fire, (label, "then"), None)

    for step, op in enumerate(program):
        kind = op[0]
        if kind == "cancel":
            if handles:
                handle, entry = handles[op[1] % len(handles)]
                handle.cancel()
                entry[4] = True
        elif kind == "run":
            assert sim.run(until=op[1], max_events=op[2]) == model.run(op[1], op[2])
        else:
            _, value, then = op
            absolute = kind.endswith("_at")
            time = value if absolute else model.now + value
            try:
                entry = model.schedule_at(time, step, then)
            except ValueError:
                with pytest.raises(ValueError):
                    getattr(sim, kind)(value, fire, step, then)
                continue
            made = getattr(sim, kind)(value, fire, step, then)
            if kind.startswith("schedule"):
                handles.append((made, entry))
            else:
                assert made is None
        assert fired == model.fired
        assert sim.now == model.now
        assert len(sim._queue) == len(model) and bool(sim._queue) == bool(len(model))
        assert sim.events_processed == model.processed
