"""Span recorder: self-time arithmetic, patching and restoring."""

import pytest

from spans import SpanRecorder


class FakeClock:
    """A clock the traced functions advance themselves."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_nested_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def leaf():
        clock.spend(2.0)

    leaf = recorder.wrap(leaf, "leaf")

    def middle():
        clock.spend(1.0)
        leaf()
        clock.spend(1.0)

    middle = recorder.wrap(middle, "middle")

    def outer():
        clock.spend(3.0)
        middle()
        leaf()

    recorder.wrap(outer, "outer")()

    totals = recorder.totals()
    assert totals["outer"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0, "measured": 0.0}
    assert totals["middle"]["total_s"] == 4.0 and totals["middle"]["self_s"] == 2.0
    assert totals["leaf"]["calls"] == 2 and totals["leaf"]["self_s"] == 4.0
    # Self times partition the covered time exactly.
    assert sum(row["self_s"] for row in totals.values()) == 9.0


def test_reentrant_calls_do_not_double_count_self_time():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def countdown(n):
        clock.spend(1.0)
        if n:
            countdown(n - 1)

    countdown = recorder.wrap(countdown, "countdown")
    countdown(3)

    row = recorder.totals()["countdown"]
    assert row["calls"] == 4
    assert row["self_s"] == 4.0  # one second per level
    assert row["total_s"] == 4.0 + 3.0 + 2.0 + 1.0  # inclusive time does repeat


def test_a_span_is_recorded_when_the_call_raises():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "boom")()
    assert recorder.totals()["boom"]["self_s"] == 1.0
    assert recorder._stack == []


def test_window_keeps_self_times_additive_at_its_edges():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def child():
        clock.spend(1.0)

    child = recorder.wrap(child, "child")

    def parent():
        clock.spend(1.0)
        child()  # starts at t=1 (outside), runs to t=2
        clock.spend(3.0)
        child()  # starts at t=5 (inside the window)

    recorder.wrap(parent, "parent")()
    # The parent started before the window: only the second child counts,
    # and with no parent inside the window it keeps its whole duration.
    assert recorder.totals(start=4.0) == {
        "child": {"calls": 1, "total_s": 1.0, "self_s": 1.0, "measured": 0.0}
    }


def test_measure_sums_a_value_per_call():
    recorder = SpanRecorder(FakeClock())
    encode = recorder.wrap(lambda text: text.encode(), "encode", measure=len)
    encode("ab")
    encode("abcd")
    assert recorder.totals()["encode"]["measured"] == 6.0


def test_patch_and_restore_methods_classmethods_and_inherited_methods():
    class Base:
        def work(self):
            return "base"

        @classmethod
        def build(cls):
            return cls.__name__

    class Child(Base):
        pass

    class Sibling(Base):
        pass

    recorder = SpanRecorder(FakeClock())
    recorder.patch(Child, "work", "child.work")
    recorder.patch(Base, "build", "base.build")
    assert Child().work() == "base" and Sibling().work() == "base"
    assert Child.build() == "Child"
    totals = recorder.totals()
    assert totals["child.work"]["calls"] == 1  # the sibling stayed untraced
    assert totals["base.build"]["calls"] == 1

    recorder.restore()
    assert "work" not in vars(Child)
    assert isinstance(vars(Base)["build"], classmethod)
    Child().work()
    assert recorder.totals()["child.work"]["calls"] == 1
