"""An in-memory span recorder wrapped around the program's public entry
points from the harness's own files.

A span is ``(id, name, parent id, start, end, measured)``; the parent is
whichever span was open on the call stack when this one started.  Spans
stay in memory for the life of the run and are folded into per-name
totals at the end.  A name's **self time** is the time its spans were
open minus the time their direct children were, so self times of all
names add up to exactly the time *some* span was open — which is what
lets the per-layer budget be compared with the wall clock.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span id, name index, parent span id or -1, start, end, measured)``
Span = Tuple[int, int, int, float, float, float]
#: Marks an attribute the patched owner did not define itself.
_ABSENT = object()


class SpanRecorder:
    """Wraps callables so each call leaves a span; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.spans: List[Span] = []
        self._name_index: Dict[str, int] = {}
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def wrap(
        self,
        func: Callable[..., Any],
        name: str,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> Callable[..., Any]:
        """``func`` with a span named ``name`` around every call.

        ``measure(result)`` (e.g. ``len`` for an encoder) is summed per
        name next to the call count.
        """
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            measured = 0.0
            started = clock()
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    measured = measure(result)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, index, parent, started, ended, measured))

        return traced

    # -- patching ----------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with its
        traced version until :meth:`restore`."""
        # An inherited plain method is shadowed on ``owner`` itself, so a
        # sibling subclass of the same base stays untraced.
        raw = vars(owner).get(attr) or getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            traced: Any = type(raw)(self.wrap(raw.__func__, name, measure))
        else:
            traced = self.wrap(raw, name, measure)
        self.patch_with(owner, attr, traced)

    def patch_with(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr = replacement`` until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def patch_function(self, func: Callable[..., Any], name: str, package: str) -> None:
        """Trace a module-level function everywhere ``package`` bound it
        (``from m import f`` copies the binding into the importer)."""
        traced = self.wrap(func, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(package):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch_with(module, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- folding -----------------------------------------------------------
    def totals(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls`` / ``total_s`` / ``self_s`` / ``measured`` over
        the spans that *started* inside ``[start, end)``.

        A child's time is charged against its parent only when the parent
        is inside the window too, so the self times still add up to the
        covered time at the window's edges.
        """
        spans = [span for span in self.spans if start <= span[3] < end]
        inside = {span[0] for span in spans}
        child_time: Dict[int, float] = {}
        for _, _, parent, started, ended, _ in spans:
            if parent in inside:
                child_time[parent] = child_time.get(parent, 0.0) + (ended - started)
        folded: Dict[str, Dict[str, float]] = {}
        for span_id, index, _, started, ended, measured in spans:
            row = folded.setdefault(
                self.names[index],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measured": 0.0},
            )
            duration = ended - started
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span_id, 0.0)
            row["measured"] += measured
        return folded

