"""In-memory spans around the simulator's public functions, from outside.

The traced benchmark run patches a fixed list of public functions and
methods (see :func:`install_layer_wrappers`) with thin wrappers that open a
span on entry and close it on exit.  Nothing under ``src/`` changes: a
wrapper replaces the attribute where the caller looks it up (a module
global for functions imported by name, the instance's class for methods)
and :meth:`Patches.uninstall` puts every original back.

Spans carry a name, start and end (``perf_counter_ns``), the id of the
enclosing span and the run id; they stay in memory until the run ends and
are then written out as JSONL.  The serial region driver runs everything
on one thread, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = -1
    #: Work units the call carried (requests simulated, batch rows), if any.
    n: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Span recorder for one run (single-threaded)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, n: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(), n=n)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        if not self._stack or self._stack[-1] != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, n: int = 0):
        span = self.open(name, n)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"run": self.run_id, **asdict(span)}) + "\n")


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #


def self_time_ns(spans: list[Span], span_id: int) -> int:
    """A span's duration minus the part of it its child spans cover."""
    span = spans[span_id]
    children = sorted(
        (s.start_ns, s.end_ns) for s in spans if s.parent == span_id
    )
    covered = 0
    cur_start = cur_end = None
    for start, end in children:
        start, end = max(start, span.start_ns), min(end, span.end_ns)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration_ns - covered


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``.

    A layer's time is the sum of these durations, so a method that calls
    another wrapped method of the same layer (``sla_safe_rate`` delegating
    to ``sla_safe_rates``) is counted once.
    """
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def layer_totals(spans: list[Span], names: set[str]) -> tuple[int, float, int]:
    """``(calls, seconds, work units)`` of a layer's outermost spans."""
    top = outermost(spans, names)
    return (
        len(top),
        sum(s.duration_ns for s in top) / 1e9,
        sum(s.n for s in top),
    )


# ---------------------------------------------------------------------- #
# patching
# ---------------------------------------------------------------------- #


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        #: ``(owner, attr, own attribute or _MISSING)`` of every wrap made.
        self.records: list[tuple[object, str, object]] = []
        self._active: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, wrapper_factory) -> None:
        """Replace ``owner.attr`` with ``wrapper_factory(original)``.

        ``owner`` is a module or a class.  An attribute a class inherits
        is shadowed on that class and deleted again on uninstall.
        """
        if any(o is owner and a == attr for o, a, _ in self.records):
            return
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"{owner.__name__}.{attr}: only plain functions")
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))
        self.records.append((owner, attr, own))
        self._active.append((owner, attr, own))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._active:
            owner, attr, own = self._active.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def leftovers(self) -> list[str]:
        """``owner.attr`` of every wrap whose original is not back."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, own in self.records
            if vars(owner).get(attr, _MISSING) is not own
        ]


def traced(tracer: Tracer, name, count=None):
    """Wrapper factory: a span per call, named ``name`` (or ``name(args)``).

    ``count(args, kwargs)`` gives the span's work units.
    """

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            n = count(args, kwargs) if count is not None else 0
            span = tracer.open(label, n)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    return factory
