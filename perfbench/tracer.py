"""In-memory span tracer that instruments the program from outside.

The program has no tracing hooks of its own, so the benchmark wraps the
functions and methods each layer exposes — at the attribute its caller
looks up (a module global such as ``repro.experiments.fleet_runner.run_lane``,
or a class attribute such as ``SettlementLedger.write``) — with a wrapper
that opens a span, calls through, and closes it.  :meth:`Tracer.restore`
puts every original object back, so untraced runs pay nothing.

A span records its name, CPU start/end (``time.process_time``), wall
start/end (``time.perf_counter``), the index of the span that was open
when it started (its parent) and the run id it belongs to.  Spans stay in
memory until the benchmark writes them out as JSON at the end.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "wall_start", "wall_end", "parent", "run")

    def __init__(self, name, start, end, wall_start, wall_end, parent, run) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.wall_start = wall_start
        self.wall_end = wall_end
        self.parent = parent
        self.run = run

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's CPU duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Collects spans and counts for the runs made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        #: run id -> counter name -> value, for counts taken at wrappers.
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.process_time(), None, time.perf_counter(), None, parent, self.run)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.process_time()
        span.wall_end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def count(self, name: str, amount: float = 1) -> None:
        run = self.counts.setdefault(self.run, {})
        run[name] = run.get(name, 0) + amount

    # ------------------------------------------------------------ patching

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, result)`` runs once the span has closed, to
        take counts from the call.  A call made while a span of the same
        name is already open (``fleet_shard_key`` encoding its shard through
        ``shard_to_dict``) records no second span, so inclusive times never
        count twice.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._open.get(name):
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped object, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, spans=[span.to_dict() for span in self.spans])
        path.write_text(json.dumps(payload, separators=(",", ":")))
