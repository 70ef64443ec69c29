"""Self-tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import importlib  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import TAIL_SAMPLES, p99_has_tail  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(start, end, parent=None):
    return Span("s", start, end, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0.0, 10.0),           # root
        span(1.0, 4.0, parent=0),  # child holding a grandchild
        span(2.0, 3.0, parent=1),  # grandchild
        span(5.0, 7.0, parent=0),  # second child
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span(0.0, 10.0), span(1.0, 5.0, 0), span(3.0, 6.0, 0), span(9.0, 12.0, 0)]
    # Children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds.
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parents_and_skips_same_name_reentry():
    class Box:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return self.inner(n - 1) if n else 0

    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    try:
        assert Box().outer(3) == 1
    finally:
        tracer.restore()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_p99_keeps_ten_samples_beyond():
    assert TAIL_SAMPLES == 10
    assert p99_has_tail(1000)
    assert p99_has_tail(1024)
    assert not p99_has_tail(999)


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, *_ in layers.PER_LAYER
    ]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_wrappers_are_restored_after_tracing():
    def owners():
        for _layer, _name, module, cls, attr, *_ in layers.PLAN:
            owner = importlib.import_module(module)
            yield (getattr(owner, cls) if cls else owner), attr

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in owners()]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in originals)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
