"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-quiet --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times, then repeats timed,
untraced iterations for ``--seconds`` and reports the end-to-end metrics
(medians over iterations).  ``--trace 1`` alternates untraced and traced
iterations over the same time and reports the per-layer metrics (medians
over traced iterations), prints a self-time table grouped by layer and
writes the spans to ``perfbench/out/``.  Every iteration's output is
checked against the digests in ``seeds.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import layers
    import workloads
    from tracer import Tracer, self_times
except ImportError as error:  # the program is not in this checkout
    IMPORT_ERROR: ImportError | None = error
else:
    IMPORT_ERROR = None

WORKLOAD_NAMES = ("fleet-quiet", "fleet-chaos", "serve-warm")
#: End-to-end metrics in the order of ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
    ("wall_ms_per_op", "ms"),
)
#: Timed iterations every run makes; peak RSS is read after exactly this
#: many, because the allocator's high-water mark creeps up with each
#: further iteration and a faster host would otherwise report more memory.
MIN_TIMED_ITERATIONS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def repeat_for(seconds: float, step, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then while another call fits."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def load_entry(workload: str, seed: int | None) -> tuple[int, dict]:
    """The seed table entry for ``seed`` (the seed indexes it modulo its size)."""
    table = json.loads((HERE / "seeds.json").read_text())["workloads"][workload]
    seed = table["default_seed"] if seed is None else seed
    return seed, table["entries"][seed % len(table["entries"])]


def host_facts(nproc: int) -> dict:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def iteration(workload, pooled: bool, tracer=None):
    """One iteration, with the host-speed scale factors filled in."""
    sample, cpu_scale, wall_scale = workloads.probed(workload.iterate, pooled=pooled, tracer=tracer)
    sample.cpu_scale, sample.wall_scale = cpu_scale, wall_scale
    return sample


def median_per_op(samples, scaled: bool = True) -> tuple[float, float]:
    """Median CPU and wall milliseconds per operation over ``samples``."""
    good = [s for s in samples if s.ops]
    if not good:
        return 0.0, 0.0
    return (
        statistics.median(s.cpu_ms_per_op(scaled) for s in good),
        statistics.median(s.wall_ms_per_op(scaled) for s in good),
    )


def measure(workload, seconds: float) -> tuple[list, dict]:
    """Untraced timed iterations and the end-to-end metrics over them."""
    samples = []
    peak = {}

    def step():
        samples.append(iteration(workload, pooled=workload.pooled))
        if len(samples) == MIN_TIMED_ITERATIONS:
            peak["mb"] = workloads.peak_rss_mb(children=workload.pooled)

    repeat_for(seconds, step, MIN_TIMED_ITERATIONS)
    cpu, wall = median_per_op(samples)
    return samples, {"peak_rss_mb": peak["mb"], "cpu_ms_per_op": cpu, "wall_ms_per_op": wall}


def measure_traced(workload, seconds: float, spans_path: Path, header: dict):
    """Untraced/traced iteration pairs and the per-layer metrics over them."""
    samples = []
    pool = {"pool.child_cpu_s": 0.0, "pool.busy_share": 0.0}
    if workload.pooled:
        # Pool children are out of the tracer's reach: the pooled
        # iteration gives the pool numbers, the traced ones run inline.
        pooled = iteration(workload, pooled=True)
        samples.append(pooled)
        pool["pool.child_cpu_s"] = pooled.child_cpu_s
        pool["pool.busy_share"] = pooled.child_cpu_s / (workload.workers * pooled.wall_s)

    tracer = Tracer()
    pairs = []

    def pair():
        untraced = iteration(workload, pooled=False)
        tracer.run = len(pairs)
        layers.install(tracer)
        try:
            traced = iteration(workload, pooled=False, tracer=tracer)
        finally:
            tracer.restore()
        pairs.append((untraced, traced))

    repeat_for(seconds, pair, 1)
    selfs = self_times(tracer.spans)
    per_run = []
    for run, (untraced, traced) in enumerate(pairs):
        samples += [untraced, traced]
        extras = dict(traced.extras, **pool)
        base = untraced.cpu_s * untraced.cpu_scale
        extras["trace.overhead_share"] = traced.cpu_s * traced.cpu_scale / base - 1.0 if base else 0.0
        per_run.append(layers.run_metrics(tracer, selfs, run, extras))
    metrics = {
        name: statistics.median(run[name] for run in per_run) for name, *_ in layers.PER_LAYER
    }
    tracer.write(spans_path, header)
    return samples, metrics, layers.self_time_table(tracer, selfs)


def identity_check(name: str, metrics: dict, ues: int) -> tuple[bool, str]:
    """Whether the traced run exercised what the workload is named for."""
    if name == "fleet-quiet":
        ok = metrics["kernel.lanes_fold"] == ues and metrics["kernel.fallback_sessions"] == 0
        claim = f"all {ues} lanes fold, no fallback sessions"
    elif name == "fleet-chaos":
        ok = metrics["kernel.lanes_general"] == ues and metrics["pool.busy_share"] > 0
        claim = f"all {ues} lanes general, pool busy share reported"
    else:
        ok = metrics["cache.misses"] == 0 and metrics["kernel.run_lane.calls"] == 0
        claim = "no cache misses, no lane run"
    return ok, f"workload identity: {claim}"


def main(argv=None) -> int:
    args = parse_args(argv)
    # The workloads pin their own inputs; an inherited kernel override
    # would silently change what a workload exercises.
    os.environ.pop("REPRO_SIM_KERNEL", None)
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    try:
        seed, entry = load_entry(args.workload, args.seed)
    except (OSError, KeyError, ValueError) as error:
        print(f"perfbench: cannot read the seed table: {error}", file=sys.stderr)
        return 2

    nproc = workloads.nproc()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, entry, workdir, nproc)
        setups = [workload.setup() for _ in range(workload.setup_reps)]
        tag = f"{args.workload}-seed{seed}-trace{args.trace}"
        header = {
            "workload": args.workload,
            "seed": seed,
            "fleet_seed": entry["fleet_seed"],
            "seconds": args.seconds,
            "host": host_facts(nproc),
            "fleet": workload.config.to_dict(),
        }
        if args.trace:
            samples, metrics, table = measure_traced(
                workload, args.seconds, OUT / f"{tag}-spans.json", header
            )
            units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        else:
            samples, metrics = measure(workload, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            units = dict(END_TO_END)
            table = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = sorted({p for s in samples for p in s.problems})
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if table is not None:
        identity_ok, identity = identity_check(args.workload, metrics, workload.config.ues)
        if not identity_ok:
            # The run measured something other than its workload: it fails whole.
            problems.append(f"{identity}: no")
            failed = attempted
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    raw_cpu, raw_wall = median_per_op(samples, scaled=False)
    print(f"perfbench {args.workload} seed {seed} (fleet seed {entry['fleet_seed']}), "
          f"trace {args.trace}, host {header['host']}")
    print(f"set-up: {len(setups)} x, median {statistics.median(setups):.4f} s CPU at reference speed")
    print(f"iterations: {len(samples)}, operations attempted {attempted}, failed {failed} "
          f"(failed share {failed / attempted if attempted else 0.0:.4f})")
    print(f"unscaled medians: {raw_cpu:.4f} ms CPU and {raw_wall:.4f} ms wall per operation; "
          f"host speed {statistics.median(s.cpu_scale for s in samples):.3f} x reference")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if table is not None:
        print(table)
        print(f"{identity}: {'yes' if identity_ok else 'NO'}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(dict(header, result=result), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
