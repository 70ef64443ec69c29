"""Which program callables are traced, and the per-layer metrics they give.

:data:`PLAN` lists every wrapped callable as (layer, span name, module,
class or None, attribute, and optionally a hook taking counts from the call).  Each is wrapped where its caller looks it up:
a module global for functions (``run_lane`` in ``fleet_runner``'s
namespace, the shard codec in each of the three modules that call it),
the class attribute for methods.

:data:`PER_LAYER` lists the per-layer metrics in the order of
``BENCHMARK.json``, each with its unit and how it is computed from one
traced run.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

FLEET = "repro.experiments.fleet"
FLEET_RUNNER = "repro.experiments.fleet_runner"
PARALLEL = "repro.experiments.parallel"
SERVICE = "repro.service.service"
LOADGEN = "repro.service.loadgen"

# ------------------------------------------------------------- count hooks


def _lane_ran(tracer, args, result):
    spec = args[0]
    # Every fleet UE has a cell of its own, and a lane runs before anything
    # else sends on it, so the air interface's count is this lane's packets.
    tracer.count("kernel.air_packets", spec.air.offered.packets)
    tracer.count("kernel.lanes_general" if spec.general else "kernel.lanes_fold")


def _lane_built(tracer, args, result):
    lane, reason = result
    if lane is None and reason is not None:
        tracer.count("kernel.fallback_sessions")


def _schemes_evaluated(tracer, args, result):
    tracer.count("core.negotiation.rounds", sum(o.rounds for rows in result.values() for o in rows))


def _cache_read(tracer, args, result):
    tracer.count("cache.hits" if result is not None else "cache.misses")


def _cache_probed(tracer, args, result):
    if not result:
        tracer.count("cache.misses")


def _cache_written(tracer, args, result):
    tracer.count("cache.bytes_written", result.stat().st_size)


def _claim_submitted(tracer, args, result):
    if result.accepted:
        tracer.count("service.admitted")


# (layer, span name, module, class, attribute[, count hook])
PLAN = [
    ("kernel", "kernel.run_lane", FLEET_RUNNER, None, "run_lane", _lane_ran),
    ("kernel", "kernel.build_lane", FLEET_RUNNER, None, "build_session_lane", _lane_built),
    ("experiments.fleet_runner", "fleet_runner.init", FLEET_RUNNER, "FleetShardRunner", "__init__"),
    ("experiments.fleet_runner", "fleet_runner.run", FLEET_RUNNER, "FleetShardRunner", "run"),
    ("experiments.fleet_runner", "fleet_runner.simulate", FLEET_RUNNER, "FleetShardRunner", "simulate"),
    ("experiments.fleet_runner", "fleet_runner.collect", FLEET_RUNNER, "FleetShardRunner", "collect_metrics"),
    ("experiments.fleet_runner", "fleet_runner.collect", FLEET_RUNNER, "_UeSession", "collect"),
    ("experiments.fleet_runner", "fleet_runner.summarize", FLEET_RUNNER, "_UeSession", "summarize"),
    ("experiments.runner", "runner.evaluate_schemes", FLEET_RUNNER, None, "evaluate_schemes",
     _schemes_evaluated),
    ("netsim", "netsim.loop.run_until", "repro.netsim.events", "EventLoop", "run_until"),
    ("experiments.fleet", "fleet.build_shards", FLEET, None, "build_shards"),
    ("experiments.fleet", "fleet.build_shards", LOADGEN, None, "build_shards"),
    ("experiments.fleet", "fleet.codec", FLEET, None, "shard_to_dict"),
    ("experiments.fleet", "fleet.codec", FLEET, None, "shard_from_dict"),
    ("experiments.fleet", "fleet.codec", FLEET, None, "fleet_shard_key"),
    ("experiments.fleet", "fleet.codec", FLEET, None, "shard_result_to_dict"),
    ("experiments.fleet", "fleet.codec", SERVICE, None, "shard_to_dict"),
    ("experiments.fleet", "fleet.codec", SERVICE, None, "shard_from_dict"),
    ("experiments.fleet", "fleet.codec", SERVICE, None, "fleet_shard_key"),
    ("experiments.fleet", "fleet.codec", LOADGEN, None, "shard_to_dict"),
    ("experiments.fleet", "fleet.fold", FLEET, "FleetAccumulator", "add"),
    ("experiments.parallel", "cache.get", PARALLEL, "ResultCache", "get_data", _cache_read),
    ("experiments.parallel", "cache.probe", PARALLEL, "ResultCache", "has", _cache_probed),
    ("experiments.parallel", "cache.put", PARALLEL, "ResultCache", "put_data", _cache_written),
    ("service.service", "service.submit", SERVICE, "ReconciliationService", "submit",
     _claim_submitted),
    ("service.service", "service.drain", SERVICE, "ReconciliationService", "drain"),
    ("service.cache", "tiered_cache.get", "repro.service.cache", "TieredCache", "get"),
    ("ledger", "ledger.journal", SERVICE, "SettlementLedger", "journal"),
    ("ledger", "ledger.write", SERVICE, "SettlementLedger", "write"),
    ("ledger", "ledger.close", SERVICE, "SettlementLedger", "close"),
]

#: Span name -> layer, for the self-time table.
LAYER_OF = {entry[1]: entry[0] for entry in PLAN}
LAYER_OF["bench.iteration"] = "bench (untraced remainder)"


def install(tracer: Tracer) -> None:
    """Wrap every callable of :data:`PLAN` (undo with ``tracer.restore()``)."""
    for _layer, name, module, cls, attr, *hook in PLAN:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, after=hook[0] if hook else None)


# ---------------------------------------------------------- metric table

# (metric, unit, source, argument).  Sources: "cpu" inclusive CPU of a span
# name, "self" its self CPU, "wall" its inclusive wall time, "calls" how
# many spans it has, "count" a wrapper count, "extra" a number the workload
# measured itself; "ratio" divides one metric or count by another, scaled.
PER_LAYER = [
    ("kernel.run_lane.cpu_s", "s", "cpu", "kernel.run_lane"),
    ("kernel.run_lane.calls", "count", "calls", "kernel.run_lane"),
    ("kernel.lanes_fold", "count", "count", "kernel.lanes_fold"),
    ("kernel.lanes_general", "count", "count", "kernel.lanes_general"),
    ("kernel.fallback_sessions", "count", "count", "kernel.fallback_sessions"),
    ("kernel.air_packets", "count", "count", "kernel.air_packets"),
    ("kernel.cpu_us_per_packet", "us", "ratio", ("kernel.run_lane.cpu_s", "kernel.air_packets", 1e6)),
    ("kernel.build_lane.cpu_s", "s", "cpu", "kernel.build_lane"),
    ("fleet_runner.init.cpu_s", "s", "cpu", "fleet_runner.init"),
    ("fleet_runner.simulate.self_cpu_s", "s", "self", "fleet_runner.simulate"),
    ("fleet_runner.collect.cpu_s", "s", "cpu", "fleet_runner.collect"),
    ("fleet_runner.summarize.cpu_s", "s", "cpu", "fleet_runner.summarize"),
    ("runner.evaluate_schemes.cpu_s", "s", "cpu", "runner.evaluate_schemes"),
    ("core.negotiation.rounds", "count", "count", "core.negotiation.rounds"),
    ("netsim.loop.run_until.cpu_s", "s", "cpu", "netsim.loop.run_until"),
    ("fleet.build_shards.cpu_s", "s", "cpu", "fleet.build_shards"),
    ("fleet.codec.cpu_s", "s", "cpu", "fleet.codec"),
    ("fleet.fold.cpu_s", "s", "cpu", "fleet.fold"),
    ("fleet.fold.shards", "count", "calls", "fleet.fold"),
    ("cache.get.cpu_s", "s", "cpu", "cache.get"),
    ("cache.put.cpu_s", "s", "cpu", "cache.put"),
    ("cache.hits", "count", "count", "cache.hits"),
    ("cache.misses", "count", "count", "cache.misses"),
    ("cache.bytes_written", "bytes", "count", "cache.bytes_written"),
    ("pool.child_cpu_s", "s", "extra", "pool.child_cpu_s"),
    ("pool.busy_share", "share", "extra", "pool.busy_share"),
    ("service.submit.cpu_s", "s", "cpu", "service.submit"),
    ("service.submit.calls", "count", "calls", "service.submit"),
    ("service.admitted_share", "share", "ratio", ("service.admitted", "service.submit.calls", 1.0)),
    ("service.rejected", "count", "extra", "service.rejected"),
    ("service.drain.self_cpu_s", "s", "self", "service.drain"),
    ("service.settle_p50_virtual_ms", "ms", "extra", "service.settle_p50_virtual_ms"),
    ("service.settle_p99_virtual_ms", "ms", "extra", "service.settle_p99_virtual_ms"),
    ("service.settle_samples", "count", "extra", "service.settle_samples"),
    ("tiered_cache.get.cpu_s", "s", "cpu", "tiered_cache.get"),
    ("tiered_cache.memory_hits", "count", "extra", "tiered_cache.memory_hits"),
    ("tiered_cache.disk_hits", "count", "extra", "tiered_cache.disk_hits"),
    ("ledger.journal.cpu_s", "s", "cpu", "ledger.journal"),
    ("ledger.journal.records", "count", "calls", "ledger.journal"),
    ("ledger.write.cpu_s", "s", "cpu", "ledger.write"),
    ("ledger.bytes_per_claim", "bytes", "extra", "ledger.bytes_per_claim"),
    ("ledger.close.wall_s", "s", "wall", "ledger.close"),
    ("loadgen.submitted", "count", "extra", "loadgen.submitted"),
    ("loadgen.retries", "count", "extra", "loadgen.retries"),
    ("loadgen.waves", "count", "extra", "loadgen.waves"),
    ("trace.overhead_share", "share", "extra", "trace.overhead_share"),
]


def run_metrics(tracer: Tracer, selfs: list[float], run: int, extras: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for traced run ``run``.

    ``selfs`` holds the self time of every span, as :func:`self_times` gives it.
    """
    indices = [i for i, span in enumerate(tracer.spans) if span.run == run]
    cpu: dict[str, float] = {}
    own: dict[str, float] = {}
    wall: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in indices:
        span = tracer.spans[i]
        cpu[span.name] = cpu.get(span.name, 0.0) + (span.end - span.start)
        own[span.name] = own.get(span.name, 0.0) + selfs[i]
        wall[span.name] = wall.get(span.name, 0.0) + (span.wall_end - span.wall_start)
        calls[span.name] = calls.get(span.name, 0) + 1
    counts = tracer.counts.get(run, {})
    sources = {"cpu": cpu, "self": own, "wall": wall, "calls": calls, "count": counts,
               "extra": extras}
    out: dict[str, float] = {}
    for metric, _unit, source, arg in PER_LAYER:
        if source == "ratio":
            numerator, denominator, scale = arg
            num = out.get(numerator, counts.get(numerator, 0))
            den = out.get(denominator, counts.get(denominator, 0))
            out[metric] = scale * num / den if den else 0.0
        else:
            out[metric] = sources[source].get(arg, 0)
    return out


def self_time_table(tracer: Tracer, selfs: list[float]) -> str:
    """Self CPU per layer and span name over every traced run."""
    by_name: dict[str, float] = {}
    for span, own in zip(tracer.spans, selfs):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
    total = sum(by_name.values()) or 1.0
    by_layer: dict[str, list[tuple[str, float]]] = {}
    for name, own in by_name.items():
        by_layer.setdefault(LAYER_OF.get(name, "?"), []).append((name, own))
    lines = [f"{'layer / span':<42} {'self CPU s':>11} {'share':>7}"]
    for layer, rows in sorted(by_layer.items(), key=lambda kv: -sum(v for _, v in kv[1])):
        layer_total = sum(v for _, v in rows)
        lines.append(f"{layer:<42} {layer_total:>11.4f} {100 * layer_total / total:>6.1f}%")
        for name, own in sorted(rows, key=lambda kv: -kv[1]):
            lines.append(f"  {name:<40} {own:>11.4f} {100 * own / total:>6.1f}%")
    return "\n".join(lines)
