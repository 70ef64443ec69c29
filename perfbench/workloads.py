"""The three benchmark workloads: inputs, one timed iteration, its checks.

Each workload turns one entry of ``seeds.json`` (a fleet seed plus the
digests recorded for it) into the program's own input objects —
:class:`~repro.experiments.fleet.FleetConfig` and, for the service,
:class:`~repro.service.ReplayConfig` / :class:`~repro.service.ServiceConfig`
— and knows how to set itself up, run one timed iteration and check the
iteration's output against the recorded digests.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.fleet import FleetConfig, build_shards, fleet_shard_key, run_fleet
from repro.experiments.parallel import ResultCache
from repro.netsim.faults import FAULT_PROFILES
from repro.service import ReplayConfig, ServiceConfig, SettlementLedger, replay_fleet

#: Population of both fleet workloads; the seed table holds fleet seeds
#: whose Zipf draw gives exactly the expected archetype counts
#: (``record.target_mix``) for this many UEs.
FLEET_UES = 48
#: Population of serve-warm: one UE per shard claim.
SERVE_UES = 1024
#: The serve-warm latency percentile must keep this many samples beyond it.
TAIL_SAMPLES = 10
#: Seconds the host-speed probe takes at reference speed; times are
#: reported scaled to that speed (see :func:`probed`).
PROBE_REFERENCE_S = 0.020


def fleet_config(workload: str, fleet_seed: int) -> FleetConfig:
    """The program input for ``workload`` under one recorded fleet seed."""
    if workload == "fleet-quiet":
        return FleetConfig(ues=FLEET_UES, shard_size=8, seed=fleet_seed)
    if workload == "fleet-chaos":
        return FleetConfig(
            ues=FLEET_UES,
            # Small shards keep the pool's tail short: one vridge UE is
            # about a tenth of the sweep's CPU, whichever shard it lands in.
            shard_size=2,
            seed=fleet_seed,
            outage_eta=0.1,
            handover_interval_s=10.0,
            handover_x2=True,
            quota_bytes=1_000_000,
            fault_profile="chaos",
        )
    if workload == "serve-warm":
        return FleetConfig(
            ues=SERVE_UES, shard_size=1, seed=fleet_seed, n_cycles=2, cycle_duration_s=1.0
        )
    raise ValueError(f"unknown workload {workload!r}")


def replay_configs() -> tuple[ReplayConfig, ServiceConfig]:
    """Client and service settings of serve-warm."""
    return (
        ReplayConfig(duration_s=60.0, vendors=4, ingest_faults=FAULT_PROFILES["chaos"]),
        ServiceConfig(workers=4),
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def aggregate_digest(result) -> str:
    """sha256 of the fleet aggregate as sorted, compact JSON."""
    return digest(json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")))


def cpu_clocks() -> tuple[float, float]:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


def peak_rss_mb(children: bool) -> float:
    """Largest resident set of this process, or of any reaped child too, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _probe_kernel(n: int = 80_000) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(n):
        table[i & 255] = acc
        acc = acc * 0.5 + (i % 7) * 1.5 + table.get((i * 7) & 255, 0.0) * 0.25
    return acc


def probe() -> tuple[float, float]:
    """CPU and wall seconds of a fixed pure-Python kernel: the host's speed now."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    _probe_kernel()
    return time.process_time() - cpu0, time.perf_counter() - wall0


def probed(call, *args, **kwargs):
    """Run ``call`` between two host-speed probes.

    Returns the call's result and the factors that scale its CPU and wall
    times to reference host speed: :data:`PROBE_REFERENCE_S` over the mean
    of the two probes.  A shared host's speed can drift by a quarter within
    seconds; probes taken right before and after a call track that drift.
    """
    before = probe()
    result = call(*args, **kwargs)
    after = probe()
    cpu_scale = 2 * PROBE_REFERENCE_S / (before[0] + after[0])
    wall_scale = 2 * PROBE_REFERENCE_S / (before[1] + after[1])
    return result, cpu_scale, wall_scale


def timed_cpu(call, *args, **kwargs):
    """``call``'s result and its CPU seconds, scaled to reference host speed."""

    def once():
        start = time.process_time()
        result = call(*args, **kwargs)
        return result, time.process_time() - start

    (result, cpu), cpu_scale, _ = probed(once)
    return result, cpu * cpu_scale


def p99_has_tail(samples: int) -> bool:
    """Whether at least :data:`TAIL_SAMPLES` whole samples lie beyond p99."""
    return samples // 100 >= TAIL_SAMPLES


def kernel_fallbacks(result) -> int:
    """Sessions of a fleet sweep that fell back to the reference kernel."""
    return sum(n for key, n in result.metrics.counters.items() if key.startswith("kernel.fallback"))


def fill_cache(config: FleetConfig, cache_dir: Path) -> tuple[str, float]:
    """serve-warm's set-up: fill ``cache_dir`` with every shard result.

    Returns the aggregate's digest and the fill's scaled CPU seconds.  It
    runs in a child process (see :meth:`ServeWorkload.setup`).
    """
    result, cpu = timed_cpu(run_fleet, config, workers=0, cache=ResultCache(cache_dir))
    return aggregate_digest(result), cpu


@dataclass
class Sample:
    """One iteration: its cost, its operations and what its checks found."""

    cpu_s: float
    wall_s: float
    child_cpu_s: float
    ops: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    #: Factors scaling ``cpu_s`` / ``wall_s`` to reference host speed.
    cpu_scale: float = 1.0
    wall_scale: float = 1.0

    def cpu_ms_per_op(self, scaled: bool = True) -> float:
        return 1000.0 * self.cpu_s * (self.cpu_scale if scaled else 1.0) / self.ops

    def wall_ms_per_op(self, scaled: bool = True) -> float:
        return 1000.0 * self.wall_s * (self.wall_scale if scaled else 1.0) / self.ops


class FleetWorkload:
    """fleet-quiet / fleet-chaos: one ``run_fleet`` into a fresh empty cache."""

    setup_reps = 15

    def __init__(self, name: str, entry: dict, workdir: Path, nproc: int) -> None:
        self.name = name
        self.entry = entry
        self.workdir = workdir
        self.config = fleet_config(name, entry["fleet_seed"])
        self.pooled = name == "fleet-chaos"
        self.workers = nproc if self.pooled else 0
        self.n_shards = len(build_shards(self.config))
        self._count = 0

    def setup(self) -> float:
        """Shard build and shard keys: what a sweep derives before it runs.

        Returns the scaled CPU seconds it took.
        """
        return timed_cpu(self._derive_keys)[1]

    def _derive_keys(self) -> None:
        for shard in build_shards(self.config):
            fleet_shard_key(shard)

    def iterate(self, pooled: bool, tracer=None) -> Sample:
        self._count += 1
        cache_dir = self.workdir / f"{self.name}-cache-{self._count}"
        cache = ResultCache(cache_dir)
        workers = self.workers if pooled else 0
        problems = []
        root = tracer.begin("bench.iteration") if tracer is not None else None
        (own0, child0), wall0 = cpu_clocks(), time.perf_counter()
        try:
            result = run_fleet(self.config, workers=workers, cache=cache)
        except Exception as error:  # a raising sweep fails every shard
            result = None
            problems.append(f"run_fleet raised {type(error).__name__}: {error}")
        wall = time.perf_counter() - wall0
        own1, child1 = cpu_clocks()
        own, child = own1 - own0, child1 - child0
        if root is not None:
            tracer.end(root)
        if result is not None:
            got = aggregate_digest(result)
            if got != self.entry["aggregate_sha256"]:
                problems.append(f"aggregate sha256 {got} != recorded")
            if result.report.simulated != self.n_shards:
                problems.append(f"{result.report.simulated} of {self.n_shards} shards simulated")
            fallbacks = kernel_fallbacks(result)
            if fallbacks:
                problems.append(f"{fallbacks} sessions fell back to the reference kernel")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Sample(
            cpu_s=own + child,
            wall_s=wall,
            child_cpu_s=child,
            ops=self.config.ues,
            attempted=self.n_shards,
            failed=self.n_shards if problems else 0,
            problems=problems,
        )


class ServeWorkload:
    """serve-warm: ``replay_fleet`` against a disk cache filled in set-up."""

    setup_reps = 5

    def __init__(self, name: str, entry: dict, workdir: Path, nproc: int) -> None:
        self.name = name
        self.entry = entry
        self.workdir = workdir
        self.config = fleet_config(name, entry["fleet_seed"])
        self.replay, self.service_config = replay_configs()
        self.pooled = False
        self.cache_dir: Path | None = None
        self.setup_problems: list[str] = []
        self.claims = len(build_shards(self.config))
        self._count = 0

    def setup(self) -> float:
        """Fill a fresh disk cache with every shard result (kept for the runs).

        The fill runs in a child process, so the allocator memory its
        ``run_fleet`` leaves behind is not counted in this process's peak
        resident set, which then covers the timed replays alone.  Returns
        the fill's scaled CPU seconds.
        """
        self._count += 1
        cache_dir = self.workdir / f"serve-cache-{self._count}"
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as child:
            got, cpu = child.submit(fill_cache, self.config, cache_dir).result()
        if got != self.entry["aggregate_sha256"]:
            self.setup_problems.append(f"cache-fill aggregate sha256 {got} != recorded")
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = cache_dir
        return cpu

    def iterate(self, pooled: bool, tracer=None) -> Sample:
        self._count += 1
        ledger_path = self.workdir / f"ledger-{self._count}.jsonl"
        ledger = SettlementLedger(ledger_path)
        root = tracer.begin("bench.iteration") if tracer is not None else None
        (own0, child0), wall0 = cpu_clocks(), time.perf_counter()
        try:
            result, stats, service = replay_fleet(
                self.config,
                replay=self.replay,
                service_config=self.service_config,
                disk_cache=ResultCache(self.cache_dir),
                ledger=ledger,
            )
        except Exception as error:  # a raising replay fails every claim
            problem = f"replay_fleet raised {type(error).__name__}: {error}"
            return Sample(0.0, 0.0, 0.0, 0, self.claims, self.claims, [problem])
        finally:
            wall = time.perf_counter() - wall0
            own1, child1 = cpu_clocks()
            own, child = own1 - own0, child1 - child0
            if root is not None:
                tracer.end(root)
        ledger_bytes = ledger_path.stat().st_size
        ledger_path.unlink()

        # An operation is a logical claim; an unsettled claim or a crashed
        # worker fails one, a wrong aggregate or settlement view fails all.
        mismatches = list(self.setup_problems)
        if result is not None and aggregate_digest(result) != self.entry["aggregate_sha256"]:
            mismatches.append("served aggregate differs from run_fleet's")
        settlement = digest(service.ledger.text())
        if settlement != self.entry["settlement_sha256"]:
            mismatches.append(f"settlement view sha256 {settlement} != recorded")
        if service.cache.misses:
            # A miss means the replay simulated: serve-warm would no longer
            # measure the service alone.
            mismatches.append(f"{service.cache.misses} shard cache misses")
        crashed = len(service.crashed_workers())
        failed = self.claims if mismatches else stats.dropped + crashed
        problems = mismatches
        if stats.dropped or crashed:
            problems.append(f"{stats.dropped} claims unsettled, {crashed} workers crashed")

        snapshot = service.metrics.snapshot()
        key = "service.latency{kind=shard}"
        samples = int(snapshot.histograms[key]["count"]) if key in snapshot.histograms else 0
        if not p99_has_tail(samples):
            # p99 is what is reported, so it must rest on enough samples.
            failed = self.claims
            problems.append(f"only {samples} latency samples: p99 has fewer than "
                            f"{TAIL_SAMPLES} beyond it")
        pct = snapshot.percentiles(key) if samples else {"p50": 0.0, "p99": 0.0}
        settled = service.settled_count()
        extras = {
            "service.settle_p50_virtual_ms": 1000.0 * pct["p50"],
            "service.settle_p99_virtual_ms": 1000.0 * pct["p99"],
            "service.settle_samples": samples,
            "service.rejected": sum(service.rejections.values()),
            "tiered_cache.memory_hits": service.cache.hits_memory,
            "tiered_cache.disk_hits": service.cache.hits_disk,
            "ledger.bytes_per_claim": ledger_bytes / settled if settled else 0.0,
            "loadgen.submitted": stats.submitted,
            "loadgen.retries": stats.retries,
            "loadgen.waves": stats.waves,
        }
        return Sample(
            cpu_s=own + child,
            wall_s=wall,
            child_cpu_s=child,
            ops=settled,
            attempted=self.claims,
            failed=failed,
            problems=problems,
            extras=extras,
        )


WORKLOADS = {
    "fleet-quiet": FleetWorkload,
    "fleet-chaos": FleetWorkload,
    "serve-warm": ServeWorkload,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
