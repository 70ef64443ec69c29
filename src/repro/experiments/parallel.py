"""Process-pool scenario execution with a content-addressed result cache.

The paper's evaluation is an embarrassingly parallel sweep: every figure
and table runs many independent (workload × network-condition) scenarios,
each already deterministic given its :class:`ScenarioConfig` — the runner
builds a fresh :class:`~repro.netsim.events.EventLoop` and derives every
random stream from ``StreamRegistry(config.seed)``, so a scenario's result
depends on nothing outside its config.  This module exploits both facts:

* :func:`run_scenarios` fans configs out over a process pool; results are
  shipped across the process boundary through an explicit dataclass↔dict
  codec (live results reference simulator objects, so we serialize the
  record content, not the object graph).  Per-scenario determinism makes
  parallel results bit-identical to serial ones.
* :class:`ResultCache` stores the same codec output on disk under a
  content-addressed key — a stable hash of the full ``ScenarioConfig``
  plus a codec version.  Re-running a figure benchmark only simulates
  scenarios whose config (or the codec) changed; everything else is a
  cache hit.  Invalidation is by key: any config field change, or a bump
  of :data:`CODEC_VERSION`, produces a new key and the stale entry is
  simply never read again.

Module-level defaults (set by :func:`configure`, seeded from the
``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` environment variables) let the
CLI and the benchmark harness opt whole sweeps in without threading
options through every figure function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..cellular.radio import RssSample
from ..core.gap import SchemeOutcome
from ..core.plan import ChargingCycle
from ..core.records import CycleUsage
from ..netsim.faults import FAULT_PROFILES, FaultEvent, FaultSchedule, FaultTrace
from ..netsim.packet import Direction, Transport
from ..netsim.rng import StreamRegistry
from ..obs import MetricsSnapshot
from ..workloads.base import WorkloadProfile
from .runner import ScenarioResult, run_scenario
from .scenarios import ScenarioConfig

#: Bump when the codec or anything influencing simulation output changes;
#: every cache key embeds it, so old entries stop matching.
#: v2: ScenarioConfig.faults + ScenarioResult.fault_trace.
#: v3: ScenarioResult.metrics (observability snapshot).
#: v4: handover interruptions go through the radio's outage bookkeeping
#:     (outage gauges change for handover scenarios).
#: v5: ScenarioConfig.quota_bytes/quota_throttle_bps (PCRF throttling)
#:     and kernel.fallback counters in metrics snapshots.
CODEC_VERSION = 5


# ------------------------------------------------------------------ codec


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-safe dict for a :class:`ScenarioConfig` (enums → values)."""
    encoded = dataclasses.asdict(config)
    encoded["direction"] = config.direction.value
    encoded["workload"] = dict(encoded["workload"])
    encoded["workload"]["transport"] = config.workload.transport.value
    encoded["faults"] = None if config.faults is None else config.faults.to_dict()
    return encoded


#: Known dataclass fields, used to drop unknown keys on decode: an older
#: binary reading a newer cache directory (a forward-version entry with
#: extra config fields) must treat the entry as decodable-or-miss, never
#: crash the sweep with a ``TypeError`` from ``ScenarioConfig(**...)``.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ScenarioConfig))
_WORKLOAD_FIELDS = frozenset(f.name for f in dataclasses.fields(WorkloadProfile))


def config_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are ignored."""
    decoded = {k: v for k, v in data.items() if k in _CONFIG_FIELDS}
    workload = {k: v for k, v in data["workload"].items() if k in _WORKLOAD_FIELDS}
    workload["transport"] = Transport(workload["transport"])
    decoded["workload"] = WorkloadProfile(**workload)
    decoded["direction"] = Direction(decoded["direction"])
    faults = decoded.get("faults")
    decoded["faults"] = None if faults is None else FaultSchedule.from_dict(faults)
    return ScenarioConfig(**decoded)


def result_to_dict(result: ScenarioResult) -> dict:
    """Serialize a :class:`ScenarioResult` for IPC or the on-disk cache."""
    return {
        "version": CODEC_VERSION,
        "config": config_to_dict(result.config),
        "usages": [
            {
                "cycle": [u.cycle.t_start, u.cycle.t_end],
                "direction": u.direction.value,
                "flow_id": u.flow_id,
                "true_sent": u.true_sent,
                "true_received": u.true_received,
                "gateway_count": u.gateway_count,
                "edge_sent_record": u.edge_sent_record,
                "edge_received_estimate": u.edge_received_estimate,
                "operator_received_record": u.operator_received_record,
                "operator_sent_estimate": u.operator_sent_estimate,
            }
            for u in result.usages
        ],
        "outcomes": {
            scheme: [
                {"scheme": o.scheme, "charged": o.charged,
                 "expected": o.expected, "rounds": o.rounds}
                for o in outcomes
            ]
            for scheme, outcomes in result.outcomes.items()
        },
        "measured_bitrate_bps": result.measured_bitrate_bps,
        "rss_history": [
            [s.t, s.rss_dbm, s.connected] for s in result.rss_history
        ],
        "fault_trace": [
            [e.t, e.kind, e.point, e.detail] for e in result.fault_trace.events
        ],
        "metrics": result.metrics.to_dict(),
    }


def result_from_dict(data: dict) -> ScenarioResult:
    """Inverse of :func:`result_to_dict`."""
    if data.get("version") != CODEC_VERSION:
        raise ValueError(
            f"result codec version {data.get('version')!r} != {CODEC_VERSION}"
        )
    usages = [
        CycleUsage(
            cycle=ChargingCycle(u["cycle"][0], u["cycle"][1]),
            direction=Direction(u["direction"]),
            flow_id=u["flow_id"],
            true_sent=u["true_sent"],
            true_received=u["true_received"],
            gateway_count=u["gateway_count"],
            edge_sent_record=u["edge_sent_record"],
            edge_received_estimate=u["edge_received_estimate"],
            operator_received_record=u["operator_received_record"],
            operator_sent_estimate=u["operator_sent_estimate"],
        )
        for u in data["usages"]
    ]
    outcomes = {
        scheme: [
            SchemeOutcome(o["scheme"], o["charged"], o["expected"], o["rounds"])
            for o in rows
        ]
        for scheme, rows in data["outcomes"].items()
    }
    return ScenarioResult(
        config=config_from_dict(data["config"]),
        usages=usages,
        outcomes=outcomes,
        measured_bitrate_bps=data["measured_bitrate_bps"],
        rss_history=[RssSample(t, rss, conn) for t, rss, conn in data["rss_history"]],
        fault_trace=FaultTrace(
            FaultEvent(t, kind, point, detail)
            for t, kind, point, detail in data.get("fault_trace", ())
        ),
        metrics=MetricsSnapshot.from_dict(data.get("metrics", {})),
    )


# ------------------------------------------------------------ seeding/keys


def derive_seed(base_seed: int, salt: str) -> int:
    """A per-scenario seed from a sweep's base seed and a stable salt.

    Uses the same SHA-256 derivation as :meth:`StreamRegistry.fork`, so a
    sweep can hand every scenario an independent, reproducible seed that
    is identical however the sweep is partitioned across processes.
    """
    return StreamRegistry(base_seed).fork(salt).seed


def scenario_key(config: ScenarioConfig) -> str:
    """Content-addressed cache key: stable hash of the full config."""
    canonical = json.dumps(
        {"codec": CODEC_VERSION, "config": config_to_dict(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ------------------------------------------------------------------- cache


class ResultCache:
    """On-disk run results, content-addressed by a caller-supplied key.

    One JSON file per entry under ``directory``; scenario sweeps key
    entries with :func:`scenario_key`, the fleet engine with its shard
    key.  Unreadable or version-mismatched entries are treated as misses
    and removed, so a corrupt cache can never poison a sweep.

    Publishing is concurrency-safe: each writer stages through its own
    unique temp file (pid + uuid) in the cache directory and atomically
    renames it over the final path.  A shared temp name would let two
    processes caching the same key interleave writes before ``replace()``
    and publish garbage.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------- key-based API

    def path_for_key(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def has(self, key: str) -> bool:
        """Cheap existence probe (no parse; the entry may still be corrupt)."""
        return self.path_for_key(key).is_file()

    def get_data(self, key: str) -> dict | None:
        """Load one entry's decoded JSON, or None (and drop it) if unusable."""
        path = self.path_for_key(key)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # Corrupt/truncated entries are a miss, never a crash.
            path.unlink(missing_ok=True)
            return None
        if not isinstance(data, dict):
            path.unlink(missing_ok=True)
            return None
        return data

    def put_data(self, key: str, data: dict) -> Path | None:
        """Atomically publish one entry via a writer-unique temp file.

        A failed write (disk full, I/O error) publishes nothing, leaves no
        temp file behind and returns None: the cache is only an
        optimization, so a failed publish costs a recompute later, never
        the caller's run.
        """
        path = self.path_for_key(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(data, separators=(",", ":")))
            tmp.replace(path)  # atomic publish: readers never see partial JSON
        except OSError:
            return None
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        return path

    # ---------------------------------------------------- scenario-keyed API

    def path_for(self, config: ScenarioConfig) -> Path:
        return self.path_for_key(scenario_key(config))

    def get(self, config: ScenarioConfig) -> ScenarioResult | None:
        key = scenario_key(config)
        data = self.get_data(key)
        if data is None:
            return None
        try:
            return result_from_dict(data)
        except (ValueError, KeyError, TypeError, IndexError):
            self.path_for_key(key).unlink(missing_ok=True)
            return None

    def put(self, config: ScenarioConfig, result: ScenarioResult) -> Path | None:
        return self.put_data(scenario_key(config), result_to_dict(result))


# ------------------------------------------------------------------ engine


@dataclass
class RunReport:
    """Where each scenario of the last :func:`run_scenarios` came from."""

    simulated: int = 0
    cached: int = 0
    #: Results whose cache publish failed (see :meth:`ResultCache.put_data`).
    cache_write_errors: int = 0

    @property
    def total(self) -> int:
        return self.simulated + self.cached


_default_workers = 0
_default_cache: ResultCache | None = None
_default_faults: FaultSchedule | None = None


def resolve_fault_profile(profile: FaultSchedule | str | None) -> FaultSchedule | None:
    """Accept a schedule, a named profile, or None; reject unknown names."""
    if profile is None or isinstance(profile, FaultSchedule):
        return profile
    try:
        schedule = FAULT_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r} (know {', '.join(FAULT_PROFILES)})"
        ) from None
    return None if schedule.is_empty else schedule


def configure(
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    fault_profile: FaultSchedule | str | None = None,
) -> None:
    """Set process-count, cache and chaos defaults for subsequent sweeps.

    ``workers=0``/``1`` means serial; ``cache_dir=None`` disables the
    cache.  ``fault_profile`` (a :class:`FaultSchedule` or a name from
    :data:`~repro.netsim.faults.FAULT_PROFILES`) is stamped onto every
    config that doesn't carry its own schedule, *before* cache lookup —
    so chaos runs occupy distinct cache entries and parallel workers see
    the faults inside the config they receive.  Called by the CLI
    (``--workers``/``--cache-dir``/``--fault-profile``) and the benchmark
    harness; initial values come from the ``REPRO_WORKERS``,
    ``REPRO_CACHE_DIR`` and ``REPRO_FAULT_PROFILE`` environment variables.
    """
    global _default_workers, _default_cache, _default_faults
    _default_workers = int(workers) if workers is not None else 0
    _default_cache = ResultCache(cache_dir) if cache_dir else None
    _default_faults = resolve_fault_profile(fault_profile)


def apply_default_faults(config: ScenarioConfig) -> ScenarioConfig:
    """Stamp the configured default fault schedule onto a plain config."""
    if _default_faults is None or config.faults is not None:
        return config
    return config.with_(faults=_default_faults)


configure(
    workers=int(os.environ.get("REPRO_WORKERS", "0") or 0),
    cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    fault_profile=os.environ.get("REPRO_FAULT_PROFILE") or None,
)


def _simulate_to_dict(config_data: dict) -> dict:
    """Pool worker: decode the config, simulate, encode the result."""
    return result_to_dict(run_scenario(config_from_dict(config_data)))


def run_scenarios(
    configs: list[ScenarioConfig] | tuple[ScenarioConfig, ...],
    workers: int | None = None,
    cache: ResultCache | None | bool = True,
    report: RunReport | None = None,
) -> list[ScenarioResult]:
    """Run a batch of scenarios, in input order, as fast as allowed.

    Cache hits are returned without simulating; misses run either inline
    (``workers`` ≤ 1, or a single miss) or on a process pool.  Parallel
    and serial execution produce bit-identical results: every scenario is
    seeded solely from its own config.

    ``cache=True`` uses the configured default cache (possibly none),
    ``cache=None``/``False`` disables caching for this call, and an
    explicit :class:`ResultCache` overrides the default.  ``report``, if
    given, is filled with simulated/cached counts.
    """
    if cache is True:
        cache = _default_cache
    elif cache is False:
        cache = None
    n_workers = _default_workers if workers is None else int(workers)
    configs = [apply_default_faults(config) for config in configs]
    results: list[ScenarioResult | None] = [None] * len(configs)

    misses: list[int] = []
    for i, config in enumerate(configs):
        hit = cache.get(config) if cache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)
    if report is not None:
        report.cached += len(configs) - len(misses)
        report.simulated += len(misses)

    if misses:
        if n_workers <= 1 or len(misses) == 1:
            fresh = [run_scenario(configs[i]) for i in misses]
        else:
            with ProcessPoolExecutor(max_workers=min(n_workers, len(misses))) as pool:
                encoded = pool.map(
                    _simulate_to_dict, [config_to_dict(configs[i]) for i in misses]
                )
                fresh = [result_from_dict(data) for data in encoded]
        for i, result in zip(misses, fresh):
            results[i] = result
            if cache is not None and cache.put(configs[i], result) is None and report is not None:
                report.cache_write_errors += 1

    return results  # type: ignore[return-value]  # every slot is filled
