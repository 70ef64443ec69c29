"""The charging-reconciliation service: ingestion, workers, settlement.

One long-running process on the simulated clock, shaped like a small
network service:

* **Ingestion** (:meth:`ReconciliationService.submit`) admits *claims*
  — plain dicts a vendor would POST — through a synchronous pipeline:
  shape checks, duplicate-id rejection, a per-vendor token bucket, and
  finally bounded-queue admission (:class:`~repro.service.sim_async.QueueFull`
  maps to a ``backpressure`` rejection the caller can retry).
* **Workers** (``config.workers`` coroutines on the sim runtime) drain
  the queue and settle each claim: shard claims are simulated through
  the tiered result cache, PoC claims run Algorithm 2 via
  :class:`~repro.poc.verifier.PublicVerifier`, probe claims are cheap
  no-ops for liveness tests.  A worker never dies on a bad claim — every
  failure becomes a ``service.rejected{reason=...}`` counter.
* **Settlement** streams to a :class:`SettlementLedger` as canonical
  JSON lines.  Shard and per-UE lines are emitted through the
  :class:`~repro.experiments.fleet.FleetAccumulator`'s strictly-ordered
  fold, and PoC receipts are flushed sorted by claim id at
  :meth:`ReconciliationService.close` — so the ledger is bit-identical
  across worker counts, arrival orders and cache states.
* **Durability**: the ledger doubles as a write-ahead journal of
  admissions and outcomes (``accepted`` / ``settled`` / ``unclaimed``
  records).  :meth:`ReconciliationService.resume` replays that journal
  to rebuild a crashed service's state — accepted ids, claimed/settled
  refs, the accumulator fold, pending PoC receipts, and the queue of
  accepted-but-unsettled claims — so a service killed at any point and
  resumed produces the same settlement stream an uninterrupted run
  writes, byte for byte.
* **Pooled settlement** (``config.pool_workers > 0``): the CPU-bound
  shard simulation is offloaded to a process pool behind a
  :class:`~repro.service.pool.SimProcessPool` bridge; the index-ordered
  fold keeps the ledger bit-identical across pool sizes.

Claim schema (all fields required unless noted)::

    {"id": str, "vendor": str, "kind": "shard", "shard": {...},  "ref": str?}
    {"id": str, "vendor": str, "kind": "poc",   "poc": hex, "plan": {...}, "ref": str?}
    {"id": str, "vendor": str, "kind": "probe",                  "ref": str?}

``id`` must be globally unique (duplicates are rejected); ``ref`` names
the *logical* claim so retries (new id, same ref) settle exactly once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..core.plan import DataPlan
from ..crypto.rsa import PublicKey
from ..experiments.fleet import (
    FleetAccumulator,
    FleetConfig,
    FleetResult,
    _simulate_shard_to_dict,
    _usable,
    fleet_shard_key,
    shard_from_dict,
    shard_to_dict,
)
from ..experiments.parallel import ResultCache, RunReport
from ..netsim.events import EventLoop
from ..obs.metrics import MetricsRegistry
from ..poc.messages import PlanParams, Poc
from ..poc.verifier import PublicVerifier
from .cache import TieredCache
from .pool import SimProcessPool
from .ratelimit import TokenBucket
from .sim_async import QueueFull, SimQueue, SimRuntime

CLAIM_KINDS = ("shard", "poc", "probe")

#: Inclusive upper edges (simulated seconds) for the ingest→settle
#: latency histograms, ``service.latency{kind=...}``.
LATENCY_EDGES = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_SHUTDOWN = object()


def make_poc_claim(
    claim_id: str, vendor: str, poc: Poc, plan: PlanParams, ref: str | None = None
) -> dict:
    """Encode a signed PoC (e.g. a multi-operator settlement receipt)
    as a submittable ``poc`` claim."""
    claim = {
        "id": claim_id,
        "vendor": vendor,
        "kind": "poc",
        "poc": poc.encode().hex(),
        "plan": {"t_start": plan.t_start, "t_end": plan.t_end, "c": plan.c},
    }
    if ref is not None:
        claim["ref"] = ref
    return claim


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`ReconciliationService` instance."""

    workers: int = 2
    queue_depth: int = 16
    vendor_rate_hz: float = 8.0
    vendor_burst: float = 16.0
    shard_service_time_s: float = 0.05
    poc_service_time_s: float = 0.005
    probe_service_time_s: float = 0.001
    memory_cache_entries: int = 64
    plan_c: float = 0.5
    cycle_duration_s: float = 3600.0
    #: Process-pool size for shard simulation; 0 settles inline.
    pool_workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {self.queue_depth}")
        if self.pool_workers < 0:
            raise ValueError(
                f"pool_workers must be >= 0, got {self.pool_workers}"
            )
        if self.vendor_rate_hz <= 0:
            raise ValueError(
                f"vendor refill rate must be positive, got {self.vendor_rate_hz}"
            )
        if self.vendor_burst <= 0:
            raise ValueError(
                f"vendor burst must be positive, got {self.vendor_burst}"
            )
        for name in (
            "shard_service_time_s", "poc_service_time_s", "probe_service_time_s"
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Admission:
    """Synchronous answer to one :meth:`ReconciliationService.submit`."""

    accepted: bool
    reason: str | None = None


class SettlementLedger:
    """Durable write-ahead stream: settlement lines plus a recovery journal.

    Two record classes interleave in one append-only file:

    * **Settlement records** (``seq``-keyed, gap-free): the canonical,
      byte-comparable settlement view — ``shard`` / ``ue`` / ``poc``
      fold lines plus the trailing ``aggregate``.  ``lines`` and
      :meth:`text` expose exactly these.
    * **Journal records** (``jseq``-keyed): the write-ahead log of
      admissions and outcomes (``accepted`` / ``settled`` /
      ``unclaimed``) that :meth:`ReconciliationService.resume` replays
      to rebuild in-flight state after a crash.

    Every line is compact, key-sorted JSON, handed to the OS before
    memory records it and fsync'd on :meth:`close` — a killed process
    loses at most the final torn line, which :meth:`resume` trims.  A
    failed write (disk full, I/O error) seals the ledger and re-raises.
    ``write()`` or ``journal()`` after ``close()`` or a failed write
    raises: the memory view and the file are never allowed to diverge
    silently.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.lines: list[str] = []
        self.journal_lines: list[str] = []
        self.path = Path(path) if path is not None else None
        self._fh = self.path.open("wb", buffering=0) if self.path is not None else None
        self._seq = 0
        self._jseq = 0
        #: Settlement lines already durable from a previous incarnation;
        #: writes below this watermark verify against the stored line
        #: instead of appending (resume replays the whole fold).
        self._replay_until = 0
        self._closed = False

    @classmethod
    def resume(cls, path: str | Path) -> "SettlementLedger":
        """Reopen a crashed run's ledger for appending.

        Loads both record classes, drops a torn final line (the partial
        write of the crash) by rewriting the file without it, and arms
        replay-absorb mode: the resumed service re-emits the fold from
        the journal, and :meth:`write` verifies the already-durable
        prefix byte-for-byte before new lines start appending.

        A corrupt line anywhere but the tail raises ``ValueError`` — a
        crash can only tear the last write.
        """
        path = Path(path)
        text = path.read_text() if path.exists() else ""
        raw = text.split("\n")
        tail = raw.pop() if raw else ""
        kept: list[tuple[dict, str]] = []
        for i, line in enumerate(raw, start=1):
            try:
                kept.append((json.loads(line), line))
            except ValueError as exc:
                raise ValueError(
                    f"ledger {path} corrupt at line {i}: {line[:80]!r}"
                ) from exc
        if tail:
            # A complete JSON object missing only its newline survived
            # the crash intact; anything else is the torn write.
            try:
                kept.append((json.loads(tail), tail))
            except ValueError:
                pass
        ledger = cls.__new__(cls)
        ledger.path = path
        ledger.lines = [line for rec, line in kept if "seq" in rec]
        ledger.journal_lines = [line for rec, line in kept if "jseq" in rec]
        ledger._seq = 0
        ledger._jseq = len(ledger.journal_lines)
        ledger._replay_until = len(ledger.lines)
        ledger._closed = False
        with path.open("w") as fh:
            for _, line in kept:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        ledger._fh = path.open("ab", buffering=0)
        return ledger

    def journal_records(self) -> list[dict]:
        """Parsed journal records, oldest first."""
        return [json.loads(line) for line in self.journal_lines]

    def _append(self, line: str) -> None:
        """Put one line in the file before memory records it.

        The file is unbuffered, so no part of a failed line lingers to
        be flushed later: the file then ends in at most a torn prefix,
        which :meth:`resume` trims.  A failed write seals the ledger and
        re-raises, so memory never runs ahead of the disk.
        """
        if self._fh is None:
            return
        data = memoryview((line + "\n").encode())
        try:
            while data:
                data = data[self._fh.write(data):]
        except OSError:
            self._closed = True
            self._fh.close()
            self._fh = None
            raise

    def write(self, record: dict) -> None:
        """Append one settlement record as a canonical JSON line."""
        if self._closed:
            raise RuntimeError("settlement ledger is closed")
        line = json.dumps(
            {"seq": self._seq, **record}, sort_keys=True, separators=(",", ":")
        )
        if self._seq < self._replay_until:
            if line != self.lines[self._seq]:
                raise ValueError(
                    f"resume replay diverged at seq {self._seq}: "
                    f"regenerated {line[:80]!r} != durable "
                    f"{self.lines[self._seq][:80]!r}"
                )
            self._seq += 1
            return
        self._append(line)
        self._seq += 1
        self.lines.append(line)

    def journal(self, record: dict) -> None:
        """Append one write-ahead journal record."""
        if self._closed:
            raise RuntimeError("settlement ledger is closed")
        line = json.dumps(
            {"jseq": self._jseq, **record}, sort_keys=True, separators=(",", ":")
        )
        self._append(line)
        self._jseq += 1
        self.journal_lines.append(line)

    def text(self) -> str:
        """The settlement view as newline-terminated text."""
        return "".join(line + "\n" for line in self.lines)

    def close(self) -> None:
        """Seal the ledger: fsync + close the file mirror, refuse writes."""
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


class ReconciliationService:
    """The reconciliation service; see the module docstring for shape.

    Drive it like any other simulated process: ``start()``, submit
    claims from event-loop callbacks, run the loop, then ``close()``
    once the loop has drained.
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        config: ServiceConfig | None = None,
        disk_cache: ResultCache | None = None,
        ledger: SettlementLedger | None = None,
        vendor_keys: dict[str, tuple[PublicKey, PublicKey]] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.loop = loop if loop is not None else EventLoop()
        self.config = config if config is not None else ServiceConfig()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(clock=self.loop.now)
        )
        self.runtime = SimRuntime(self.loop)
        self.queue = SimQueue(self.config.queue_depth)
        self.cache = TieredCache(
            self.config.memory_cache_entries, disk_cache, self.metrics
        )
        self.ledger = ledger if ledger is not None else SettlementLedger()
        self.report = RunReport()
        self.verifier = PublicVerifier(
            DataPlan(
                c=self.config.plan_c, cycle_duration_s=self.config.cycle_duration_s
            ),
            metrics=self.metrics,
        )
        # vendor -> (edge public key, operator public key) for PoC claims.
        self.vendor_keys = dict(vendor_keys or {})
        self.buckets: dict[str, TokenBucket] = {}
        self.rejections: dict[str, int] = {}
        self.accumulator = FleetAccumulator(
            ue_sink=self._emit_ue, shard_sink=self._emit_shard
        )
        self.pool = (
            SimProcessPool(self.config.pool_workers)
            if self.config.pool_workers
            else None
        )
        self._accepted_ids: set[str] = set()
        self._claimed_refs: set[str] = set()
        self._settled_refs: set[str] = set()
        self._folded_indices: set[int] = set()
        self._poc_receipts: list[dict] = []
        self._ingest_t: dict[str, float] = {}
        self._workers = []
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Spawn the worker coroutines (idempotence is an error)."""
        if self._workers:
            raise RuntimeError("service already started")
        for index in range(self.config.workers):
            self._workers.append(
                self.runtime.spawn(self._worker(index), name=f"settle-worker-{index}")
            )

    def close(self) -> None:
        """Gracefully shut down: drain, stop workers, flush deferred lines.

        Safe to call with a backlog still queued: new submissions are
        refused, the shutdown sentinels enqueue *behind* the remaining
        claims (``force_put`` never overflows the bounded queue), and
        the loop is drained so workers settle the backlog before they
        exit.  Only then are the PoC receipts flushed.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self.queue.force_put(_SHUTDOWN)
        self.drain()
        if self.pool is not None:
            self.pool.shutdown()
        # PoC receipts settle in worker-completion order, which depends on
        # the worker count; sorting by claim id at flush time restores the
        # ledger's bit-identity guarantee.
        # The ledger itself stays open: its owner may append a trailing
        # aggregate record (see loadgen) before closing the stream.
        for receipt in sorted(self._poc_receipts, key=lambda r: r["id"]):
            self.ledger.write(receipt)

    def drain(self) -> None:
        """Run the loop until both it and the settlement pool are idle.

        With ``pool_workers == 0`` this is exactly ``loop.run()``; with
        a pool, workers parked on in-flight simulations resume as
        results arrive and the loop re-runs until nothing is pending on
        either side.
        """
        while True:
            self.loop.run()
            if self.pool is None or not self.pool.pending():
                return
            self.pool.wait_next()

    def crashed_workers(self) -> list:
        """Worker tasks that died with an exception (should stay empty)."""
        return self.runtime.crashed_tasks()

    @classmethod
    def resume(
        cls,
        ledger_path: str | Path,
        loop: EventLoop | None = None,
        config: ServiceConfig | None = None,
        disk_cache: ResultCache | None = None,
        vendor_keys: dict[str, tuple[PublicKey, PublicKey]] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "ReconciliationService":
        """Rebuild a crashed service from its on-disk ledger journal.

        Replays the ``accepted``/``settled``/``unclaimed`` records to
        restore accepted ids, claimed/settled refs, folded shard
        indices, the accumulator fold (absorbed byte-for-byte against
        the durable settlement prefix), pending PoC receipts, and the
        queue of accepted-but-unsettled claims, in journal order.

        Token buckets and the event loop start fresh — rate limiting is
        an admission policy of the live process, not recoverable state.
        Likewise latency samples: a resumed claim's ingest time died
        with the old process, so it is settled without an observation.

        Returns an unstarted service; call :meth:`start`, drive the
        loop (e.g. :meth:`drain`), then :meth:`close` as usual.
        """
        ledger = SettlementLedger.resume(ledger_path)
        service = cls(
            loop=loop,
            config=config,
            disk_cache=disk_cache,
            ledger=ledger,
            vendor_keys=vendor_keys,
            metrics=metrics,
        )
        service._replay_journal(ledger.journal_records())
        return service

    def _replay_journal(self, records: list[dict]) -> None:
        pending: dict[str, dict] = {}
        completed: set[str] = set()
        for record in records:
            rtype = record["type"]
            if rtype == "accepted":
                self._accepted_ids.add(record["id"])
                pending[record["id"]] = record["claim"]
            elif rtype == "settled":
                completed.add(record["id"])
                ref, kind = record["ref"], record["kind"]
                self._claimed_refs.add(ref)
                self._settled_refs.add(ref)
                self.metrics.counter("service.settled", kind=kind).inc()
                if kind == "shard":
                    data = record["data"]
                    self._folded_indices.add(int(record["index"]))
                    # Re-warm the tiers too: a post-resume duplicate
                    # submission of this shard should hit, not simulate.
                    self.cache.put(record["key"], data)
                    self.accumulator.add(data)
                elif kind == "poc":
                    self._poc_receipts.append(record["receipt"])
            elif rtype == "unclaimed":
                completed.add(record["id"])
        # Journal order is admission order; anything accepted without a
        # recorded outcome went down with the process — requeue it.
        for claim_id, claim in pending.items():
            if claim_id not in completed:
                self.queue.force_put(claim)
        self.metrics.gauge("service.queue.depth").set(self.queue.qsize())

    # ------------------------------------------------------------ ingestion

    def _bucket(self, vendor: str) -> TokenBucket:
        bucket = self.buckets.get(vendor)
        if bucket is None:
            bucket = self.buckets[vendor] = TokenBucket(
                self.config.vendor_rate_hz, self.config.vendor_burst
            )
        return bucket

    def _reject(self, reason: str) -> Admission:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        self.metrics.counter("service.rejected", reason=reason).inc()
        return Admission(False, reason)

    def submit(self, claim) -> Admission:
        """Admit one claim; synchronous, safe to call from loop callbacks.

        Pipeline order matters: shape checks and duplicate detection are
        free, the token bucket spends only when the claim could actually
        be enqueued, and a full queue surfaces as ``backpressure`` (the
        token is forfeit — a retrying caller pays for the pressure it
        adds).
        """
        if self._closed:
            return self._reject("closed")
        if not isinstance(claim, dict):
            return self._reject("malformed")
        claim_id = claim.get("id")
        vendor = claim.get("vendor")
        if not isinstance(claim_id, str) or not claim_id:
            return self._reject("malformed")
        if not isinstance(vendor, str) or not vendor:
            return self._reject("malformed")
        if claim.get("kind") not in CLAIM_KINDS:
            return self._reject("unknown-kind")
        if claim_id in self._accepted_ids:
            return self._reject("duplicate")
        try:
            json.dumps(claim)
        except (TypeError, ValueError):
            # The write-ahead journal is JSON lines; a claim that cannot
            # ride it cannot be made crash-safe, so it is not admitted.
            return self._reject("malformed")
        if not self._bucket(vendor).try_acquire(self.loop.now()):
            return self._reject("rate-limited")
        try:
            self.queue.put_nowait(claim)
        except QueueFull:
            return self._reject("backpressure")
        self._accepted_ids.add(claim_id)
        self._ingest_t[claim_id] = self.loop.now()
        self.ledger.journal(
            {
                "type": "accepted",
                "id": claim_id,
                "vendor": vendor,
                "kind": claim["kind"],
                "t": self.loop.now(),
                "claim": claim,
            }
        )
        self.metrics.counter("service.ingested", vendor=vendor).inc()
        self.metrics.gauge("service.queue.depth").set(self.queue.qsize())
        return Admission(True)

    # ------------------------------------------------------------- workers

    async def _worker(self, index: int) -> None:
        while True:
            claim = await self.queue.get()
            self.metrics.gauge("service.queue.depth").set(self.queue.qsize())
            if claim is _SHUTDOWN:
                return
            try:
                await self._settle(claim)
            except Exception as error:
                # Degrade, never die: a poisoned claim costs one rejection.
                self._reject("internal-error")
                self.metrics.counter(
                    "service.errors", type=type(error).__name__
                ).inc()
                self._ingest_t.pop(claim.get("id"), None)
                self.ledger.journal(
                    {
                        "type": "unclaimed",
                        "id": claim.get("id"),
                        "ref": claim.get("ref", claim.get("id")),
                        "reason": "internal-error",
                    }
                )

    async def _settle(self, claim: dict) -> None:
        kind = claim["kind"]
        ref = claim.get("ref", claim["id"])
        if not isinstance(ref, str) or not ref:
            self._reject("malformed")
            self._journal_outcome(claim, None, "malformed")
            return
        if ref in self._claimed_refs:
            # A retry raced its settled (or in-flight) twin.
            self._reject("duplicate")
            self._journal_outcome(claim, ref, "duplicate")
            return
        self._claimed_refs.add(ref)
        with self.metrics.span("service.settle", kind=kind):
            if kind == "shard":
                await self._settle_shard(claim, ref)
            elif kind == "poc":
                await self._settle_poc(claim, ref)
            else:
                await self.runtime.sleep(self.config.probe_service_time_s)
                self.ledger.journal(
                    {
                        "type": "settled",
                        "kind": "probe",
                        "id": claim["id"],
                        "ref": ref,
                    }
                )
                self._mark_settled(ref, "probe", claim["id"])

    def _mark_settled(self, ref: str, kind: str, claim_id: str) -> None:
        self._settled_refs.add(ref)
        self.metrics.counter("service.settled", kind=kind).inc()
        ingested_at = self._ingest_t.pop(claim_id, None)
        if ingested_at is not None:
            self.metrics.histogram(
                "service.latency", LATENCY_EDGES, kind=kind
            ).observe(self.loop.now() - ingested_at)

    def _journal_outcome(self, claim: dict, ref, reason: str) -> None:
        self._ingest_t.pop(claim.get("id"), None)
        self.ledger.journal(
            {
                "type": "unclaimed",
                "id": claim.get("id"),
                "ref": ref if isinstance(ref, str) else None,
                "reason": reason,
            }
        )

    def _unclaim(self, claim: dict, ref: str, reason: str) -> None:
        # Failure may be transient (e.g. the payload was corrupted in
        # flight); release the ref so a clean retry can settle it.
        self._claimed_refs.discard(ref)
        self._reject(reason)
        self._journal_outcome(claim, ref, reason)

    async def _settle_shard(self, claim: dict, ref: str) -> None:
        try:
            shard = shard_from_dict(claim["shard"])
        except Exception:
            self._unclaim(claim, ref, "malformed-shard")
            return
        await self.runtime.sleep(self.config.shard_service_time_s)
        key = fleet_shard_key(shard)
        data = self.cache.get(key)
        if _usable(data):
            self.report.cached += 1
        else:
            if self.pool is not None:
                data = await self.pool.submit(
                    _simulate_shard_to_dict, shard_to_dict(shard)
                )
            else:
                data = _simulate_shard_to_dict(shard_to_dict(shard))
            self.cache.put(key, data)
            self.report.simulated += 1
        if shard.index in self._folded_indices:
            self._unclaim(claim, ref, "duplicate")
            return
        self._folded_indices.add(shard.index)
        # Write-ahead: the full shard result rides the journal *before*
        # any fold line hits the ledger, so a crash mid-fold resumes
        # from the journal and regenerates the missing settlement tail.
        self.ledger.journal(
            {
                "type": "settled",
                "kind": "shard",
                "id": claim["id"],
                "ref": ref,
                "index": shard.index,
                "key": key,
                "data": data,
            }
        )
        self.accumulator.add(data)
        self._mark_settled(ref, "shard", claim["id"])

    async def _settle_poc(self, claim: dict, ref: str) -> None:
        keys = self.vendor_keys.get(claim["vendor"])
        if keys is None:
            self._unclaim(claim, ref, "unknown-vendor")
            return
        try:
            poc = Poc.decode(bytes.fromhex(claim["poc"]))
            plan_fields = claim["plan"]
            plan = PlanParams(
                float(plan_fields["t_start"]),
                float(plan_fields["t_end"]),
                float(plan_fields["c"]),
            )
        except Exception:
            self._unclaim(claim, ref, "malformed-poc")
            return
        await self.runtime.sleep(self.config.poc_service_time_s)
        edge_key, operator_key = keys
        report = self.verifier.verify(poc, plan, edge_key, operator_key)
        if not report.ok:
            self._unclaim(claim, ref, f"poc-{report.failure.value}")
            return
        receipt = {
            "type": "poc",
            "id": claim["id"],
            "ref": ref,
            "vendor": claim["vendor"],
            "volume": report.volume,
            "edge_claim": report.edge_claim,
            "operator_claim": report.operator_claim,
        }
        self.ledger.journal(
            {
                "type": "settled",
                "kind": "poc",
                "id": claim["id"],
                "ref": ref,
                "receipt": receipt,
            }
        )
        self._poc_receipts.append(receipt)
        self._mark_settled(ref, "poc", claim["id"])

    # ----------------------------------------------------------- settlement

    def _emit_shard(self, data: dict) -> None:
        self.ledger.write(
            {
                "type": "shard",
                "index": int(data["shard_index"]),
                "ues": len(data["ues"]),
            }
        )

    def _emit_ue(self, row: dict) -> None:
        self.ledger.write({"type": "ue", **row})

    def is_settled(self, ref: str) -> bool:
        """Whether the logical claim ``ref`` has settled."""
        return ref in self._settled_refs

    def settled_count(self) -> int:
        """Logical claims settled so far."""
        return len(self._settled_refs)

    def fleet_result(self, fleet: FleetConfig) -> FleetResult:
        """Seal the shard accumulator into a batch-identical aggregate.

        Raises ``ValueError`` if any shard claim never settled — callers
        should check coverage (e.g. via retry waves) first.
        """
        return self.accumulator.finalize(fleet, self.report)
