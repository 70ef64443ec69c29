"""Tiered result cache: in-memory LRU in front of the on-disk store.

The service settles the same shard spec many times across replays and
retries; the batch engine already content-addresses shard results on
disk (:class:`~repro.experiments.parallel.ResultCache`).  This tier adds
a bounded in-memory LRU in front of it:

* ``get`` serves memory hits without touching the filesystem, promotes
  disk hits into memory, and counts every outcome honestly
  (``service.cache.hit{tier=memory|disk}`` / ``service.cache.miss``);
* ``put`` inserts at the most-recent end and *writes through* to the
  disk tier (so a warm start is available to any later process, and
  crash-safety is the disk store's atomic-publish guarantee); when the
  memory tier is over capacity the least-recently-used entry is
  dropped from memory only — its durable copy stays one ``get`` away.

Because keys are content-addressed (the full shard spec is hashed into
the key), an entry can never go stale: a config change is a new key.
Sharing the disk directory with the batch engine therefore gives the
service a warm start from any previous ``run_fleet`` — and vice versa —
without any coherence protocol.
"""

from __future__ import annotations

from collections import OrderedDict

from ..experiments.parallel import ResultCache


class TieredCache:
    """Bounded-LRU memory tier over an optional content-addressed disk tier."""

    def __init__(
        self,
        max_entries: int = 64,
        disk: ResultCache | None = None,
        metrics=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"memory tier needs at least one entry, got {max_entries}")
        self.max_entries = max_entries
        self.disk = disk
        self.metrics = metrics
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.spilled = 0
        self.write_errors = 0

    def __len__(self) -> int:
        return len(self._memory)

    def memory_keys(self) -> list[str]:
        """Keys in eviction order: least recently used first."""
        return list(self._memory)

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    def get(self, key: str) -> dict | None:
        """Look up one entry through both tiers; None on a true miss."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits_memory += 1
            self._count("service.cache.hit", tier="memory")
            return entry
        if self.disk is not None:
            data = self.disk.get_data(key)
            if data is not None:
                self.hits_disk += 1
                self._count("service.cache.hit", tier="disk")
                self._insert(key, data)
                return data
        self.misses += 1
        self._count("service.cache.miss")
        return None

    def put(self, key: str, data: dict) -> None:
        """Insert (or refresh) an entry; writes through to the disk tier.

        The write-through is unconditional: content-addressed keys never
        change value, but an overwriting caller must not leave a stale
        durable copy behind (the disk store publishes atomically).
        """
        self._insert(key, data)
        if self.disk is not None and self.disk.put_data(key, data) is None:
            # A failed durable write costs a recompute in a later
            # process, never this one: the memory copy still serves.
            self.write_errors += 1

    def _insert(self, key: str, data: dict) -> None:
        if key in self._memory:
            self._memory.move_to_end(key)
            self._memory[key] = data
            return
        self._memory[key] = data
        while len(self._memory) > self.max_entries:
            # Write-through made the LRU entry durable at put time; only
            # the memory copy goes.
            self._memory.popitem(last=False)
            self.spilled += 1
            self._count("service.cache.spill")
