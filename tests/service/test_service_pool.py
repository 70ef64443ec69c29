"""Pooled settlement: CPU-parallel shard simulation, same bytes out.

``SimProcessPool`` bridges concurrent futures onto SimFutures so settle
workers can ``await`` real process-pool simulations; the index-ordered
fold keeps the ledger and aggregate bit-identical to the inline path
whatever the pool size — including across a kill-and-resume.
"""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.fleet import FleetConfig
from repro.service import (
    ReplayConfig,
    ServiceConfig,
    SettlementLedger,
    SimProcessPool,
    replay_fleet,
    resume_fleet_replay,
)

FLEET = FleetConfig(ues=16, shard_size=2, seed=5, n_cycles=1, cycle_duration_s=10.0)
REPLAY = ReplayConfig(duration_s=30.0)


def _square(x):
    # Must live at module level: it crosses the process boundary.
    return x * x


def _explode(message):
    raise ValueError(message)


def _die_once(marker, value):
    # Kills its worker process on the first call only (the marker file
    # survives the process); the retry then returns normally.
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value


def _die(value):
    os._exit(1)


class TestSimProcessPool:
    def test_bridges_resolve_with_results(self):
        pool = SimProcessPool(2)
        futures = [pool.submit(_square, n) for n in range(5)]
        assert pool.pending() == 5
        while pool.pending():
            pool.wait_next()
        assert [f.result() for f in futures] == [0, 1, 4, 9, 16]
        pool.shutdown()

    def test_exception_propagates_to_bridge(self):
        pool = SimProcessPool(1)
        future = pool.submit(_explode, "boom")
        while pool.pending():
            pool.wait_next()
        assert isinstance(future.exception(), ValueError)
        assert "boom" in str(future.exception())
        pool.shutdown()

    def test_dead_worker_costs_a_retry(self, tmp_path):
        pool = SimProcessPool(1)
        future = pool.submit(_die_once, str(tmp_path / "died"), 7)
        while pool.pending():
            pool.wait_next()
        assert future.result() == 7
        # The pool is whole again: the next submit runs normally.
        after = pool.submit(_square, 3)
        while pool.pending():
            pool.wait_next()
        assert after.result() == 9
        pool.shutdown()

    def test_call_that_always_kills_its_worker_fails_after_one_retry(self):
        pool = SimProcessPool(1)
        future = pool.submit(_die, 1)
        while pool.pending():
            pool.wait_next()
        assert isinstance(future.exception(), BrokenProcessPool)
        pool.shutdown()

    def test_executor_is_lazy_and_shutdown_idempotent(self):
        pool = SimProcessPool(2)
        assert pool._executor is None  # no processes forked until needed
        pool.shutdown()
        pool.shutdown()

    def test_rejects_non_positive_worker_count(self):
        with pytest.raises(ValueError):
            SimProcessPool(0)


class TestPooledParity:
    @pytest.fixture(scope="class")
    def inline_run(self):
        result, stats, service = replay_fleet(FLEET, REPLAY)
        assert stats.dropped == 0 and result is not None
        return result, service

    @pytest.mark.parametrize("pool_workers", [1, 2])
    def test_ledger_bit_identical_across_pool_sizes(self, inline_run, pool_workers):
        inline_result, inline_service = inline_run
        result, stats, service = replay_fleet(
            FLEET,
            REPLAY,
            service_config=ServiceConfig(workers=2, pool_workers=pool_workers),
        )
        assert stats.dropped == 0 and result is not None
        assert service.crashed_workers() == []
        assert service.ledger.text() == inline_service.ledger.text()
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            inline_result.to_dict(), sort_keys=True
        )
        # Cold caches: every shard really went through the pool.
        assert service.report.simulated == 8

    def test_kill_and_resume_with_pool(self, inline_run, tmp_path):
        _, inline_service = inline_run
        pooled = ServiceConfig(pool_workers=2)
        path = tmp_path / "full.jsonl"
        _, stats, _ = replay_fleet(
            FLEET, REPLAY, service_config=pooled, ledger=SettlementLedger(path)
        )
        assert stats.dropped == 0
        raw = path.read_bytes()
        wounded = tmp_path / "wounded.jsonl"
        wounded.write_bytes(raw[: len(raw) // 2])
        result, stats2, service = resume_fleet_replay(
            FLEET, wounded, replay=REPLAY, service_config=pooled
        )
        assert stats2.dropped == 0 and result is not None
        assert service.ledger.text() == inline_service.ledger.text()
