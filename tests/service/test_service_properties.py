"""Property tests: tiered cache, token buckets, eventual consistency."""

import tempfile
from collections import OrderedDict

from hypothesis import given, strategies as st

from repro.experiments.parallel import ResultCache
from repro.netsim.events import EventLoop
from repro.service import ReconciliationService, ServiceConfig, TieredCache, TokenBucket

KEYS = st.sampled_from([f"k{i}" for i in range(8)])

# An op is ("get", key) or ("put", key, payload-int).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("put"), KEYS, st.integers(0, 99)),
    ),
    max_size=60,
)


class TestTieredCacheModel:
    @given(ops=OPS, capacity=st.integers(1, 6))
    def test_matches_lru_model_and_counts_honestly(self, ops, capacity):
        cache = TieredCache(max_entries=capacity)
        model: OrderedDict = OrderedDict()
        gets = hits = 0
        for op in ops:
            if op[0] == "get":
                gets += 1
                got = cache.get(op[1])
                if op[1] in model:
                    model.move_to_end(op[1])
                    hits += 1
                    assert got == model[op[1]]
                else:
                    assert got is None
            else:
                _, key, payload = op
                value = {"payload": payload}
                cache.put(key, value)
                if key in model:
                    model.move_to_end(key)
                model[key] = value
                while len(model) > capacity:
                    model.popitem(last=False)
        assert cache.memory_keys() == list(model)
        assert cache.hits_memory == hits
        assert cache.misses == gets - hits
        assert cache.hits_disk == 0  # no disk tier attached

    @given(ops=OPS, capacity=st.integers(1, 4))
    def test_disk_tier_round_trips_evicted_entries(self, ops, capacity):
        puts = {}
        with tempfile.TemporaryDirectory() as tmp:
            cache = TieredCache(max_entries=capacity, disk=ResultCache(tmp))
            for op in ops:
                if op[0] == "put":
                    _, key, payload = op
                    puts[key] = {"payload": payload}
                    cache.put(key, puts[key])
            # Whatever was ever put — evicted from memory or not — must
            # come back exactly, and from *some* tier.
            for key, value in puts.items():
                assert cache.get(key) == value
            assert cache.hits_memory + cache.hits_disk == len(puts)
            assert len(cache) <= capacity

    def test_failed_disk_write_is_tolerated(self, tmp_path, full_disk):
        """A failed write-through is counted; the memory copy serves."""
        cache = TieredCache(max_entries=2, disk=ResultCache(tmp_path))
        full_disk(tmp_path)
        cache.put("k", {"v": 1})
        assert cache.write_errors == 1
        assert cache.get("k") == {"v": 1}
        assert list(tmp_path.iterdir()) == []

    @given(capacity=st.integers(1, 5), n=st.integers(1, 20))
    def test_spill_counter_equals_evictions(self, capacity, n):
        cache = TieredCache(max_entries=capacity)
        for i in range(n):
            cache.put(f"key-{i}", {"i": i})
        assert cache.spilled == max(0, n - capacity)
        assert len(cache) == min(n, capacity)


class TestTokenBucket:
    @given(
        rate=st.floats(0.1, 50.0, allow_nan=False),
        capacity=st.floats(1.0, 40.0, allow_nan=False),
        deltas=st.lists(st.floats(0.0, 5.0, allow_nan=False), max_size=40),
    )
    def test_refill_never_exceeds_capacity_nor_goes_negative(
        self, rate, capacity, deltas
    ):
        bucket = TokenBucket(rate, capacity)
        now = 0.0
        for delta in deltas:
            now += delta
            bucket.try_acquire(now)
            assert 0.0 <= bucket.tokens <= capacity + 1e-9

    @given(rate=st.floats(0.5, 20.0, allow_nan=False))
    def test_acquire_succeeds_exactly_capacity_times_at_t0(self, rate):
        capacity = 5.0
        bucket = TokenBucket(rate, capacity)
        grants = sum(bucket.try_acquire(0.0) for _ in range(10))
        assert grants == 5

    @given(
        rate=st.floats(0.5, 20.0, allow_nan=False),
        spend=st.integers(1, 5),
    )
    def test_deficit_delay_is_sufficient_wait(self, rate, spend):
        bucket = TokenBucket(rate, capacity=5.0)
        for _ in range(5):
            assert bucket.try_acquire(0.0)
        delay = bucket.deficit_delay(spend)
        assert delay > 0
        # Waiting exactly the hinted delay makes the acquire succeed.
        assert bucket.try_acquire(delay, spend)

    def test_clock_running_backwards_is_an_error(self):
        bucket = TokenBucket(1.0, 1.0)
        bucket.try_acquire(5.0)
        try:
            bucket.try_acquire(4.0)
        except ValueError:
            return
        raise AssertionError("backwards clock must raise")


class TestEventualConsistency:
    """Rejected claims retried with backoff settle exactly once."""

    @given(
        n_claims=st.integers(5, 30),
        rate=st.floats(1.0, 4.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_probe_burst_settles_under_rate_limiting(self, n_claims, rate, seed):
        loop = EventLoop()
        service = ReconciliationService(
            loop=loop,
            config=ServiceConfig(
                workers=2,
                queue_depth=4,
                vendor_rate_hz=rate,
                vendor_burst=2.0,
                probe_service_time_s=0.01,
            ),
        )
        service.start()
        import random

        rng = random.Random(seed)

        def submit(ref, attempt):
            if service.is_settled(ref):
                return
            admission = service.submit(
                {"id": f"{ref}#{attempt}", "ref": ref, "vendor": "v0", "kind": "probe"}
            )
            if not admission.accepted:
                assert admission.reason in ("rate-limited", "backpressure")
                loop.schedule(0.2 + rng.random() * 0.2, submit, ref, attempt + 1)

        # The whole burst lands inside one second: far above the bucket
        # rate, so rate limiting and backpressure must both engage and
        # the retry loop must drain them all eventually.
        for i in range(n_claims):
            loop.schedule(rng.random(), submit, f"probe-{i}", 0)
        loop.run()
        service.close()
        assert service.settled_count() == n_claims
        assert service.crashed_workers() == []
        # Exactly-once: each logical ref settled a single time.
        settled = service.metrics.counter("service.settled", kind="probe").value
        assert settled == n_claims
