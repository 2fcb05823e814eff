import random

import pytest

from adasearch import LruCache, ProbeTrace, SearchOutcome
from adasearch.dataset import fingerprint


def key(t, ds_vals=(1, 2, 3)):
    return (fingerprint(ds_vals), t)


def outcome(i):
    return SearchOutcome(i, ProbeTrace(1, (i if i is not None else 0,), "binary"))


class TestLruCache:
    def test_get_on_empty_is_miss(self):
        c = LruCache(4)
        assert c.get(key(1)) is None
        assert c.misses == 1

    def test_store_then_load(self):
        c = LruCache(4)
        c.put(key(1), outcome(5))
        assert c.get(key(1)) == outcome(5)
        assert c.hits == 1

    def test_get_refreshes_recency(self):
        c = LruCache(2)
        c.put(key(1), outcome(1))
        c.put(key(2), outcome(2))
        c.get(key(1))
        c.put(key(3), outcome(3))
        assert key(2) not in c
        assert key(1) in c and key(3) in c

    def test_eviction_order(self):
        c = LruCache(2)
        c.put(key(1), outcome(1))
        c.put(key(2), outcome(2))
        c.put(key(3), outcome(3))
        assert key(1) not in c
        assert len(c) == 2

    def test_reput_no_eviction(self):
        c = LruCache(2)
        c.put(key(1), outcome(1))
        c.put(key(2), outcome(2))
        c.put(key(1), outcome(9))
        assert c.evictions == 0
        assert len(c) == 2
        assert c.get(key(1)) == outcome(9)

    def test_capacity_one_churn(self):
        c = LruCache(1)
        c.put(key(100), outcome(1))
        c.put(key(200), outcome(2))
        c.put(key(100), outcome(1))
        assert c.evictions == 2
        assert len(c) == 1
        assert key(100) in c

    def test_stats_fresh(self):
        assert LruCache(8).stats() == (0, 0, 0, 0, 8)

    def test_stats_counters(self):
        c = LruCache(8)
        c.get(key(1))
        c.put(key(1), outcome(0))
        c.get(key(1))
        assert c.stats() == (1, 1, 0, 1, 8)
        assert c.stats().hit_rate == 0.5

    def test_distinct_puts_eviction_count(self):
        c = LruCache(3)
        for i in range(10):
            c.put(key(i), outcome(i))
        assert c.evictions == 7
        assert len(c) == 3

    def test_negative_results_cached(self):
        c = LruCache(2)
        c.put(key(1), outcome(None))
        got = c.get(key(1))
        assert got is not None
        assert got.index is None

    def test_key_componentwise_equality(self):
        assert key(1, (1, 2)) != key(1, (1, 3))
        assert key(1) != key(2)
        assert key(1) == key(1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)


class ModelLru:
    """Brute-force reference: unbounded list with timestamps, evict oldest-used."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}   # key -> (value, last_used)
        self.clock = 0
        self.hits = self.misses = self.evictions = 0

    def get(self, k):
        self.clock += 1
        if k in self.entries:
            v, _ = self.entries[k]
            self.entries[k] = (v, self.clock)
            self.hits += 1
            return v
        self.misses += 1
        return None

    def put(self, k, v):
        self.clock += 1
        if k in self.entries:
            self.entries[k] = (v, self.clock)
            return
        if len(self.entries) >= self.capacity:
            oldest = min(self.entries, key=lambda kk: self.entries[kk][1])
            del self.entries[oldest]
            self.evictions += 1
        self.entries[k] = (v, self.clock)


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 8])
def test_model_equivalence(capacity):
    rng = random.Random(capacity * 31 + 1)
    real = LruCache(capacity)
    model = ModelLru(capacity)
    keys = [key(i) for i in range(12)]
    for _ in range(10_000):
        k = rng.choice(keys)
        if rng.random() < 0.5:
            assert real.get(k) == model.get(k)
        else:
            v = outcome(rng.randrange(5))
            real.put(k, v)
            model.put(k, v)
        assert len(real) == len(model.entries) <= capacity
    assert (real.hits, real.misses, real.evictions) == (model.hits, model.misses, model.evictions)
    assert set(real.keys_by_recency()) == set(model.entries)


def test_determinism():
    def run():
        c = LruCache(3)
        rng = random.Random(99)
        for _ in range(1000):
            k = key(rng.randrange(8))
            if rng.random() < 0.5:
                c.get(k)
            else:
                c.put(k, outcome(rng.randrange(4)))
        return (c.hits, c.misses, c.evictions, c.keys_by_recency())

    assert run() == run()
