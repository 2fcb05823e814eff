import pickle
import random

import numpy as np
import pytest

from adasearch import (
    BINARY,
    EngineConfig,
    INTERPOLATION,
    QueryResult,
    SearchEngine,
    SortedDataset,
    linear_search,
    load_dataset,
)
from adasearch.engine import CACHE
from adasearch.selector import TOO_SMALL


@pytest.fixture
def odd_progression():
    return SortedDataset.from_values([1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21])


class TestRegister:
    def test_uniform_gets_interpolation(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(10**4)))
        assert reg.choice.algorithm == INTERPOLATION

    def test_powers_of_two_get_binary(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values([2**i for i in range(21)]))
        assert reg.choice.algorithm == BINARY

    def test_small_array_gets_binary(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(8)))
        assert reg.choice == (BINARY, TOO_SMALL)

    def test_fingerprinted_only_by_report(self, fingerprint_calls):
        ds = SortedDataset.from_values(range(0, 3000, 3))
        e = SearchEngine(EngineConfig(cache_capacity=64))
        reg = e.register(ds)
        hits = 0
        for t in random.Random(2).choices(range(-10, 3010), k=1000):
            hits += e.search(reg, t).cache_hit
        assert e.register(ds) is reg
        assert fingerprint_calls == []
        report = e.report()
        assert 0 < hits < 1000 and report.cache.misses == 1000 - hits
        assert len(fingerprint_calls) == 1 and report.choices == {ds.id: reg.choice}
        e.report()
        assert len(fingerprint_calls) == 1

    def test_reregistration_memoized(self, tmp_path):
        e = SearchEngine()
        ds = SortedDataset.from_values(range(0, 256, 2))
        reg = e.register(ds)
        path = tmp_path / "ds.txt"
        with open(path, "w", encoding="utf-8") as f:
            ds.dump(f)
        with open(path, encoding="utf-8") as f:
            reloaded = load_dataset(f)
        larger = np.arange(-2, 258, 2, dtype=np.int64)
        equal = {
            "same object": ds,
            "from_values": SortedDataset.from_values(range(0, 256, 2)),
            "pickle": pickle.loads(pickle.dumps(ds)),
            "slice": SortedDataset.from_values(larger[1:-1]),
            "reload": reloaded,
        }
        for name, twin in equal.items():
            assert e.register(twin) is reg, name
        # same n and the same key at every index the hash's strided sample reads; one other key differs
        keys = ds.array.copy()
        keys[1] = 1
        near = SortedDataset.from_values(keys)
        assert hash(near) == hash(ds) and near != ds
        near_reg = e.register(near)
        assert near_reg is not reg and near_reg.dataset is near and e.register(near) is near_reg
        assert len(e.report().choices) == 2


class TestAdaptiveSearch:
    def test_first_query_runs_kernel(self, odd_progression):
        e = SearchEngine()
        reg = e.register(odd_progression)
        qr = e.search(reg, 13)
        assert qr.outcome.index == 6
        assert not qr.cache_hit
        assert qr.algorithm_used == BINARY  # n=11 below MIN_INTERP_LEN

    def test_repeat_query_served_from_cache(self, odd_progression):
        e = SearchEngine()
        reg = e.register(odd_progression)
        first = e.search(reg, 13)
        second = e.search(reg, 13)
        assert second.cache_hit
        assert second.algorithm_used == CACHE
        assert second.outcome.index == first.outcome.index

    def test_hit_returns_the_result_its_miss_stored(self, odd_progression):
        e = SearchEngine()
        reg = e.register(odd_progression)
        for target in (13, 8):  # found and not found
            miss = e.search(reg, target)
            hit = e.search(reg, target)
            assert e.search(reg, target) is hit
            assert hit == QueryResult(miss.outcome, True, CACHE)
            assert hit.outcome is miss.outcome

    def test_evicted_target_misses_again(self, odd_progression):
        e = SearchEngine(EngineConfig(cache_capacity=1))
        reg = e.register(odd_progression)
        first = e.search(reg, 13)
        other = e.search(reg, 8)  # evicts 13
        again = e.search(reg, 13)
        assert again == first == QueryResult(first.outcome, False, BINARY)
        hit = e.search(reg, 13)
        assert hit.cache_hit and hit.outcome is again.outcome
        cache = e.report().cache
        assert (cache.hits, cache.misses, cache.evictions, cache.size) == (1, 3, 2, 1)
        assert e.kernel_probes == 2 * first.outcome.trace.probes + other.outcome.trace.probes

    def test_large_uniform_uses_interpolation(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(10000)))
        qr = e.search(reg, 4242)
        assert qr.outcome.index is not None
        assert qr.algorithm_used == INTERPOLATION

    def test_not_found_is_cached(self, odd_progression):
        e = SearchEngine()
        reg = e.register(odd_progression)
        assert e.search(reg, 8).outcome.index is None
        qr = e.search(reg, 8)
        assert qr.cache_hit
        assert qr.outcome.index is None

    def test_selection_consistency_on_misses(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(0, 5000, 3)))
        for t in range(0, 300, 7):
            qr = e.search(reg, t)
            if not qr.cache_hit:
                assert qr.algorithm_used == reg.choice.algorithm

    def test_float_target_raises_whatever_the_cache_holds(self, odd_progression):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(0, 100, 3)))
        assert reg.choice.algorithm == INTERPOLATION
        assert e.search(reg, 6).outcome.index == 2
        with pytest.raises(TypeError):
            e.search(reg, 6.0)
        reg = e.register(odd_progression)
        assert reg.choice.algorithm == BINARY
        with pytest.raises(TypeError):
            e.search(reg, 13.0)


class TestEngineReport:
    def test_fresh_engine(self):
        r = SearchEngine().report()
        assert r.choices == {}
        assert r.cache.hits == r.cache.misses == 0
        assert r.kernel_probes == 0

    def test_hundred_identical_queries(self):
        e = SearchEngine()
        reg = e.register(SortedDataset.from_values(range(100)))
        for _ in range(100):
            e.search(reg, 42)
        r = e.report()
        assert r.cache.hits == 99
        assert r.cache.misses == 1

    def test_two_datasets_two_rows(self):
        e = SearchEngine()
        e.register(SortedDataset.from_values(range(10)))
        e.register(SortedDataset.from_values(range(5, 50)))
        assert len(e.report().choices) == 2


def test_correctness_under_adaptivity_randomized():
    rng = random.Random(5)
    n = 10**5
    values = sorted(rng.randrange(0, 2**40) for _ in range(n))
    ds = SortedDataset.from_values(values)
    e = SearchEngine()
    reg = e.register(ds)
    member_set = set(values)
    targets = [rng.choice(values) for _ in range(200)] + \
              [rng.randrange(0, 2**40) for _ in range(200)]
    for t in targets:
        qr = e.search(reg, t)
        assert (qr.outcome.index is not None) == (t in member_set)
        if qr.outcome.index is not None:
            assert values[qr.outcome.index] == t


def test_cache_transparency():
    # answers are identical whether the cache is effectively off or large
    values = sorted(random.Random(3).randrange(500) for _ in range(64))
    ds = SortedDataset.from_values(values)
    targets = [random.Random(4).randrange(550) for _ in range(300)]

    def answers(capacity):
        e = SearchEngine(EngineConfig(cache_capacity=capacity))
        reg = e.register(ds)
        out = []
        for t in targets:
            qr = e.search(reg, t)
            out.append((qr.outcome.index is not None,
                        None if qr.outcome.index is None else values[qr.outcome.index]))
        return out

    assert answers(1) == answers(4096)


def test_probe_savings_with_repeats():
    values = list(range(0, 3000, 2))
    ds = SortedDataset.from_values(values)
    rng = random.Random(11)
    targets = [rng.choice(values) for _ in range(50)] * 10

    def kernel_probes(capacity):
        e = SearchEngine(EngineConfig(cache_capacity=capacity))
        reg = e.register(ds)
        for t in targets:
            e.search(reg, t)
        return e.kernel_probes

    assert kernel_probes(4096) <= kernel_probes(1)


def test_cached_found_ness_matches_linear(odd_progression):
    e = SearchEngine()
    reg = e.register(odd_progression)
    for t in list(range(-2, 25)) * 2:  # second pass hits the cache
        qr = e.search(reg, t)
        lin = linear_search(odd_progression, t)
        assert (qr.outcome.index is not None) == (lin.index is not None)
