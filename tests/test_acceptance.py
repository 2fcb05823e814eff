"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 1 sweeps ~17.2M (array, target) pairs through the real instrumented
kernels and takes on the order of two minutes on a single core; its stated
10-second budget is asserted last so the correctness verdict always prints.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

import numpy as np
import pytest

from adasearch import (
    BINARY,
    DistributionSpec,
    INTERPOLATION,
    LruCache,
    QuerySpec,
    SearchEngine,
    SortedDataset,
    binary_search,
    generate,
    generate_queries,
    interpolation_search,
    linear_search,
)
from adasearch.bench import ADAPTIVE, run_trial
from adasearch.dataset import fingerprint
from adasearch.search import KERNELS, ProbeTrace, SearchOutcome


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE C{num}: PASS - {description}")


@pytest.mark.slow
def test_c1_oracle_equivalence_exhaustive():
    """All kernels and the adaptive engine agree with linear search on every
    nondecreasing array of length 0..10 over values 0..12, targets -1..13."""
    with criterion(1, "exhaustive oracle equivalence, lengths 0..10"):
        targets = list(range(-1, 14))
        start = time.perf_counter()
        engine = SearchEngine()
        arrays_done = 0
        for length in range(11):
            for arr in combinations_with_replacement(range(13), length):
                ds = SortedDataset.from_values(arr)
                reg = engine.register(ds)
                for t in targets:
                    lin = linear_search(ds, t)
                    found = lin.index is not None
                    b = binary_search(ds, t)
                    assert (b.index is not None) == found
                    i = interpolation_search(ds, t)
                    assert (i.index is not None) == found
                    a = engine.search(reg, t)
                    assert (a.outcome.index is not None) == found
                    if found:
                        assert arr[b.index] == t
                        assert arr[i.index] == t
                        assert arr[a.outcome.index] == t
                arrays_done += 1
                if arrays_done % 50_000 == 0:
                    engine = SearchEngine()  # bound registry/cache memory
        elapsed = time.perf_counter() - start
        print(f"  [C1] {arrays_done} arrays, {arrays_done * len(targets)} pairs, "
              f"0 disagreements, {elapsed:.1f}s")
        assert elapsed < 10.0, (
            f"correctness held over all {arrays_done * len(targets)} pairs, but the "
            f"sweep took {elapsed:.1f}s (>= 10s budget) on this single-core interpreter")


def test_c2_binary_probe_bound():
    with criterion(2, "binary probes <= floor(log2 n) + 1"):
        for n in (1, 10, 10**3, 2**20):
            rng = np.random.default_rng(n + 1)
            ds = SortedDataset.from_sorted_array(
                np.sort(rng.integers(0, 2**34, n, dtype=np.int64)))
            bound = math.floor(math.log2(n)) + 1
            for t in rng.integers(-(2**33), 2**35, 1000, dtype=np.int64).tolist():
                assert binary_search(ds, t).trace.probes <= bound


def test_c3_interpolation_one_probe_law():
    with criterion(3, "one probe for every member of an arithmetic progression"):
        for n in (2, 16, 10**3, 10**6):
            a, d = 13, 5
            ds = SortedDataset.from_sorted_array(a + d * np.arange(n, dtype=np.int64))
            values = ds.values
            for i in range(n):
                out = interpolation_search(ds, values[i])
                assert out.trace.probes == 1
                assert values[out.index] == values[i]


def test_c4_probe_growth_separation():
    """Interpolation probe growth is log-log flat on uniform data while binary
    doubles from 2^10 to 2^20."""
    with criterion(4, "probe growth: interpolation ratio <= 1.6, binary ratio >= 1.8"):
        start = time.perf_counter()
        means = {}
        for n in (2**10, 2**20):
            spec = DistributionSpec("uniform", n, 1000 + n)
            ds = generate(spec)
            qs = QuerySpec(10**4, "members", seed=2000 + n)
            stream = generate_queries(ds, qs)
            for algorithm in (BINARY, INTERPOLATION):
                rec = run_trial(spec, qs, algorithm, dataset=ds, targets=stream)
                means[(algorithm, n)] = rec.mean_probes
        interp_ratio = means[(INTERPOLATION, 2**20)] / means[(INTERPOLATION, 2**10)]
        binary_ratio = means[(BINARY, 2**20)] / means[(BINARY, 2**10)]
        print(f"  [C4] interpolation ratio {interp_ratio:.3f}, binary ratio {binary_ratio:.3f}")
        assert interp_ratio <= 1.6
        assert binary_ratio >= 1.8
        assert time.perf_counter() - start < 60.0


class _ReferenceLru:
    """Brute-force reference: plain dict plus an explicit recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.store = {}
        self.order = []  # least- to most-recently used
        self.hits = self.misses = self.evictions = 0

    def get(self, k):
        if k in self.store:
            self.order.remove(k)
            self.order.append(k)
            self.hits += 1
            return self.store[k]
        self.misses += 1
        return None

    def put(self, k, v):
        if k in self.store:
            self.store[k] = v
            self.order.remove(k)
            self.order.append(k)
            return
        if len(self.store) >= self.capacity:
            oldest = self.order.pop(0)
            del self.store[oldest]
            self.evictions += 1
        self.store[k] = v
        self.order.append(k)


def test_c5_cache_capacity_bound_and_model_equivalence():
    with criterion(5, "size <= k under 10^5 ops; exact match with reference LRU"):
        did = fingerprint([1, 2, 3])
        for capacity in (1, 2, 8, 1024):
            rng = random.Random(capacity)
            real = LruCache(capacity)
            model = _ReferenceLru(capacity)
            universe = [(did, t) for t in range(max(4, capacity * 2))]
            for _ in range(10**5):
                k = universe[rng.randrange(len(universe))]
                if rng.random() < 0.5:
                    assert real.get(k) == model.get(k)
                else:
                    v = SearchOutcome(None, ProbeTrace(0, (), "binary"))
                    real.put(k, v)
                    model.put(k, v)
                assert len(real) <= capacity
                assert len(real) == len(model.store)
            assert real.keys_by_recency() == model.order
            assert (real.hits, real.misses, real.evictions) == \
                   (model.hits, model.misses, model.evictions)


def test_c6_caching_benefit():
    """A half-repeated stream costs strictly fewer kernel probes with the
    cache, and the hit rate matches the stream's own first-seen expectation."""
    with criterion(6, "cache saves kernel probes; hit rate matches expectation"):
        ds = generate(DistributionSpec("uniform", 2**16, 61))
        qs = QuerySpec(10**4, "repeated", repeat_fraction=0.5, seed=62)
        stream = generate_queries(ds, qs)

        # expectation straight from the generation rule: with an unbounded
        # cache a query hits iff its target appeared earlier in the stream
        seen = set()
        expected_hits = 0
        for t in stream:
            if t in seen:
                expected_hits += 1
            seen.add(t)
        expected_rate = expected_hits / len(stream)

        cached = SearchEngine(2 * 10**4)
        reg = cached.register(ds)
        for t in stream:
            cached.search(reg, t)
        measured_rate = cached.report().cache.hit_rate

        # baseline: every query pays its kernel in full, no reuse at all
        kernel = KERNELS[reg.choice.algorithm]
        uncached_probes = sum(kernel(ds, t).trace.probes for t in stream)

        print(f"  [C6] hit rate {measured_rate:.4f} (expected {expected_rate:.4f}); "
              f"kernel probes {cached.kernel_probes} vs uncached {uncached_probes}")
        assert cached.kernel_probes < uncached_probes
        assert abs(measured_rate - expected_rate) <= 0.05


def test_c7_selection_correctness_paired():
    with criterion(7, "adaptive tracks the better kernel per distribution at n=2^18"):
        n = 2**18
        results = {}
        for kind in ("uniform", "exponential"):
            spec = DistributionSpec(kind, n, 71)
            ds = generate(spec)
            qs = QuerySpec(10**4, "members", seed=72)
            stream = generate_queries(ds, qs)
            for algorithm in (BINARY, INTERPOLATION, ADAPTIVE):
                rec = run_trial(spec, qs, algorithm, dataset=ds, targets=stream)
                results[(kind, algorithm)] = rec.mean_probes
        u_bin = results[("uniform", BINARY)]
        u_int = results[("uniform", INTERPOLATION)]
        u_ada = results[("uniform", ADAPTIVE)]
        e_bin = results[("exponential", BINARY)]
        e_int = results[("exponential", INTERPOLATION)]
        e_ada = results[("exponential", ADAPTIVE)]
        print(f"  [C7] uniform: bin {u_bin:.2f} int {u_int:.2f} ada {u_ada:.2f}; "
              f"exponential: bin {e_bin:.2f} int {e_int:.2f} ada {e_ada:.2f}")
        assert u_ada == u_int  # same kernel, same stream
        assert u_ada < u_bin
        assert e_ada == e_bin
        assert e_ada <= e_int


def test_c8_default_suite_determinism(tmp_path):
    with criterion(8, "default suite with seed 42: byte-identical csv sans wall time"):
        from adasearch.cli import main

        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["bench", "--seed", "42", "--format", "csv",
                         "--out", str(path)]) == 0
            lines = path.read_text().splitlines()
            outputs.append([_mask_wall(ln) for ln in lines])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 1 + 2 * 4 * 4  # header + cells


def _mask_wall(line):
    fields = line.split(",")
    if len(fields) == 10 and fields[8].isdigit():
        fields[8] = "WALL"
    return ",".join(fields)
