"""The kernels and the engine return the same records, field for field and
class for class, as the straightforward NamedTuple-constructing versions, and
the lockstep batch kernels return the scalar kernels' indices and probes.

The reference kernels below are a frozen copy of the kernels as they were
before their records were built through tuple.__new__. Keep them unchanged:
they are the oracle for the index, probe count, visited list and algorithm
tag of every call. The one exception is a reference interpolation call that
makes more than G = n.bit_length() probes, where the guarded kernel bisects:
there the reference fixes the first G visited indices and the found-ness.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adasearch import (
    QueryResult,
    SearchEngine,
    SortedDataset,
    binary_search,
    interpolation_search,
    linear_search,
)
from adasearch.bench import int_targets, search_batch
from adasearch.search import (
    BINARY,
    INTERPOLATION,
    LINEAR,
    ProbeTrace,
    SearchOutcome,
)

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def reference_binary_search(ds, target):
    values = ds.values
    lo, hi = 0, len(values) - 1
    visited = []
    while lo <= hi:
        mid = (lo + hi) // 2
        v = values[mid]
        visited.append(mid)
        if v == target:
            return SearchOutcome(mid, ProbeTrace(len(visited), tuple(visited), BINARY))
        if v < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return SearchOutcome(None, ProbeTrace(len(visited), tuple(visited), BINARY))


def reference_interpolation_search(ds, target):
    values = ds.values
    lo, hi = 0, len(values) - 1
    visited = []
    while lo <= hi and values[lo] <= target <= values[hi]:
        vl = values[lo]
        vh = values[hi]
        if vl == vh:
            visited.append(lo)
            idx = lo if vl == target else None
            return SearchOutcome(idx, ProbeTrace(len(visited), tuple(visited), INTERPOLATION))
        pos = lo + (hi - lo) * (target - vl) // (vh - vl)
        v = values[pos]
        visited.append(pos)
        if v == target:
            return SearchOutcome(pos, ProbeTrace(len(visited), tuple(visited), INTERPOLATION))
        if v < target:
            lo = pos + 1
        else:
            hi = pos - 1
    return SearchOutcome(None, ProbeTrace(len(visited), tuple(visited), INTERPOLATION))


def reference_linear_search(ds, target):
    visited = []
    for i, v in enumerate(ds.values):
        visited.append(i)
        if v == target:
            return SearchOutcome(i, ProbeTrace(len(visited), tuple(visited), LINEAR))
    return SearchOutcome(None, ProbeTrace(len(visited), tuple(visited), LINEAR))


PAIRS = [
    (binary_search, reference_binary_search),
    (interpolation_search, reference_interpolation_search),
    (linear_search, reference_linear_search),
]

int64_edges = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
key_lists = st.one_of(
    st.lists(st.one_of(st.integers(INT64_MIN, INT64_MAX), int64_edges), max_size=40),
    st.lists(st.integers(-3, 3), max_size=60),  # heavy duplicates
    st.integers(0, 300).map(lambda n: list(range(n)) + [2**62]),  # one far outlier
    st.integers(0, 63).map(lambda k: [2**i for i in range(k)]),  # geometric
    st.tuples(st.integers(1, 150), st.integers(1, 150), st.integers(2**20, 2**61)).map(
        lambda c: list(range(c[0])) + list(range(c[2], c[2] + c[1]))),  # two clusters
)


@st.composite
def dataset_and_target(draw):
    keys = sorted(draw(key_lists))
    candidates = [st.integers(INT64_MIN - 1, INT64_MAX + 1)]
    if keys:
        lo, hi = keys[0], keys[-1]
        candidates += [st.sampled_from(keys), st.sampled_from([lo - 1, hi + 1]),
                       st.integers(lo, hi)]
    return SortedDataset.from_values(keys), draw(st.one_of(candidates))


@settings(max_examples=400, deadline=None)
@given(dataset_and_target())
def test_kernels_match_reference(case):
    ds, target = case
    guard = len(ds).bit_length()
    for kernel, reference in PAIRS:
        out = kernel(ds, target)
        ref = reference(ds, target)
        if kernel is interpolation_search and ref.trace.probes > guard:
            # the guard fired: the first G probes are the reference's, then bisection
            assert out.trace.visited[:guard] == ref.trace.visited[:guard]
            assert out.found == ref.found
            assert out.index is None or ds.values[out.index] == target
            assert out.trace.probes <= 2 * guard
        else:
            assert tuple(out) == tuple(ref)
        assert type(out) is SearchOutcome
        assert type(out.trace) is ProbeTrace
        assert out.found == (out.index is not None)


def test_engine_results_are_query_results():
    ds = SortedDataset.from_values([1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
    engine = SearchEngine()
    reg = engine.register(ds)
    miss = engine.search(reg, 7)
    hit = engine.search(reg, 7)
    for qr in (miss, hit):
        assert type(qr) is QueryResult
        assert type(qr.outcome) is SearchOutcome
        assert type(qr.outcome.trace) is ProbeTrace
    assert (miss.cache_hit, hit.cache_hit) == (False, True)
    assert hit.outcome == miss.outcome
    assert engine._cache.keys_by_recency() == [(reg, 7)]


@st.composite
def dataset_and_batch(draw):
    # the families above, plus random keys
    keys = sorted(draw(st.one_of(key_lists, st.lists(st.integers(-(2**40), 2**40), max_size=200))))
    candidates = [st.integers(INT64_MIN - 1, INT64_MAX + 1), int64_edges,
                  st.sampled_from([2**63, 2**70, -(2**70)]),
                  st.integers(INT64_MIN, INT64_MAX).map(np.int64)]  # numpy-scalar targets
    if keys:
        lo, hi = keys[0], keys[-1]
        candidates += [st.sampled_from(keys), st.sampled_from([lo - 1, hi + 1]),
                       st.integers(lo, hi), st.sampled_from(keys).map(np.int64)]
    return SortedDataset.from_values(keys), draw(st.lists(st.one_of(candidates), max_size=30))


@settings(max_examples=400, deadline=None)
@given(dataset_and_batch())
# windows whose end keys differ by 1, where the position estimate is exact
@example((SortedDataset.from_values([0, 0, 0, 1, 1]), [1, 0, 2, -1]))
# (n - 1) * (max - min) >= 2**63, with targets on both sides of int64
@example((SortedDataset.from_values(range(-(2**62), 2**62 + 1, 2**58)),
          [-(2**62), 2**62, 5, 2**58, -(2**62) - 1, 2**62 + 1, INT64_MIN - 1, 2**63, 2**70]))
# no keys; targets beyond int64 make np.searchsorted compare as objects
@example((SortedDataset.from_values([]), [0, 2**63, -(2**70)]))
@example((SortedDataset.from_values([INT64_MIN, 0, 0, INT64_MAX]), [0, INT64_MAX, INT64_MAX + 1, 2**70]))
# after the guard's G = 4 probes, bisection narrows to the run of 4s, whose
# equal endpoints mean a single probe of its low end in both kernels
@example((SortedDataset.from_values([0, 1, 2, 3, 4, 4, 4, 5, 6, 7, 2**62]), [4]))
def test_search_batch_matches_kernels(case):
    ds, targets = case
    keys = np.array(ds.values, dtype=np.int64)
    for algorithm, kernel in ((BINARY, binary_search), (INTERPOLATION, interpolation_search),
                              (LINEAR, linear_search)):
        index, probes = search_batch(keys, targets, algorithm)
        outs = [kernel(ds, t) for t in targets]
        assert index.tolist() == [-1 if o.index is None else o.index for o in outs]
        assert probes.tolist() == [o.trace.probes for o in outs]


@settings(max_examples=200, deadline=None)
@given(dataset_and_batch())
def test_search_batch_takes_an_int64_array_as_the_list(case):
    ds, targets = case
    targets = [t for t in targets if INT64_MIN <= t <= INT64_MAX]
    array = np.array(targets, dtype=np.int64)
    assert int_targets(array) is array  # converted once, by whoever made it
    for algorithm in (BINARY, INTERPOLATION, LINEAR):
        from_list = search_batch(ds.array, targets, algorithm)
        from_array = search_batch(ds.array, array, algorithm)
        assert [a.tolist() for a in from_array] == [a.tolist() for a in from_list]


def test_int_targets_takes_each_target_as_the_kernels_do():
    assert int_targets([np.int64(3), True, INT64_MAX]).dtype == np.int64
    beyond = int_targets([3, 2**63])  # the object path: Python ints, compared exactly
    assert beyond.dtype == object and beyond.tolist() == [3, 2**63]
    ds = SortedDataset.from_values([1, 3, 9])
    for algorithm, kernel in ((BINARY, binary_search), (INTERPOLATION, interpolation_search),
                              (LINEAR, linear_search)):
        index, probes = search_batch(ds.array, [3, 2**63], algorithm)
        outs = [kernel(ds, t) for t in (3, 2**63)]
        assert index.tolist() == [1, -1]
        assert probes.tolist() == [o.trace.probes for o in outs]
        for floats in ([5.5], [1, 3.0], np.array([3.0])):  # never truncated to an int64
            with pytest.raises(TypeError):
                search_batch(ds.array, floats, algorithm)


def test_a_linear_target_beyond_int64_leaves_the_keys_int64():
    # bisected at its int64 clip, so np.searchsorted casts no key to an
    # object (42 MB at 2**20); the unclipped target still misses, with n probes
    keys = np.arange(2**20)
    tracemalloc.start()
    try:
        index, probes = search_batch(keys, [5, 2**63], LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    outs = [linear_search(SortedDataset.from_values(keys), t) for t in (5, 2**63)]
    assert index.tolist() == [-1 if o.index is None else o.index for o in outs] == [5, -1]
    assert probes.tolist() == [o.trace.probes for o in outs] == [6, 2**20]


def test_search_batch_rejects_an_algorithm_without_a_kernel():
    with pytest.raises(ValueError):
        search_batch(np.arange(4), np.arange(2), "adaptive")
