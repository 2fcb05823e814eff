import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasearch import (
    SortedDataset,
    binary_search,
    choose_algorithm,
    compute_stats,
    interpolation_search,
    linear_search,
)
from adasearch.bench import search_batch
from adasearch.search import BINARY, INTERPOLATION
from adasearch.selector import FEWER_PROBES, TRIAL_KEYS

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def ds(*values):
    return SortedDataset.from_values(values)


class TestBinarySearch:
    def test_midpoint_trace(self):
        out = binary_search(ds(2, 3, 4, 10, 40), 10)
        assert out.index == 3
        assert out.trace.probes == 2
        assert out.trace.visited == (2, 3)

    def test_singleton(self):
        out = binary_search(ds(5), 5)
        assert out.index == 0
        assert out.trace.probes == 1

    def test_not_found(self):
        out = binary_search(ds(2, 3, 4, 10, 40), 7)
        assert out.index is None

    def test_empty(self):
        out = binary_search(ds(), 1)
        assert out.index is None
        assert out.trace.probes == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 2**20])
    def test_probe_bound(self, n):
        rng = np.random.default_rng(n)
        data = SortedDataset.from_sorted_array(
            np.sort(rng.integers(0, 2**32, n, dtype=np.int64)))
        bound = math.floor(math.log2(n)) + 1
        targets = rng.integers(-(2**31), 2**33, 1000, dtype=np.int64)
        for t in targets.tolist():
            out = binary_search(data, t)
            assert out.trace.probes <= bound


# the families on which an unguarded interpolation search degrades toward a scan
adversarial_keys = st.one_of(
    st.integers(1, 1000).map(lambda n: list(range(n)) + [2**62]),  # one far outlier
    st.tuples(st.integers(1, 500), st.integers(1, 500), st.integers(2**20, 2**61)).map(
        lambda c: list(range(c[0])) + list(range(c[2], c[2] + c[1]))),  # two clusters
    st.integers(1, 63).map(lambda k: [2**i for i in range(k)]),  # geometric
    st.lists(st.integers(-3, 3), min_size=1, max_size=300).map(sorted),  # heavy duplicates
    st.lists(st.one_of(st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX]),
                       st.integers(INT64_MIN, INT64_MAX)), min_size=1, max_size=60).map(sorted),
)


def stride_steered_keys(n):
    """n keys, n >= TRIAL_KEYS, that steer the selector's trial: the keys at its
    stride indices s_i = i * (n - 1) // 63 lie on the line s_i * (n + 1), and a
    segment's keys between two of them, at offsets x < L = s_{i+1} - s_i, follow
    the steep convex curve (x / L) ** 8, plus their index, so they strictly increase."""
    strides = [i * (n - 1) // (TRIAL_KEYS - 1) for i in range(TRIAL_KEYS)]
    keys = [lo * n + x**8 * n // (hi - lo) ** 7 + lo + x
            for lo, hi in zip(strides, strides[1:]) for x in range(hi - lo)]
    return keys + [strides[-1] * (n + 1)]


@st.composite
def adversarial_cases(draw):
    keys = draw(adversarial_keys)
    lo, hi = keys[0], keys[-1]
    targets = draw(st.lists(st.one_of(st.sampled_from(keys), st.integers(lo, hi),
                                      st.sampled_from([lo - 1, hi + 1])), min_size=1, max_size=20))
    # numpy-scalar targets, which the kernels take through operator.index
    targets = [np.int64(t) if INT64_MIN <= t <= INT64_MAX and draw(st.booleans()) else t
               for t in targets]
    return SortedDataset.from_values(keys), targets


class TestInterpolationSearch:
    def test_exact_probe_lands(self):
        out = interpolation_search(ds(1, 2, 3, 4, 5, 6, 7, 8, 9), 8)
        assert out.index == 7
        assert out.trace.probes == 1

    def test_equal_endpoints_no_division(self):
        out = interpolation_search(ds(10, 10, 10), 10)
        assert out.index in (0, 1, 2)
        assert out.trace.probes >= 1

    def test_odd_progression(self):
        out = interpolation_search(ds(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21), 13)
        assert out.index == 6
        assert out.trace.probes == 1

    @pytest.mark.parametrize("n", [2, 16, 1000])
    def test_one_probe_on_arithmetic_progressions(self, n):
        a, d = -50, 7
        data = SortedDataset.from_values([a + i * d for i in range(n)])
        for i in range(n):
            out = interpolation_search(data, a + i * d)
            assert out.index == i
            assert out.trace.probes == 1

    def test_wide_range_no_overflow(self):
        # the position product exceeds 64 bits here; unbounded ints absorb it
        data = SortedDataset.from_values([-(2**62), 0, 2**62])
        for t in (-(2**62), 0, 2**62):
            out = interpolation_search(data, t)
            assert out.index is not None
            assert data.values[out.index] == t

    def test_numpy_integer_targets(self):
        # wide keys the selector sends to interpolation; int64 arithmetic on a
        # numpy target would wrap the position product
        data = SortedDataset.from_values(range(-(2**62), 2**62, 2**45))
        v = data.values
        for t in (v[1], v[2], v[100], v[len(v) // 2 + 7], v[-2], v[5] + 1):
            assert interpolation_search(data, np.int64(t)) == interpolation_search(data, t)
        for t in (v[len(v) // 2 + 7], v[-2], v[-2] - 1):
            assert interpolation_search(data, np.uint64(t)) == interpolation_search(data, t)
        for t in (0, 12345, -1):  # 0 is a member
            assert interpolation_search(data, np.int32(t)) == interpolation_search(data, t)
        assert interpolation_search(data, np.int64(0)).index == len(v) // 2

    @pytest.mark.parametrize("target", [5.5, 5.0, 1e30, -1e30])
    def test_float_target_rejected(self, target):
        # every kernel, not only interpolation: 5.0 is not the member 5
        for kernel in (binary_search, interpolation_search, linear_search):
            with pytest.raises(TypeError):
                kernel(ds(1, 3, 5, 7), target)

    def test_outside_range_zero_probes(self):
        data = ds(5, 6, 7)
        assert interpolation_search(data, 1).trace.probes == 0
        assert interpolation_search(data, 99).trace.probes == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=40),
           st.integers(min_value=-110, max_value=110))
    def test_terminates_and_agrees_with_linear(self, xs, target):
        xs.sort()
        data = SortedDataset.from_values(xs)
        out = interpolation_search(data, target)
        lin = linear_search(data, target)
        assert (out.index is not None) == (lin.index is not None)
        if out.index is not None:
            assert data.values[out.index] == target

    @settings(max_examples=300, deadline=None)
    @given(adversarial_cases())
    def test_probe_bound_on_adversarial_families(self, case):
        data, targets = case
        bound = 2 * len(data).bit_length()
        index, probes = search_batch(data.array, targets, INTERPOLATION)
        for t, i, p in zip(targets, index.tolist(), probes.tolist()):
            out = interpolation_search(data, t)
            assert out.trace.probes <= bound
            assert out.found == linear_search(data, t).found
            assert out.index is None or data.values[out.index] == t
            assert (i, p) == (-1 if out.index is None else out.index, out.trace.probes)

    def test_outlier_key_stays_within_the_guard(self):
        # keys 0..2^20-2 plus 2^62: the outlier puts every interpolated
        # position at the window's low end, so unguarded the search scanned up
        # one key a probe (1,048,574 probes for 2^20-3, 524,289 for 2^19); the
        # bound is 2 * (2^20).bit_length() = 42
        data = SortedDataset.from_values(np.append(np.arange(2**20 - 1), 2**62))
        targets = [2**20 - 3, 2**19]
        for t in targets:
            out = interpolation_search(data, t)
            assert out.index == t
            assert out.trace.probes <= 42
        index, probes = search_batch(data.array, targets, INTERPOLATION)
        assert index.tolist() == targets
        assert probes.max() <= 42

    @settings(max_examples=300, deadline=None)
    @given(adversarial_cases())
    def test_adversarial_families_pick_binary_or_stay_within_the_bound(self, case):
        data, targets = case
        algorithm = choose_algorithm(compute_stats(data)).algorithm
        probes = search_batch(data.array, targets, algorithm)[1]
        assert algorithm == BINARY or probes.max() <= 2 * len(data).bit_length()

    def test_the_selector_sends_the_outlier_key_to_binary(self):
        # on the trial keys the guard's fallback costs interpolation about
        # twice binary's probes
        s = compute_stats(SortedDataset.from_values(np.append(np.arange(2**20 - 1), 2**62)))
        assert s.interpolation_probes > s.binary_probes
        assert choose_algorithm(s).algorithm == BINARY

    @pytest.mark.parametrize("n, binary_mean", [(2**16, 15.3125), (2**20, 19.6875)])
    def test_a_stride_steered_trial_stays_within_the_guard(self, n, binary_mean):
        # a known weakness, pinned as it is, not a goal: the trial's keys lie on
        # one line, so interpolation finds each in one probe and is chosen, while
        # the keys between them cost it about 1.6 times binary's probes. Its
        # log log n holds only on uniform keys (Perl, Itai & Avni, CACM 1978), so
        # the guard's 2G is the only bound on a steered choice
        keys = stride_steered_keys(n)
        data = SortedDataset.from_values(keys)
        stats = compute_stats(data)
        assert (stats.binary_probes, stats.interpolation_probes) == (binary_mean, 1.0)
        assert choose_algorithm(stats) == (INTERPOLATION, FEWER_PROBES)
        targets = [keys[i] for i in np.random.default_rng(0).integers(0, n, 5000).tolist()]
        served = [interpolation_search(data, t) for t in targets]
        assert [data.values[out.index] for out in served] == targets
        assert max(out.trace.probes for out in served) <= 2 * n.bit_length()
        binary = sum(binary_search(data, t).trace.probes for t in targets)
        assert sum(out.trace.probes for out in served) >= 1.5 * binary

    def test_batch_keys_whose_product_reaches_2_63(self):
        # (n - 1) * (max - min) is exactly 2**63, past int64: the batch computes in Python ints
        data = ds(-(2**62), 2**62)
        targets = [INT64_MIN, -(2**62) - 1, -(2**62), 0, 2**62, 2**62 + 1, INT64_MAX]
        index, probes = search_batch(data.array, targets, INTERPOLATION)
        for t, i, p in zip(targets, index.tolist(), probes.tolist()):
            out = interpolation_search(data, t)
            assert (i, p) == (-1 if out.index is None else out.index, out.trace.probes)
        assert index.tolist() == [-1, -1, 0, -1, 1, -1, -1]


class TestLinearSearch:
    def test_scans_to_last(self):
        out = linear_search(ds(2, 3, 4, 10, 40), 40)
        assert out.index == 4
        assert out.trace.probes == 5

    def test_empty(self):
        out = linear_search(ds(), 7)
        assert out.index is None
        assert out.trace.probes == 0

    def test_first_occurrence(self):
        assert linear_search(ds(1, 1, 2), 1).index == 0


def test_numpy_integer_target_in_binary_and_linear():
    data = ds(1, 5, 5, 9)
    for kernel in (binary_search, linear_search):
        for t in (0, 1, 5, 7, 9, 10):
            assert kernel(data, np.int64(t)) == kernel(data, t)


def test_oracle_equivalence_small_exhaustive():
    # lengths 0..6, values 0..7; the full-scale sweep lives in the acceptance suite
    for length in range(7):
        for arr in combinations_with_replacement(range(8), length):
            data = SortedDataset.from_values(arr)
            for target in range(-1, 9):
                lin = linear_search(data, target)
                found = lin.index is not None
                for kernel in (binary_search, interpolation_search):
                    out = kernel(data, target)
                    assert (out.index is not None) == found
                    if out.index is not None:
                        assert arr[out.index] == target


def test_trace_invariants():
    data = ds(1, 4, 4, 9, 20, 21)
    for kernel in (binary_search, interpolation_search, linear_search):
        for target in (-3, 1, 4, 10, 21, 50):
            out = kernel(data, target)
            assert out.trace.probes == len(out.trace.visited)
            assert all(0 <= i < len(data) for i in out.trace.visited)


def test_purity():
    data = ds(3, 7, 7, 12, 40, 41, 100)
    for kernel in (binary_search, interpolation_search, linear_search):
        for target in (-1, 7, 41, 99):
            assert kernel(data, target) == kernel(data, target)
