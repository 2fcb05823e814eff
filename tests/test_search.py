import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasearch import (
    SortedDataset,
    binary_search,
    interpolation_search,
    linear_search,
)


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
