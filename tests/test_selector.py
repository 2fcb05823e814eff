import math
import random

import numpy as np
import pytest

from adasearch import (
    BINARY,
    INTERPOLATION,
    SelectorConfig,
    SortedDataset,
    choose_algorithm,
    compute_stats,
)
from adasearch.selector import DEGENERATE, TOO_IRREGULAR, TOO_SMALL, UNIFORM_ENOUGH, DistributionStats


def gap_cv_reference(values):
    """Independent full-pass gap CV: naive sums, no sampling."""
    gaps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    mean = sum(gaps) / len(gaps)
    if mean == 0:
        return 0.0
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return math.sqrt(var) / mean


def stats_reference(values, m):
    """compute_stats over Python ints: the same strided gaps and fsum order,
    every subtraction exact."""
    n = len(values)
    k = min(n - 1, m)
    gaps = [values[j + 1] - values[j] for j in (i * (n - 1) // k for i in range(k))]
    mean = math.fsum(gaps) / k
    std = math.sqrt(math.fsum((g - mean) ** 2 for g in gaps) / k)
    return DistributionStats(n, values[0], values[-1], mean, std, std / mean if mean > 0 else 0.0, k < n - 1)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def int64_extreme_families():
    rng = random.Random(63)
    yield [INT64_MIN, 0, INT64_MAX]  # gaps 2**63 and 2**63 - 1
    yield [INT64_MIN, INT64_MAX]  # one gap of 2**64 - 1
    yield [INT64_MIN] * 3 + [INT64_MAX] * 3
    yield [INT64_MIN + i for i in range(5)] + [INT64_MAX - 4 + i for i in range(5)]
    for n in (20, 300):
        yield sorted(rng.choice([INT64_MIN, INT64_MAX, rng.randrange(INT64_MIN, INT64_MAX + 1)])
                     for _ in range(n))


class TestComputeStats:
    def test_arithmetic_progression(self):
        s = compute_stats(SortedDataset.from_values(range(100)))
        assert s.gap_mean == 1.0
        assert s.gap_std == 0.0
        assert s.uniformity_score == 0.0
        assert not s.sampled

    def test_powers_of_two_score_above_one(self):
        ds = SortedDataset.from_values([2**i for i in range(21)])
        s = compute_stats(ds)
        assert s.uniformity_score > 1
        # frozen from the independent gap-CV pass
        assert s.uniformity_score == pytest.approx(2.3804788136709694, rel=1e-12)

    def test_singleton_degenerate(self):
        s = compute_stats(SortedDataset.from_values([7]))
        assert s.n == 1
        assert s.min_value == s.max_value == 7
        assert s.uniformity_score == 0.0

    def test_empty(self):
        s = compute_stats(SortedDataset.from_values([]))
        assert s.n == 0
        assert s.uniformity_score == 0.0

    def test_all_equal_keys(self):
        s = compute_stats(SortedDataset.from_values([4] * 10))
        assert s.gap_mean == 0.0
        assert s.uniformity_score == 0.0

    def test_score_zero_iff_gaps_equal(self):
        assert compute_stats(SortedDataset.from_values([5, 8, 11, 14])).uniformity_score == 0.0
        assert compute_stats(SortedDataset.from_values([5, 8, 11, 15])).uniformity_score > 0.0

    def test_exact_below_sample_cap(self):
        rng = random.Random(1)
        values = sorted(rng.randrange(10**9) for _ in range(3000))
        s = compute_stats(SortedDataset.from_values(values), SelectorConfig(max_gap_samples=4096))
        assert not s.sampled
        assert s.uniformity_score == pytest.approx(gap_cv_reference(values), rel=1e-12)

    def test_sampled_above_cap(self):
        values = list(range(0, 2000, 1))
        s = compute_stats(SortedDataset.from_values(values), SelectorConfig(max_gap_samples=128))
        assert s.sampled
        assert s.uniformity_score == 0.0

    @pytest.mark.parametrize("m,n", [(7, 8), (7, 9), (64, 65), (64, 66), (64, 193)])
    def test_stats_at_the_sample_cap(self, m, n):
        """n - 1 == m uses every gap; one gap more switches to the stride."""
        rng = random.Random(n)
        values = sorted(rng.randrange(-(2**40), 2**40) for _ in range(n))
        if n - 1 <= m:
            gaps = [values[i + 1] - values[i] for i in range(n - 1)]
        else:
            starts = [i * (n - 1) // m for i in range(m)]
            gaps = [values[j + 1] - values[j] for j in starts]
        mean = sum(gaps) / len(gaps)
        std = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
        s = compute_stats(SortedDataset.from_values(values), SelectorConfig(max_gap_samples=m))
        assert (s.n, s.min_value, s.max_value) == (n, values[0], values[-1])
        assert s.sampled == (n - 1 > m)
        assert s.gap_mean == pytest.approx(mean, rel=1e-12)
        assert s.gap_std == pytest.approx(std, rel=1e-12)
        assert s.uniformity_score == pytest.approx(std / mean, rel=1e-12)

    def test_affine_invariance_of_score(self):
        rng = random.Random(7)
        for _ in range(20):
            base = sorted(rng.randrange(10**6) for _ in range(rng.randrange(2, 200)))
            a = rng.randrange(1, 1000)
            b = rng.randrange(-(10**6), 10**6)
            s0 = compute_stats(SortedDataset.from_values(base))
            s1 = compute_stats(SortedDataset.from_values([a * x + b for x in base]))
            assert s1.uniformity_score == pytest.approx(s0.uniformity_score, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_outlier_gap_strictly_raises_score(self, k):
        base = list(range(0, 500))
        spiked = base + [base[-1] + k * 1]  # one gap k times the unit mean gap
        s0 = compute_stats(SortedDataset.from_values(base))
        s1 = compute_stats(SortedDataset.from_values(spiked))
        assert s1.uniformity_score > s0.uniformity_score

    @pytest.mark.parametrize("m", [4096, 7])
    def test_exact_beyond_int64_on_array_backed_datasets(self, m):
        # gaps up to 2**64 - 1: an int64 subtraction would wrap them negative
        for values in int64_extreme_families():
            ds = SortedDataset.from_sorted_array(np.array(values, dtype=np.int64))
            s = compute_stats(ds, SelectorConfig(max_gap_samples=m))
            assert s == stats_reference(values, m)
            assert type(s.min_value) is int and type(s.max_value) is int
            assert compute_stats(SortedDataset.from_values(values), SelectorConfig(max_gap_samples=m)) == s


class TestChooseAlgorithm:
    def test_uniform_progression_gets_interpolation(self):
        s = compute_stats(SortedDataset.from_values(range(1000)))
        c = choose_algorithm(s)
        assert c == (INTERPOLATION, UNIFORM_ENOUGH)

    def test_small_array_gets_binary(self):
        s = compute_stats(SortedDataset.from_values(range(8)))
        c = choose_algorithm(s)
        assert c == (BINARY, TOO_SMALL)

    def test_powers_of_two_get_binary(self):
        s = compute_stats(SortedDataset.from_values([2**i for i in range(21)]))
        c = choose_algorithm(s)
        assert c == (BINARY, TOO_IRREGULAR)

    def test_all_equal_keys_degenerate(self):
        s = compute_stats(SortedDataset.from_values([3] * 20))
        c = choose_algorithm(s)
        assert c == (BINARY, DEGENERATE)

    def test_threshold_is_configurable(self):
        ds = SortedDataset.from_values([2**i for i in range(21)])
        s = compute_stats(ds)
        assert choose_algorithm(s, SelectorConfig(tau=10.0)).algorithm == INTERPOLATION

    def test_affine_invariance_of_choice(self):
        rng = random.Random(13)
        for _ in range(30):
            base = sorted(rng.randrange(10**6) for _ in range(rng.randrange(2, 300)))
            a = rng.randrange(1, 1000)
            b = rng.randrange(-(10**6), 10**6)
            c0 = choose_algorithm(compute_stats(SortedDataset.from_values(base)))
            c1 = choose_algorithm(compute_stats(
                SortedDataset.from_values([a * x + b for x in base])))
            assert c0.algorithm == c1.algorithm


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig()
        assert cfg.tau == 1.0
        assert cfg.min_interp_len == 16
        assert cfg.max_gap_samples == 4096

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"tau": -1.0}, {"min_interp_len": 1}, {"max_gap_samples": 1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SelectorConfig(**kwargs)
