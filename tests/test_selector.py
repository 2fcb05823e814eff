import inspect
import math
import random

import numpy as np
import pytest

from adasearch import (
    BINARY,
    INTERPOLATION,
    EngineConfig,
    SortedDataset,
    choose_algorithm,
    compute_stats,
)
from adasearch.selector import (
    DEGENERATE,
    MAX_GAP_SAMPLES,
    MIN_INTERP_LEN,
    TOO_IRREGULAR,
    TOO_SMALL,
    UNIFORM_ENOUGH,
    DistributionStats,
)


def gap_cv_reference(values):
    """Independent full-pass gap CV: naive sums, no sampling."""
    gaps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    mean = sum(gaps) / len(gaps)
    if mean == 0:
        return 0.0
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return math.sqrt(var) / mean


def stats_reference(values):
    """compute_stats over Python ints: the same strided gaps and fsum order,
    every subtraction exact."""
    n = len(values)
    k = min(n - 1, MAX_GAP_SAMPLES)
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
        s = compute_stats(SortedDataset.from_values(values))
        assert not s.sampled
        assert s.uniformity_score == pytest.approx(gap_cv_reference(values), rel=1e-12)

    def test_sampled_above_cap(self):
        values = list(range(16 * MAX_GAP_SAMPLES))
        s = compute_stats(SortedDataset.from_values(values))
        assert s.sampled
        assert s.uniformity_score == 0.0

    @pytest.mark.parametrize("m,n", [(7, 8), (7, 9), (7, 20), (64, 65), (64, 66), (64, 193)])
    def test_stats_at_the_sample_cap(self, m, n):
        """A cap's worth of gaps uses every gap; one gap more switches to the
        stride. Each case (m, n) is the gap count n - 1 = q*m + r at a cap of
        m, taken to the fixed cap C as q*C + r gaps: (7, 8) is C gaps,
        (7, 9) C + 1, (7, 20) 2C + 5 and (64, 193) 3C."""
        q, r = divmod(n - 1, m)
        cap = MAX_GAP_SAMPLES
        n = q * cap + r + 1
        rng = random.Random(n)
        values = sorted(rng.randrange(-(2**40), 2**40) for _ in range(n))
        if n - 1 <= cap:
            gaps = [values[i + 1] - values[i] for i in range(n - 1)]
        else:
            starts = [i * (n - 1) // cap for i in range(cap)]
            gaps = [values[j + 1] - values[j] for j in starts]
        mean = sum(gaps) / len(gaps)
        std = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
        s = compute_stats(SortedDataset.from_values(values))
        assert (s.n, s.min_value, s.max_value) == (n, values[0], values[-1])
        assert s.sampled == (n - 1 > cap)
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
        # gaps up to 2**64 - 1: an int64 subtraction would wrap them negative.
        # Each key is repeated MAX_GAP_SAMPLES // m times, so at m = 7 exactly
        # the families with more than 7 gaps have more than the fixed cap and
        # are sampled, as they were at a cap of 7.
        stretch = MAX_GAP_SAMPLES // m
        for family in int64_extreme_families():
            values = [v for v in family for _ in range(stretch)]
            ds = SortedDataset.from_sorted_array(np.array(values, dtype=np.int64))
            s = compute_stats(ds)
            assert s == stats_reference(values)
            assert s.sampled == (len(family) - 1 > m)
            assert type(s.min_value) is int and type(s.max_value) is int
            assert compute_stats(SortedDataset.from_values(values)) == s


class TestChooseAlgorithm:
    def test_uniform_progression_gets_interpolation(self):
        s = compute_stats(SortedDataset.from_values(range(1000)))
        c = choose_algorithm(s)
        assert c == (INTERPOLATION, UNIFORM_ENOUGH)

    def test_small_array_gets_binary(self):
        s = compute_stats(SortedDataset.from_values(range(8)))
        c = choose_algorithm(s)
        assert c == (BINARY, TOO_SMALL)

    def test_length_floor(self):
        short = compute_stats(SortedDataset.from_values(range(MIN_INTERP_LEN - 1)))
        assert choose_algorithm(short) == (BINARY, TOO_SMALL)
        at_floor = compute_stats(SortedDataset.from_values(range(MIN_INTERP_LEN)))
        assert choose_algorithm(at_floor) == (INTERPOLATION, UNIFORM_ENOUGH)

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
        assert choose_algorithm(s, tau=10.0).algorithm == INTERPOLATION
        # a score equal to tau is uniform enough; the next float below tau is not
        assert choose_algorithm(s, tau=s.uniformity_score) == (INTERPOLATION, UNIFORM_ENOUGH)
        assert choose_algorithm(s, tau=math.nextafter(s.uniformity_score, 0)) == (BINARY, TOO_IRREGULAR)

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
    """The selector's one setting, EngineConfig.tau, and its two constants."""

    def test_defaults(self):
        assert EngineConfig().tau == 1.0
        assert inspect.signature(choose_algorithm).parameters["tau"].default == EngineConfig().tau
        assert MIN_INTERP_LEN == 16
        assert MAX_GAP_SAMPLES == 4096

    @pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"tau": -1.0}])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError, match="tau must be > 0"):
            EngineConfig(**kwargs)
