import inspect
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adasearch import (
    BINARY,
    INTERPOLATION,
    DistributionSpec,
    SearchEngine,
    SortedDataset,
    choose_algorithm,
    compute_stats,
    generate,
)
from adasearch.bench import search_batch
from adasearch.selector import (
    FEWER_PROBES,
    MIN_INTERP_LEN,
    NOT_FEWER_PROBES,
    TOO_SMALL,
    TRIAL_KEYS,
    DistributionStats,
)


def stats_reference(values):
    """The trial on the batch kernels: each kernel's search_batch probe sum
    on the keys at i * (n - 1) // 63, i = 0..63, over 64. The selector runs
    the scalar kernels, so the two compare two implementations."""
    n = len(values)
    if n < MIN_INTERP_LEN:
        return DistributionStats(n, 0.0, 0.0)
    a = np.array(values, dtype=np.int64)
    return DistributionStats(n, *(int(search_batch(a, a[trial_indices(n)], kernel)[1].sum()) / 64
                                  for kernel in (BINARY, INTERPOLATION)))


def trial_indices(n):
    return [i * (n - 1) // 63 for i in range(64)]


def score(stats):
    """Interpolation's trial probes over binary's: the selector picks
    interpolation iff this is below 1."""
    return stats.interpolation_probes / stats.binary_probes


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def int64_extreme_families():
    rng = random.Random(63)
    yield [INT64_MIN, 0, INT64_MAX]  # gaps 2**63 and 2**63 - 1
    yield [INT64_MIN, INT64_MAX]  # one gap of 2**64 - 1
    yield [INT64_MIN] * 8 + [INT64_MAX] * 8
    yield [INT64_MIN + i for i in range(10)] + [INT64_MAX - 9 + i for i in range(10)]
    for n in (20, 300):
        yield sorted(rng.choice([INT64_MIN, INT64_MAX, rng.randrange(INT64_MIN, INT64_MAX + 1)])
                     for _ in range(n))


@st.composite
def sorted_key_lists(draw):
    """1 to 400 sorted int64 keys: each a value from a small pool (int64
    extremes among them, so gaps reach 2**64 - 1, and heavy duplicates) or,
    at a drawn rate, a fresh key from a drawn range."""
    edges = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
    pool = draw(st.lists(st.one_of(edges, st.integers(INT64_MIN, INT64_MAX)), min_size=1, max_size=6))
    n = draw(st.integers(1, 400))
    fresh = draw(st.sampled_from([0.0, 0.1, 1.0]))
    lo, hi = draw(st.sampled_from([(-3, 3), (10**15, 10**18), (INT64_MIN, INT64_MAX)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return sorted(rng.randint(lo, hi) if rng.random() < fresh else rng.choice(pool) for _ in range(n))


class TestComputeStats:
    @settings(max_examples=150, deadline=None)
    @given(sorted_key_lists())
    @example([INT64_MIN] * 15 + [INT64_MAX])  # one short of a trial
    @example([INT64_MIN] * 16 + [INT64_MAX])
    @example([*range(200), 2**62])  # past the first TRIAL_KEYS keys, only the last one is far out
    def test_matches_the_python_int_reference(self, values):
        assert compute_stats(SortedDataset.from_values(values)) == stats_reference(values)

    @pytest.mark.parametrize("n", [TRIAL_KEYS - 1, TRIAL_KEYS, TRIAL_KEYS + 1, 1000, 2**16 + 3])
    def test_trial_keys_span_the_dataset(self, n):
        # an arithmetic progression with one far key at the end: the last
        # trial key is that key, and it costs interpolation extra probes
        values = [*range(n - 1), 2**40]
        s = compute_stats(SortedDataset.from_values(values))
        assert s == stats_reference(values)
        assert s.interpolation_probes > 1

    def test_untried_below_the_length_floor(self):
        for n in range(MIN_INTERP_LEN):
            assert compute_stats(SortedDataset.from_values(range(n))) == (n, 0.0, 0.0)

    def test_arithmetic_progression(self):
        s = compute_stats(SortedDataset.from_values(range(0, 3000, 3)))
        assert s.interpolation_probes == 1.0
        assert s.binary_probes > 8

    def test_powers_of_two_score_above_one(self):
        s = compute_stats(SortedDataset.from_values([2**i for i in range(21)]))
        assert score(s) > 1
        # frozen: the scalar trial and the batch reference agree on it
        assert s == stats_reference([2**i for i in range(21)]) == (21, 3.75, 6.578125)

    def test_singleton_degenerate(self):
        assert compute_stats(SortedDataset.from_values([7])) == (1, 0.0, 0.0)

    def test_empty(self):
        assert compute_stats(SortedDataset.from_values([])) == (0, 0.0, 0.0)

    def test_all_equal_keys(self):
        # each kernel finds every key at its first probe
        assert compute_stats(SortedDataset.from_values([4] * 100)) == (100, 1.0, 1.0)

    def test_one_interpolation_probe_iff_gaps_equal(self):
        values = list(range(5, 5 + 3 * 40, 3))
        assert compute_stats(SortedDataset.from_values(values)).interpolation_probes == 1.0
        values[-1] += 1
        assert compute_stats(SortedDataset.from_values(values)).interpolation_probes > 1.0

    def test_exact_below_sample_cap(self):
        # up to TRIAL_KEYS keys the trial tries every key, some twice
        rng = random.Random(1)
        for n in range(MIN_INTERP_LEN, TRIAL_KEYS + 1):
            values = sorted(rng.randrange(10**9) for _ in range(n))
            assert set(trial_indices(n)) == set(range(n))
            assert compute_stats(SortedDataset.from_values(values)) == stats_reference(values)

    def test_sampled_above_cap(self):
        values = list(range(16 * 4096))
        s = compute_stats(SortedDataset.from_values(values))
        assert s == stats_reference(values)
        assert s.interpolation_probes == 1.0

    @pytest.mark.parametrize("m,n", [(7, 8), (7, 9), (7, 20), (64, 65), (64, 66), (64, 193)])
    def test_stats_at_the_sample_cap(self, m, n):
        """TRIAL_KEYS keys are each tried once; one key more switches to the
        stride, which skips keys. Each case (m, n) is the gap count
        n - 1 = q*m + r at a stride of m gaps between trial keys, taken to the
        trial's TRIAL_KEYS - 1 as q*(TRIAL_KEYS - 1) + r gaps: (7, 8) is
        TRIAL_KEYS keys, (7, 9) one more, (7, 20) 2*TRIAL_KEYS + 4 and (64, 193)
        3*TRIAL_KEYS - 2."""
        q, r = divmod(n - 1, m)
        n = q * (TRIAL_KEYS - 1) + r + 1
        rng = random.Random(n)
        values = sorted(rng.randrange(-(2**40), 2**40) for _ in range(n))
        assert (len(set(trial_indices(n))) == n) == (n <= TRIAL_KEYS)
        assert compute_stats(SortedDataset.from_values(values)) == stats_reference(values)

    def test_affine_invariance_of_score(self):
        # interpolation's floor quotient (a * d) // (a * w) is d // w for a > 0:
        # every probe, and so each mean, is exactly the same
        rng = random.Random(7)
        for _ in range(30):
            base = sorted(rng.randrange(10**6) for _ in range(rng.randrange(2, 300)))
            a = rng.randrange(1, 1000)
            b = rng.randrange(-(10**6), 10**6)
            s0 = compute_stats(SortedDataset.from_values(base))
            assert compute_stats(SortedDataset.from_values([a * x + b for x in base])) == s0

    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_outlier_gap_strictly_raises_score(self, k):
        base = list(range(0, 500))
        spiked = base + [base[-1] + k * 1]  # one gap k times the unit mean gap
        s0 = compute_stats(SortedDataset.from_values(base))
        s1 = compute_stats(SortedDataset.from_values(spiked))
        assert score(s1) > score(s0)

    @pytest.mark.parametrize("m", [4096, 7])
    def test_exact_beyond_int64_on_array_backed_datasets(self, m):
        # gaps up to 2**64 - 1: an int64 subtraction would wrap them negative.
        # Each key is repeated 4096 // m times, so at m = 7 every family is
        # long enough for a trial, mostly of duplicates.
        for family in int64_extreme_families():
            values = [v for v in family for _ in range(4096 // m)]
            ds = SortedDataset.from_sorted_array(np.array(values, dtype=np.int64))
            s = compute_stats(ds)
            assert s == stats_reference(values)
            assert compute_stats(SortedDataset.from_values(values)) == s

    @pytest.mark.parametrize("kind", ["wide", "outlier"])
    def test_register_reads_wide_keys_in_place(self, kind):
        # (n - 1) * (max - min) >= 2**63, past int64 in the position product: the
        # trial reads its 64 keys in place, with no Python-int copy of all 2**20
        n = 2**20
        if kind == "wide":
            ds = generate(DistributionSpec("uniform", n, 1, {"lo": -(2**62), "hi": 2**62}))
        else:  # one far key after an arithmetic progression
            ds = SortedDataset.from_values(np.append(np.arange(n - 1), 2**62))
        tracemalloc.start()
        try:
            reg = SearchEngine().register(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert reg.stats == stats_reference(ds.array)
        assert reg.choice.algorithm == (INTERPOLATION if kind == "wide" else BINARY)


class TestChooseAlgorithm:
    def test_uniform_progression_gets_interpolation(self):
        s = compute_stats(SortedDataset.from_values(range(1000)))
        assert choose_algorithm(s) == (INTERPOLATION, FEWER_PROBES)

    def test_small_array_gets_binary(self):
        s = compute_stats(SortedDataset.from_values(range(8)))
        assert choose_algorithm(s) == (BINARY, TOO_SMALL)

    def test_length_floor(self):
        short = compute_stats(SortedDataset.from_values(range(MIN_INTERP_LEN - 1)))
        assert choose_algorithm(short) == (BINARY, TOO_SMALL)
        at_floor = compute_stats(SortedDataset.from_values(range(MIN_INTERP_LEN)))
        assert choose_algorithm(at_floor) == (INTERPOLATION, FEWER_PROBES)

    def test_powers_of_two_get_binary(self):
        s = compute_stats(SortedDataset.from_values([2**i for i in range(21)]))
        assert s.interpolation_probes > s.binary_probes
        assert choose_algorithm(s) == (BINARY, NOT_FEWER_PROBES)

    def test_all_equal_keys_degenerate(self):
        s = compute_stats(SortedDataset.from_values([3] * 20))
        assert s.binary_probes == s.interpolation_probes == 1.0
        assert choose_algorithm(s) == (BINARY, NOT_FEWER_PROBES)

    def test_a_tie_picks_binary(self):
        for mean in (1.0, 4.5, 19.6875):
            assert choose_algorithm(DistributionStats(2**20, mean, mean)) == (BINARY, NOT_FEWER_PROBES)
            fewer = DistributionStats(2**20, mean, mean - 1 / TRIAL_KEYS)  # one probe fewer in all
            assert choose_algorithm(fewer) == (INTERPOLATION, FEWER_PROBES)

    def test_affine_invariance_of_choice(self):
        rng = random.Random(13)
        for _ in range(30):
            base = sorted(rng.randrange(10**6) for _ in range(rng.randrange(2, 300)))
            a = rng.randrange(1, 1000)
            b = rng.randrange(-(10**6), 10**6)
            c0 = choose_algorithm(compute_stats(SortedDataset.from_values(base)))
            c1 = choose_algorithm(compute_stats(
                SortedDataset.from_values([a * x + b for x in base])))
            assert c0 == c1

    @pytest.mark.parametrize("n", [2**10, 2**14, 2**18])
    def test_every_seed_picks_by_the_distribution(self, n):
        # uniform keys pick interpolation and skewed keys binary at every seed,
        # not by sampling luck: the choice must not depend on the seed
        expected = {"uniform": INTERPOLATION, "exponential": BINARY, "clustered": BINARY, "zipf": BINARY}
        for kind, algorithm in expected.items():
            picks = [choose_algorithm(compute_stats(generate(DistributionSpec(kind, n, seed)))).algorithm
                     for seed in range(100)]
            assert picks == [algorithm] * 100, (kind, picks.count(algorithm))


class TestSelectorConfig:
    """The selector has no settings, only its two constants."""

    def test_defaults(self):
        assert list(inspect.signature(choose_algorithm).parameters) == ["stats"]
        assert list(inspect.signature(compute_stats).parameters) == ["ds"]
        assert MIN_INTERP_LEN == 16
        assert TRIAL_KEYS == 64
