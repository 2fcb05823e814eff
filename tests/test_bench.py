import csv
import hashlib
import io
import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adasearch import (
    DistributionSpec,
    InvalidSpec,
    QuerySpec,
    SearchEngine,
    SortedDataset,
    choose_algorithm,
    compute_stats,
    generate,
    generate_queries,
    interpolation_search,
    linear_search,
)
import adasearch.bench as bench
from adasearch.bench import (
    ADAPTIVE,
    CSV,
    CSV_HEADER,
    JSONL,
    SpotCheckError,
    SuiteConfig,
    TABLE,
    UnknownFormat,
    emit_report,
    first_occurrence,
    run_suite,
    run_trial,
    search_batch,
)
import adasearch.distributions as distributions
from adasearch.cli import main
from adasearch.dataset import INT64_MAX, INT64_MIN, _adopt
from adasearch.distributions import KINDS, MAX_LEN, MAX_ZIPF_UNIVERSE, PARAMS, QUERY_MODES, _to_int64
from adasearch.search import BINARY, INTERPOLATION, KERNELS, LINEAR


class TestGenerate:
    def test_seed_determinism(self):
        spec = DistributionSpec("uniform", 5, 1, {"lo": 0, "hi": 2**32})
        assert generate(spec).values == generate(spec).values

    def test_empty(self):
        assert len(generate(DistributionSpec("uniform", 0, 1))) == 0

    def test_zipf_scores_binary(self):
        ds = generate(DistributionSpec("zipf", 10**4, 7, {"s": 1.2, "m": 10**6}))
        stats = compute_stats(ds)
        assert stats.interpolation_probes > stats.binary_probes
        assert choose_algorithm(stats).algorithm == BINARY

    def test_exponential_scores_binary(self):
        ds = generate(DistributionSpec("exponential", 2**14, 3))
        assert choose_algorithm(compute_stats(ds)).algorithm == BINARY

    def test_uniform_scores_interpolation(self):
        ds = generate(DistributionSpec("uniform", 2**14, 3))
        assert choose_algorithm(compute_stats(ds)).algorithm == INTERPOLATION

    @pytest.mark.parametrize("kind", KINDS)
    def test_sorted_keys_reach_adopt_read_only(self, kind, monkeypatch):
        # a read-only array is one in order, so _adopt skips its descent scan
        writeable = []

        def recording_adopt(arr):
            writeable.append(arr.flags.writeable)
            return _adopt(arr)

        monkeypatch.setattr(distributions, "_adopt", recording_adopt)
        generate(DistributionSpec(kind, 100, 1))
        assert writeable == [False]

    def test_clustered_output_sorted(self):
        ds = generate(DistributionSpec("clustered", 1000, 2, {"clusters": 5, "spread": 50}))
        vals = ds.values
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    # rejected by a check on the drawn keys, which an empty dataset has none of
    DRAWS_LEAVE_INT64 = [
        ("exponential", {"scale": 1e30}),
        ("clustered", {"spread": 1e30}),
        ("clustered", {"lo": 2**63 - 11, "hi": 2**63 - 11, "spread": 1000}),
        ("clustered", {"lo": -(2**63), "hi": -(2**63), "spread": 1000}),
    ]

    @pytest.mark.parametrize("kind,params", [
        ("uniform", {"lo": 10, "hi": 5}),
        ("zipf", {"s": 0}),
        ("zipf", {"s": -1.0}),
        ("exponential", {"scale": 0}),
        ("clustered", {"clusters": 0}),
        *DRAWS_LEAVE_INT64,
        ("uniform", {"hi": 2**64}),
        ("uniform", {"lo": -(2**63) - 1}),
        ("clustered", {"hi": 2**63}),
        ("clustered", {"lo": -(2**64), "hi": 0}),
        ("zipf", {"s": float("nan")}),
        ("exponential", {"scale": float("nan")}),
        ("clustered", {"spread": float("nan")}),
        # a parameter the kind does not read is refused, not ignored
        ("exponential", {"lo": 5, "bogus": 1}),
        ("exponential", {"hi": 9}),
        ("uniform", {"clusters": 3}),
        ("clustered", {"scale": 1.0}),
        ("zipf", {"lo": 0, "hi": 10}),
        ("uniform", {"lo": 0, "s": 1.2}),
        # refused before the weights over the universe, 24 bytes a value, are allocated
        ("zipf", {"m": 0}),
        ("zipf", {"m": MAX_ZIPF_UNIVERSE + 1}),
        ("zipf", {"m": 10**18}),
        # refused before numpy's "array is too big" ValueError for the centres
        ("clustered", {"clusters": MAX_LEN + 1}),
        # an integer parameter that is not integral is refused, not truncated
        ("zipf", {"m": 2.7}),
        ("clustered", {"clusters": 2.5}),
        ("uniform", {"lo": 0.5, "hi": 10.9}),
        ("zipf", {"m": "7"}),
    ])
    def test_invalid_params(self, kind, params):
        # parameters are checked at n = 0 too, not only once there are keys
        for n in (10,) if (kind, params) in self.DRAWS_LEAVE_INT64 else (10, 0):
            with pytest.raises(InvalidSpec):
                generate(DistributionSpec(kind, n, 1, params))

    def test_every_parameter_a_kind_reads_is_accepted(self):
        for kind, params in (("uniform", {"lo": -5, "hi": 5}),
                             ("clustered", {"lo": 0, "hi": 100, "clusters": 2, "spread": 1.0}),
                             ("exponential", {"scale": 10.0}),
                             ("zipf", {"s": 1.1, "m": 50})):
            assert set(params) == set(PARAMS[kind])
            assert len(generate(DistributionSpec(kind, 20, 1, params))) == 20

    def test_integral_parameters_read_as_ints(self):
        # the key rule: 2.0, True and numpy integers are the ints they equal
        for kind, params, ints in (
                ("uniform", {"lo": -5.0, "hi": np.int64(5)}, {"lo": -5, "hi": 5}),
                ("clustered", {"lo": 0.0, "hi": 100.0, "clusters": True}, {"lo": 0, "hi": 100, "clusters": 1}),
                ("zipf", {"m": np.uint8(50)}, {"m": 50})):
            as_given = generate(DistributionSpec(kind, 20, 1, params))
            assert as_given == generate(DistributionSpec(kind, 20, 1, ints))

    def test_key_range_at_a_single_value(self):
        for key in (5, INT64_MIN, INT64_MAX):
            for kind in ("uniform", "clustered"):
                params = {"lo": key, "hi": key} if kind == "uniform" else {"lo": key, "hi": key, "spread": 0}
                assert generate(DistributionSpec(kind, 3, 1, params)).array.tolist() == [key] * 3

    def test_zipf_over_a_universe_of_one(self):
        assert generate(DistributionSpec("zipf", 5, 1, {"m": 1})).array.tolist() == [1] * 5

    def test_draws_at_the_int64_ends(self):
        # -2**63 is an int64 and 2**63 is not; both are exact as floats
        assert _to_int64(np.array([-(2.0**63), 0.0]), "k").tolist() == [INT64_MIN, 0]
        with pytest.raises(InvalidSpec, match="k: draws leave the 64-bit range"):
            _to_int64(np.array([0.0, 2.0**63]), "k")

    def test_spec_keeps_a_read_only_copy_of_its_params(self):
        params = {"scale": 10.0}
        spec = DistributionSpec("exponential", 3, 1, params)
        params["bogus"] = 1
        assert spec.summary() == "exponential(scale=10.0)"
        with pytest.raises(TypeError):
            spec.params["bogus"] = 1
        twin = DistributionSpec("exponential", 3, 1, {"scale": 10.0})
        assert spec == twin and hash(spec) == hash(twin) and len({spec, twin}) == 1
        assert generate(spec) == generate(twin)
        assert spec != DistributionSpec("exponential", 3, 1, {"scale": 11.0})
        assert hash(DistributionSpec("uniform", 3, 1)) == hash(DistributionSpec("uniform", 3, 1, {}))

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            DistributionSpec("gaussian", 10, 1)

    def test_negative_n(self):
        with pytest.raises(InvalidSpec):
            DistributionSpec("uniform", -1, 1)

    def test_lengths_past_what_numpy_can_allocate(self):
        # MAX_LEN int64 values fill numpy's address range; one more is refused
        # with InvalidSpec, before numpy's ValueError
        assert DistributionSpec("uniform", MAX_LEN, 1).n == QuerySpec(MAX_LEN).count == MAX_LEN
        with pytest.raises(InvalidSpec, match=f"^n must be <= {MAX_LEN}, "):
            DistributionSpec("uniform", MAX_LEN + 1, 1)
        with pytest.raises(InvalidSpec, match=f"^count must be <= {MAX_LEN}, "):
            QuerySpec(MAX_LEN + 1)


class TestGenerateQueries:
    def test_members_are_members(self):
        ds = generate(DistributionSpec("uniform", 100, 1))
        targets = generate_queries(ds, QuerySpec(50, "members", seed=2))
        members = set(ds.values)
        assert all(t in members for t in targets)

    def test_repeated_replays_prior_queries(self):
        ds = generate(DistributionSpec("uniform", 1000, 1))
        targets = generate_queries(ds, QuerySpec(500, "repeated", repeat_fraction=0.5, seed=2))
        assert len(targets) == 500
        seen = set()
        repeats = 0
        for t in targets:
            if t in seen:
                repeats += 1
            seen.add(t)
        assert repeats > 100  # about half the stream replays

    def test_determinism(self):
        ds = generate(DistributionSpec("uniform", 100, 1))
        qs = QuerySpec(50, "mixed", seed=9)
        assert generate_queries(ds, qs) == generate_queries(ds, qs)

    def test_empty_dataset_rejected(self):
        ds = generate(DistributionSpec("uniform", 0, 1))
        with pytest.raises(InvalidSpec):
            generate_queries(ds, QuerySpec(10))

    @pytest.mark.parametrize("n", [0, 100])
    def test_zero_count_is_empty(self, n):
        ds = generate(DistributionSpec("uniform", n, 1))
        assert generate_queries(ds, QuerySpec(0)) == []

    @pytest.mark.parametrize("kwargs", [
        {"count": -1},
        {"count": 10, "mode": "sequential"},
        {"count": 10, "repeat_fraction": 1.5},
        {"count": 10, "repeat_fraction": float("nan")},
        {"count": 10, "repeat_fraction": 0.5},
        {"count": 10, "mode": "mixed", "repeat_fraction": 1.0},
    ])
    def test_invalid_query_spec(self, kwargs):
        with pytest.raises(InvalidSpec):
            QuerySpec(**kwargs)


class TestLinearFastPath:
    def test_matches_kernel(self):
        rng = np.random.default_rng(17)
        cases = [
            # heavy duplicates; misses below, between and above the keys
            ([3, 3, 3, 3, 7, 7, 12, 12, 12, 40], [-5, 2, 3, 5, 7, 8, 12, 13, 40, 41, 2**62]),
            (np.sort(rng.integers(0, 60, 40)).tolist(), rng.integers(-5, 70, 200).tolist()),
            ([9] * 50, [8, 9, 10]),
            ([], [-1, 0, 1]),
        ]
        for values, targets in cases:
            ds = SortedDataset.from_values(values)
            rec = run_trial(DistributionSpec("uniform", len(ds), 1),
                            QuerySpec(len(targets), seed=1), LINEAR, dataset=ds, targets=targets)
            outs = [linear_search(ds, t) for t in targets]
            probes = [out.trace.probes for out in outs]
            assert rec.found_rate == sum(out.index is not None for out in outs) / len(targets)
            assert rec.mean_probes == sum(probes) / len(targets)
            assert rec.p99_probes == float(np.percentile(probes, 99))

    def test_first_occurrence_matches_kernel(self):
        ds = SortedDataset.from_values([1, 1, 2, 5, 5, 5, 9])
        for t in range(-1, 11):
            out = linear_search(ds, t)
            assert first_occurrence(ds.values, t) == (out.index if out.index is not None else -1)


def trial(spec, qs, algorithm, **kwargs):
    """run_trial on the cell run_suite makes from spec and qs."""
    ds = generate(spec)
    return run_trial(spec, qs, algorithm, ds, generate_queries(ds, qs), **kwargs)


class TestRunTrial:
    def test_members_always_found(self):
        rec = trial(DistributionSpec("uniform", 2**12, 1),
                    QuerySpec(2000, "members", seed=2), ADAPTIVE)
        assert rec.found_rate == 1.0
        assert rec.queries == 2000

    def test_repeat_stream_hit_rate(self):
        rec = trial(DistributionSpec("uniform", 2**16, 1),
                    QuerySpec(10**4, "repeated", repeat_fraction=0.5, seed=2), ADAPTIVE,
                    cache_capacity=10**5)
        assert rec.cache_hit_rate is not None
        assert rec.cache_hit_rate >= 0.4

    def test_linear_mean_probes_near_half_n(self):
        n = 10**3
        rec = trial(DistributionSpec("uniform", n, 5, {"lo": 0, "hi": 2**40}),
                    QuerySpec(5000, "members", seed=6), LINEAR)
        expected = (n + 1) / 2
        assert rec.mean_probes == pytest.approx(expected, rel=0.10)

    def test_baselines_have_no_hit_rate(self):
        rec = trial(DistributionSpec("uniform", 256, 1),
                    QuerySpec(100, seed=2), BINARY)
        assert rec.cache_hit_rate is None

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown trial algorithm"):
            trial(DistributionSpec("uniform", 256, 1),
                  QuerySpec(100, seed=2), "ternary")


def reference_hit_rate(capacity, targets):
    recent = []  # least to most recently used
    hits = 0
    for t in targets:
        if t in recent:
            hits += 1
            recent.remove(t)
        elif len(recent) == capacity:
            recent.pop(0)
        recent.append(t)
    return hits / len(targets)


@pytest.mark.parametrize("capacity", [1, 2, 5, 64])
def test_replay_hit_rate_matches_an_lru_replay(capacity):
    # distinct targets below, at and above the capacity: the closed form
    # holds up to it, and above it the replay must evict
    rng = random.Random(capacity)
    for distinct in (capacity - 1, capacity, capacity + 1, 3 * capacity):
        for extra in (0, 1, 3 * capacity + 7):
            if not distinct:
                continue
            pool = rng.sample(range(-10**6, 10**6), distinct)
            targets = pool + [rng.choice(pool) for _ in range(extra)]
            rng.shuffle(targets)
            assert bench._replay_hit_rate(capacity, targets) == reference_hit_rate(capacity, targets)
    assert bench._replay_hit_rate(capacity, []) == 0.0
    # one target more than fits: each repeat was evicted just before it
    cycle = list(range(capacity + 1)) * 3
    assert bench._replay_hit_rate(capacity, cycle) == reference_hit_rate(capacity, cycle) == 0.0


def reference_record(capacity, spec, qs, algorithm, ds, targets):
    """The record run_trial gives, from the scalar kernels, one query at a time."""
    kernel = algorithm
    if algorithm == ADAPTIVE:
        kernel = choose_algorithm(compute_stats(ds)).algorithm
    outs = [KERNELS[kernel](ds, t) for t in targets]
    probes = [o.trace.probes for o in outs]
    q = len(targets)
    return bench.TrialRecord(
        algorithm=algorithm, distribution=spec.summary(), n=len(ds), queries=q,
        found_rate=sum(o.index is not None for o in outs) / q,
        mean_probes=sum(probes) / q,
        p99_probes=float(np.percentile(probes, 99)),
        cache_hit_rate=reference_hit_rate(capacity, targets)
        if algorithm == ADAPTIVE else None,
        wall_time_ns=0, seed=f"{spec.seed}/{qs.seed}")


class TestBatchTrial:
    ALGORITHMS = (BINARY, INTERPOLATION, ADAPTIVE, LINEAR)

    def check(self, capacity, spec, qs, ds, targets):
        for algorithm in self.ALGORITHMS:
            rec = run_trial(spec, qs, algorithm, dataset=ds, targets=targets, cache_capacity=capacity)
            expected = reference_record(capacity, spec, qs, algorithm, ds, targets)
            assert replace(rec, wall_time_ns=0) == expected

    @pytest.mark.parametrize("kind", ["uniform", "exponential", "zipf", "clustered"])
    def test_matches_scalar_kernels(self, kind):
        capacity = 8
        for i, n in enumerate((1, 5, 17, 300)):
            spec = DistributionSpec(kind, n, 10 + i)
            ds = generate(spec)
            for mode in ("members", "mixed", "repeated"):
                qs = QuerySpec(60, mode, repeat_fraction=0.5 if mode == "repeated" else 0.0, seed=20 + i)
                self.check(capacity, spec, qs, ds, generate_queries(ds, qs))

    def test_wide_keys(self):
        # (n - 1) * (max - min) >= 2**63: int64 interpolation would overflow
        ds = SortedDataset.from_values(range(-(2**62), 2**62 + 1, 2**58))
        assert len(ds) >= 16
        assert choose_algorithm(compute_stats(ds)).algorithm == INTERPOLATION
        targets = list(ds.values) + [-(2**62) - 1, 5, 2**62 - 3, 2**62 + 1] + list(ds.values[:9])
        self.check(4, DistributionSpec("uniform", len(ds), 1),
                   QuerySpec(len(targets), seed=1), ds, targets)

    def test_wide_keys_are_read_in_place(self):
        # 2**20 keys over +-2**62, so (n - 1) * (max - min) >= 2**63: each round
        # takes its m window ends as Python ints, not all n keys (45 MB at 2**20)
        spec = DistributionSpec("uniform", 2**20, 1, {"lo": -(2**62), "hi": 2**62})
        ds, qs = generate(spec), QuerySpec(1000, "mixed", seed=2)
        trial(DistributionSpec("uniform", 16, 1), qs, INTERPOLATION)  # numpy's lazy imports
        targets = generate_queries(ds, qs)
        tracemalloc.start()
        try:
            rec = run_trial(spec, qs, INTERPOLATION, dataset=ds, targets=targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        index, probes = search_batch(ds.array, targets, INTERPOLATION)
        outs = [interpolation_search(ds, t) for t in targets]
        assert index.tolist() == [-1 if o.index is None else o.index for o in outs]
        assert probes.tolist() == [o.trace.probes for o in outs]
        assert rec.mean_probes == sum(o.trace.probes for o in outs) / len(outs)
        assert 0 < rec.found_rate < 1

    def test_targets_beyond_int64(self):
        ds = SortedDataset.from_values(list(range(0, 200, 3)))
        targets = [3, 2**63, 6, 2**63, 7, -(2**63) - 1, 3, 2**70]
        self.check(2, DistributionSpec("uniform", len(ds), 1),
                   QuerySpec(len(targets), seed=1), ds, targets)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float_target_raises(self, algorithm):
        # a float is not truncated to the int64 it would convert to
        ds = SortedDataset.from_values([1, 5, 9])
        with pytest.raises(TypeError):
            run_trial(DistributionSpec("uniform", len(ds), 1),
                      QuerySpec(1, seed=1), algorithm, dataset=ds, targets=[5.5])

    def test_spot_check_fires_on_the_batch_path(self, monkeypatch):
        def every_target_missed(keys, targets, algorithm):
            return np.full(len(targets), -1, dtype=np.int64), np.ones(len(targets), dtype=np.int64)

        monkeypatch.setattr(bench, "search_batch", every_target_missed)
        for algorithm in self.ALGORITHMS:
            with pytest.raises(SpotCheckError):
                trial(DistributionSpec("uniform", 256, 1),
                      QuerySpec(100, "members", seed=2), algorithm)

    @pytest.mark.parametrize("lane", [0, 300, 900])
    def test_spot_check_reads_every_100th_target(self, monkeypatch, lane):
        # one lane of 1000 answered wrong; a draw of 10 lanes seeded by the
        # query seed (1 here) would miss each of these
        search = bench.search_batch

        def one_lane_wrong(keys, targets, algorithm):
            index, probes = search(keys, targets, algorithm)
            index[lane] = -1
            return index, probes

        monkeypatch.setattr(bench, "search_batch", one_lane_wrong)
        spec, qs = DistributionSpec("uniform", 256, 1), QuerySpec(1000, "members", seed=1)
        ds = generate(spec)
        targets = generate_queries(ds, qs)
        for algorithm in self.ALGORITHMS:
            with pytest.raises(SpotCheckError, match=f"query {targets[lane]}: {algorithm} found=False"):
                run_trial(spec, qs, algorithm, ds, targets)

    def test_run_trial_draws_nothing(self, monkeypatch):
        spec, qs = DistributionSpec("uniform", 256, 1), QuerySpec(1000, "mixed", seed=1)
        ds = generate(spec)
        targets = generate_queries(ds, qs)

        def no_generator(*args, **kwargs):
            raise AssertionError("run_trial made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for algorithm in self.ALGORITHMS:
            run_trial(spec, qs, algorithm, ds, targets)


class TestRunSuite:
    def test_default_cells(self):
        cfg = SuiteConfig()
        assert set(cfg.distributions) == {"uniform", "exponential"}
        assert set(cfg.sizes) == {2**10, 2**14, 2**18, 2**20}
        assert set(cfg.algorithms) == {BINARY, INTERPOLATION, LINEAR, ADAPTIVE}

    def test_single_cell(self):
        cfg = SuiteConfig(distributions=("uniform",), sizes=(256,),
                          algorithms=(BINARY,), queries=50, seed=3)
        records = run_suite(cfg)
        assert len(records) == 1
        assert records[0].algorithm == BINARY

    def test_paired_found_rate_identical(self):
        cfg = SuiteConfig(distributions=("uniform",), sizes=(512,),
                          algorithms=(BINARY, INTERPOLATION), queries=200,
                          query_mode="mixed", seed=3)
        rb, ri = run_suite(cfg)
        assert rb.found_rate == ri.found_rate
        assert rb.seed == ri.seed

    def test_paired_dominance_uniform(self):
        cfg = SuiteConfig(distributions=("uniform",), sizes=(2**14,),
                          algorithms=(BINARY, INTERPOLATION), queries=2000, seed=8)
        rb, ri = run_suite(cfg)
        assert ri.mean_probes < rb.mean_probes

    def test_adaptive_row_is_the_engines_choice(self, monkeypatch):
        """run_trial picks the adaptive kernel without an engine; on every cell
        of the default suite its row matches the row of the kernel that
        SearchEngine.register chooses."""
        made = []

        def recording_generate(spec):
            made.append(generate(spec))
            return made[-1]

        monkeypatch.setattr(bench, "generate", recording_generate)
        cfg = SuiteConfig(seed=42)
        records = run_suite(cfg)
        per_cell = len(cfg.algorithms)
        assert len(records) == per_cell * len(made) == per_cell * 8
        picked = []
        for i, ds in enumerate(made):
            cell = {r.algorithm: r for r in records[i * per_cell:(i + 1) * per_cell]}
            # the kernels' rows differ in every cell, so a wrong pick shows
            assert cell[BINARY].mean_probes != cell[INTERPOLATION].mean_probes, i
            picked.append(SearchEngine().register(ds).choice.algorithm)
            for column in ("mean_probes", "p99_probes"):
                assert getattr(cell[ADAPTIVE], column) == getattr(cell[picked[-1]], column), i
        # interpolation on uniform keys at every size, binary on exponential keys
        assert picked == [INTERPOLATION] * 4 + [BINARY] * 4

    def test_paired_dominance_skewed(self):
        for kind in ("exponential", "zipf"):
            cfg = SuiteConfig(distributions=(kind,), sizes=(2**14,),
                              algorithms=(BINARY, INTERPOLATION, ADAPTIVE),
                              queries=2000, seed=8)
            rb, ri, ra = run_suite(cfg)
            assert rb.mean_probes <= ri.mean_probes
            assert ra.mean_probes == rb.mean_probes  # selector picked binary


class TestEmitReport:
    def make_records(self):
        cfg = SuiteConfig(distributions=("uniform",), sizes=(128,),
                          algorithms=(BINARY, ADAPTIVE), queries=50, seed=1)
        return run_suite(cfg)

    def test_empty_csv_is_header_only(self):
        assert emit_report([], CSV) == CSV_HEADER + "\n"

    def test_one_record_jsonl_one_line(self):
        records = self.make_records()[:1]
        assert emit_report(records, JSONL).count("\n") == 1

    def test_csv_and_jsonl_carry_the_same_values(self):
        records = self.make_records()
        csv_rows = list(csv.DictReader(io.StringIO(emit_report(records, CSV))))
        json_rows = [json.loads(line) for line in emit_report(records, JSONL).splitlines()]
        assert len(csv_rows) == len(json_rows) == len(records)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert list(csv_row) == list(json_row) == CSV_HEADER.split(",")
            for name, text in csv_row.items():
                value = json_row[name]
                if value is None:
                    assert text == ""
                elif isinstance(value, float):
                    assert float(text) == value, name
                else:
                    assert text == str(value), name

    def test_table_has_aligned_header(self):
        text = emit_report(self.make_records(), TABLE)
        assert text.splitlines()[0].startswith("algorithm")

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            emit_report([], "xml")


def test_suite_determinism_excluding_wall_time():
    cfg = SuiteConfig(distributions=("uniform",), sizes=(1024,), queries=300, seed=42)

    def normalized():
        lines = emit_report(run_suite(cfg), CSV).splitlines()
        out = []
        for line in lines[1:]:
            f = line.split(",")
            f[8] = "WALL"
            out.append(",".join(f))
        return out

    assert normalized() == normalized()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def bench_csv_sha256(capsys, *argv):
    """sha256 of an `adasearch bench --format csv` report, wall_time_ns masked."""
    assert main(["bench", "--format", "csv", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    col = lines[0].split(",").index("wall_time_ns")
    masked = []
    for line in lines:
        cells = line.split(",")
        cells[col] = "-"
        masked.append(",".join(cells))
    return sha256("\n".join(masked) + "\n")


# Golden reports, pinned from the implementation that kept only a tuple of
# Python ints per dataset: what the suite computes must not depend on how
# the keys are stored. Re-pinned twice: for the interpolation guard, where only
# the interpolation rows on clustered, exponential and zipf data changed, and
# for the selector's probe trial, where only the seed-42 suite's adaptive
# uniform 2^18 row changed (binary's 17.00/18.00 mean/p99 probes to
# interpolation's 4.04/8.00).
SMALL_SUITE = ("--distributions", *KINDS, "--sizes", "300", "4096", "--queries", "500", "--seed", "42")


def test_golden_default_suite(capsys):
    assert bench_csv_sha256(capsys, "--seed", "42") == (
        "8e3c64200a25f8a445903775f2d8ff790db116d93dcaee6e52e80ad824be3d4d")


@pytest.mark.parametrize("mode_args,digest", [
    (("--query-mode", "mixed"),
     "867d4170e7e73b34b64af731adff538e174c5ce31bd3387e8eeef602b8867fe4"),
    (("--query-mode", "repeated", "--repeat-fraction", "0.5"),
     "5aecc1630cff38045bee5100e299b682adecc2a3956d38b3ed31bb5629821ed6"),
], ids=["mixed", "repeated"])
def test_golden_query_mode_suites(capsys, mode_args, digest):
    assert bench_csv_sha256(capsys, *SMALL_SUITE, *mode_args) == digest


def test_golden_default_suite_every_format():
    # with wall_time_ns zeroed nothing needs masking, the table's column widths included
    records = [replace(r, wall_time_ns=0) for r in run_suite(SuiteConfig(seed=42))]
    assert {fmt: sha256(emit_report(records, fmt)) for fmt in (TABLE, CSV, JSONL)} == {
        TABLE: "7ac03a7c99981f0ff22cceea3bfcfe693437c45ad827cde0d7039d6bbb314d70",
        CSV: "ae938cf548b452d156746b6a08767ae043785efacfa6d78950eb8f2913a24255",
        JSONL: "2545f6eb4612ce73a8f15ae922b7d40cb3fd4c647901ce156f7349d285acc987",
    }


GOLDEN_QUERIES = {
    "members": "1d59101d01c9918d11bd2cc99b037119387578d8680c05f1e464b10c3d152524",
    "mixed": "7b9e01891afcfb96680f30cf3b3dc6c3941bacf7a5911a99db030ecc5f900833",
    "repeated": "7df0eafc4f3bf85501c3a176c1f520ab27770bb91b5891629a250fd6c590028d",
}


@pytest.mark.parametrize("mode", QUERY_MODES)
def test_golden_query_streams(mode):
    ds = generate(DistributionSpec("zipf", 5000, 11))
    targets = generate_queries(ds, QuerySpec(2000, mode, 0.5 if mode == "repeated" else 0.0, seed=12))
    assert {type(t) for t in targets} == {int}
    assert sha256(",".join(map(str, targets))) == GOLDEN_QUERIES[mode]


def test_golden_gen_output(capsys):
    assert main(["gen", "--kind", "clustered", "--n", "3000", "--seed", "5"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "d91d96da0a9aac09452ba81788d9479a5572acd770bc135e5d0a122b5ce243c8")
