from dataclasses import replace

import numpy as np
import pytest

from adasearch import (
    DistributionSpec,
    EngineConfig,
    InvalidSpec,
    QuerySpec,
    SortedDataset,
    choose_algorithm,
    compute_stats,
    generate,
    generate_queries,
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
    parse_csv,
    parse_jsonl,
    run_suite,
    run_trial,
)
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
        assert stats.uniformity_score > 1.0
        assert choose_algorithm(stats).algorithm == BINARY

    def test_exponential_scores_binary(self):
        ds = generate(DistributionSpec("exponential", 2**14, 3))
        assert choose_algorithm(compute_stats(ds)).algorithm == BINARY

    def test_uniform_scores_interpolation(self):
        ds = generate(DistributionSpec("uniform", 2**14, 3))
        assert choose_algorithm(compute_stats(ds)).algorithm == INTERPOLATION

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
    ])
    def test_invalid_params(self, kind, params):
        # parameters are checked at n = 0 too, not only once there are keys
        for n in (10,) if (kind, params) in self.DRAWS_LEAVE_INT64 else (10, 0):
            with pytest.raises(InvalidSpec):
                generate(DistributionSpec(kind, n, 1, params))

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            DistributionSpec("gaussian", 10, 1)


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
            rec = run_trial(EngineConfig(), DistributionSpec("uniform", len(ds), 1),
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


class TestRunTrial:
    def test_members_always_found(self):
        rec = run_trial(EngineConfig(), DistributionSpec("uniform", 2**12, 1),
                        QuerySpec(2000, "members", seed=2), ADAPTIVE)
        assert rec.found_rate == 1.0
        assert rec.queries == 2000

    def test_repeat_stream_hit_rate(self):
        rec = run_trial(EngineConfig(cache_capacity=10**5),
                        DistributionSpec("uniform", 2**16, 1),
                        QuerySpec(10**4, "repeated", repeat_fraction=0.5, seed=2), ADAPTIVE)
        assert rec.cache_hit_rate is not None
        assert rec.cache_hit_rate >= 0.4

    def test_linear_mean_probes_near_half_n(self):
        n = 10**3
        rec = run_trial(EngineConfig(), DistributionSpec("uniform", n, 5, {"lo": 0, "hi": 2**40}),
                        QuerySpec(5000, "members", seed=6), LINEAR)
        expected = (n + 1) / 2
        assert rec.mean_probes == pytest.approx(expected, rel=0.10)

    def test_baselines_have_no_hit_rate(self):
        rec = run_trial(EngineConfig(), DistributionSpec("uniform", 256, 1),
                        QuerySpec(100, seed=2), BINARY)
        assert rec.cache_hit_rate is None


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


def reference_record(engine_cfg, spec, qs, algorithm, ds, targets):
    """The record run_trial gives, from the scalar kernels, one query at a time."""
    kernel = algorithm
    if algorithm == ADAPTIVE:
        kernel = choose_algorithm(compute_stats(ds, engine_cfg.selector), engine_cfg.selector).algorithm
    outs = [KERNELS[kernel](ds, t) for t in targets]
    probes = [o.trace.probes for o in outs]
    q = len(targets)
    return bench.TrialRecord(
        algorithm=algorithm, distribution=spec.summary(), n=len(ds), queries=q,
        found_rate=sum(o.index is not None for o in outs) / q,
        mean_probes=sum(probes) / q,
        p99_probes=float(np.percentile(probes, 99)),
        cache_hit_rate=reference_hit_rate(engine_cfg.cache_capacity, targets)
        if algorithm == ADAPTIVE else None,
        wall_time_ns=0, seed=f"{spec.seed}/{qs.seed}")


class TestBatchTrial:
    ALGORITHMS = (BINARY, INTERPOLATION, ADAPTIVE, LINEAR)

    def check(self, engine_cfg, spec, qs, ds, targets):
        for algorithm in self.ALGORITHMS:
            rec = run_trial(engine_cfg, spec, qs, algorithm, dataset=ds, targets=targets)
            expected = reference_record(engine_cfg, spec, qs, algorithm, ds, targets)
            assert replace(rec, wall_time_ns=0) == expected

    @pytest.mark.parametrize("kind", ["uniform", "exponential", "zipf", "clustered"])
    def test_matches_scalar_kernels(self, kind):
        cfg = EngineConfig(cache_capacity=8)
        for i, n in enumerate((1, 5, 17, 300)):
            spec = DistributionSpec(kind, n, 10 + i)
            ds = generate(spec)
            for mode in ("members", "mixed", "repeated"):
                qs = QuerySpec(60, mode, repeat_fraction=0.5, seed=20 + i)
                self.check(cfg, spec, qs, ds, generate_queries(ds, qs))

    def test_wide_keys(self):
        # (n - 1) * (max - min) >= 2**63: int64 interpolation would overflow
        ds = SortedDataset.from_values(range(-(2**62), 2**62 + 1, 2**58))
        assert len(ds) >= 16
        assert choose_algorithm(compute_stats(ds)).algorithm == INTERPOLATION
        targets = list(ds.values) + [-(2**62) - 1, 5, 2**62 - 3, 2**62 + 1] + list(ds.values[:9])
        self.check(EngineConfig(cache_capacity=4), DistributionSpec("uniform", len(ds), 1),
                   QuerySpec(len(targets), seed=1), ds, targets)

    def test_targets_beyond_int64(self):
        ds = SortedDataset.from_values(list(range(0, 200, 3)))
        targets = [3, 2**63, 6, 2**63, 7, -(2**63) - 1, 3, 2**70]
        self.check(EngineConfig(cache_capacity=2), DistributionSpec("uniform", len(ds), 1),
                   QuerySpec(len(targets), seed=1), ds, targets)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float_target_raises(self, algorithm):
        # a float is not truncated to the int64 it would convert to
        ds = SortedDataset.from_values([1, 5, 9])
        with pytest.raises(TypeError):
            run_trial(EngineConfig(), DistributionSpec("uniform", len(ds), 1),
                      QuerySpec(1, seed=1), algorithm, dataset=ds, targets=[5.5])

    def test_spot_check_fires_on_the_batch_path(self, monkeypatch):
        def every_target_missed(keys, targets, algorithm):
            return np.full(len(targets), -1, dtype=np.int64), np.ones(len(targets), dtype=np.int64)

        monkeypatch.setattr(bench, "search_batch", every_target_missed)
        for algorithm in self.ALGORITHMS:
            with pytest.raises(SpotCheckError):
                run_trial(EngineConfig(), DistributionSpec("uniform", 256, 1),
                          QuerySpec(100, "members", seed=2), algorithm)


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

    def test_csv_jsonl_csv_round_trip(self):
        records = self.make_records()
        csv1 = emit_report(records, CSV)
        jl = emit_report(parse_csv(csv1), JSONL)
        csv2 = emit_report(parse_jsonl(jl), CSV)
        assert csv1 == csv2

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
