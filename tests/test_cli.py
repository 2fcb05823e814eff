import csv
import io
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from adasearch import SortedDataset, bench, linear_search
import adasearch.cli as cli
from adasearch.bench import SuiteConfig
from adasearch.cli import main
from adasearch.distributions import MAX_LEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_sorted_file(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    code, _, _ = run(capsys, "gen", "--kind", "uniform", "--n", "20", "--seed", "1",
                     "--out", str(out))
    assert code == 0
    values = [int(x) for x in out.read_text().split()]
    assert len(values) == 20
    assert values == sorted(values)


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "gen", "--kind", "zipf", "--n", "50", "--seed", "9", "--out", str(a))
    run(capsys, "gen", "--kind", "zipf", "--n", "50", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_search_found(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_text("".join(f"{i}\n" for i in range(100)))
    code, out, _ = run(capsys, "search", str(ds), "42")
    assert code == 0
    assert "found: True" in out
    assert "index: 42" in out


def test_search_not_found(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_text("1\n5\n9\n")
    code, out, _ = run(capsys, "search", str(ds), "4")
    assert code == 0
    assert "found: False" in out


def test_search_forced_algorithm(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_text("".join(f"{i}\n" for i in range(100)))
    code, out, _ = run(capsys, "search", str(ds), "42", "--algorithm", "linear")
    assert code == 0
    assert "algorithm: linear" in out
    expected = linear_search(SortedDataset.from_values(range(100)), 42)
    assert f"index: {expected.index}\n" in out
    assert f"probes: {expected.trace.probes}\n" in out


def test_search_unsorted_file_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_text("5\n3\n")
    code, _, err = run(capsys, "search", str(ds), "3")
    assert code == 2
    assert "data error" in err


def test_search_malformed_file_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_text("1\ntwo\n")
    code, _, _ = run(capsys, "search", str(ds), "3")
    assert code == 2


def test_missing_file_is_data_error(tmp_path, capsys):
    code, _, _ = run(capsys, "search", str(tmp_path / "nope.txt"), "3")
    assert code == 2


def test_directory_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "search", str(tmp_path), "3")
    assert code == 2
    assert err.startswith("adasearch: data error:") and err.count("\n") == 1


def test_invalid_utf8_is_data_error(tmp_path, capsys):
    ds = tmp_path / "ds.txt"
    ds.write_bytes(b"1\n\xff\xfe\n")
    code, _, err = run(capsys, "search", str(ds), "1")
    assert code == 2
    assert err.startswith("adasearch: data error:") and err.count("\n") == 1


def test_bench_empty_cell_is_data_error(capsys):
    code, _, err = run(capsys, "bench", "--seed", "1", "--sizes", "0",
                       "--distributions", "uniform", "--algorithms", "binary")
    assert code == 2
    assert "(uniform, n=0)" in err and err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [(("--sizes", "-4"), "(uniform, n=-4): n must be >= 0"),
                                           (("--queries", "-1"), "(uniform, n=256): count must be >= 0")])
def test_bench_invalid_cell_spec_names_its_cell(capsys, flags, message):
    code, _, err = run(capsys, "bench", "--seed", "1", "--sizes", "256", "--distributions", "uniform",
                       "--algorithms", "binary", *flags)
    assert code == 2
    assert err == f"adasearch: data error: suite cell {message}\n"


TOO_LONG = f"must be <= {MAX_LEN}, the most"


@pytest.mark.parametrize("argv, message", [
    (("gen", "--kind", "uniform", "--n", str(MAX_LEN + 1)), f"n {TOO_LONG} int64 keys"),
    (("bench", "--sizes", str(MAX_LEN + 1)), f"suite cell (uniform, n={MAX_LEN + 1}): n {TOO_LONG} int64 keys"),
    (("bench", "--sizes", "16", "--queries", str(2**62)), f"suite cell (uniform, n=16): count {TOO_LONG} queries"),
])
def test_a_length_numpy_cannot_allocate_is_data_error(capsys, argv, message):
    # refused by the spec, not by numpy's "array is too big" ValueError (exit 1)
    code, out, err = run(capsys, *argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"adasearch: data error: {message} numpy can allocate\n"


@pytest.mark.parametrize("name", ["generate", "generate_queries"])
def test_bench_memory_error_names_its_cell(capsys, monkeypatch, name):
    # a length below MAX_LEN that numpy still cannot allocate; raised here, since
    # a host that overcommits memory may grant the real request
    def unable(*args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(bench, name, unable)
    code, out, err = run(capsys, "bench", "--seed", "1", "--sizes", "16", "--distributions", "uniform",
                         "--algorithms", "binary")
    assert (code, out) == (2, "")
    assert err == "adasearch: data error: suite cell (uniform, n=16): Unable to allocate 8.00 TiB for an array\n"


@pytest.mark.parametrize("mode", ["members", "mixed"])
def test_bench_repeat_fraction_outside_repeated_mode_is_data_error(capsys, mode):
    # only repeated streams read the fraction; elsewhere it is refused, not ignored
    code, out, err = run(capsys, "bench", "--seed", "1", "--sizes", "256", "--distributions", "uniform",
                         "--algorithms", "binary", "--query-mode", mode, "--repeat-fraction", "0.9")
    assert (code, out) == (2, "")
    assert err == (f"adasearch: data error: suite cell (uniform, n=256): "
                   f"{mode} queries read no repeat_fraction (got 0.9)\n")


def test_gen_overflowing_draws_are_data_error(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    for flags in (("--kind", "exponential", "--scale", "1e30"),
                  ("--kind", "uniform", "--hi", str(2**64)),
                  ("--kind", "clustered", "--lo", str(-(2**63) - 1)),
                  ("--kind", "zipf", "--zipf-s", "nan"),
                  # refused by the bound on the universe before any weight is allocated
                  ("--kind", "zipf", "--universe", str(10**18)),
                  # numpy refuses the 6.94 EiB of keys before allocating any (MemoryError)
                  ("--kind", "uniform", "--n", str(10**18)),
                  # one centre a cluster: refused before numpy's "array is too big" (exit 1)
                  ("--kind", "clustered", "--clusters", str(2**62))):
        code, _, err = run(capsys, "gen", "--n", "20", *flags, "--seed", "1", "--out", str(out))
        assert code == 2, flags
        assert "data error" in err and err.count("\n") == 1
        assert not out.exists()


def test_search_invalid_cache_size_is_usage_error(tmp_path, capsys):
    # search consults no cache, so it has no --cache-size; the selector's
    # length floor and gap-sample cap are constants, flags on neither command
    ds = tmp_path / "ds.txt"
    ds.write_text("1\n5\n9\n")
    for argv in (("search", str(ds), "5", "--cache-size", "0"),
                 ("search", str(ds), "5", "--min-interp-len", "16"),
                 ("search", str(ds), "5", "--gap-samples", "4096"),
                 ("bench", "--seed", "1", "--min-interp-len", "16"),
                 ("bench", "--seed", "1", "--gap-samples", "4096")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.endswith(f"adasearch: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_tau_is_an_unrecognised_argument(tmp_path, capsys):
    # the selector has no threshold to set, on either command
    ds = tmp_path / "ds.txt"
    ds.write_text("1\n5\n9\n")
    for argv in (("search", str(ds), "5", "--tau", "1"), ("bench", "--seed", "1", "--tau", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.endswith("adasearch: error: unrecognized arguments: --tau 1\n")


def test_bench_cache_size_below_one_is_refused_before_the_suite_runs(monkeypatch, capsys):
    def run_suite(cfg):
        raise AssertionError("run_suite was called")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    code, out, err = run(capsys, "bench", "--seed", "1", "--cache-size", "0")
    assert (code, out, err) == (1, "", "adasearch: error: cache_capacity must be >= 1\n")


def test_every_bench_flag_sets_its_suite_config_field(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: seen.append(cfg) or [])
    code, out, err = run(capsys, "bench", "--seed", "7", "--sizes", "64", "128",
                         "--distributions", "zipf", "clustered", "--algorithms", "linear", "binary",
                         "--queries", "9", "--query-mode", "repeated", "--repeat-fraction", "0.25",
                         "--cache-size", "3", "--format", "csv")
    assert (code, err) == (0, "")
    expected = SuiteConfig(distributions=("zipf", "clustered"), sizes=(64, 128),
                           algorithms=("linear", "binary"), queries=9, query_mode="repeated",
                           repeat_fraction=0.25, seed=7, cache_capacity=3)
    assert seen == [expected]  # tuples, not argparse's lists
    for f in fields(SuiteConfig):  # so a field no flag sets would show here
        assert getattr(expected, f.name) != f.default, f.name


def test_gen_unread_parameters_are_data_error(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    code, stdout, err = run(capsys, "gen", "--kind", "exponential", "--n", "3", "--seed", "1",
                            "--lo", "5", "--hi", "9", "--universe", "7", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "adasearch: data error: exponential reads only scale, not hi, lo, m\n"
    assert not out.exists()


def test_bench_spot_check_failure_is_internal_error(monkeypatch, capsys):
    def every_target_missed(keys, targets, algorithm):
        return np.full(len(targets), -1, dtype=np.int64), np.ones(len(targets), dtype=np.int64)

    monkeypatch.setattr(bench, "search_batch", every_target_missed)
    code, out, err = run(capsys, "bench", "--seed", "1", "--sizes", "256", "--queries", "50",
                         "--distributions", "uniform", "--algorithms", "linear")
    assert code == 3
    assert out == ""
    assert err.startswith("adasearch: internal error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "gen", "--kind", "nope", "--n", "5")
    assert (code, out) == (1, "")
    assert "adasearch gen: error: argument --kind: invalid choice" in err  # returned, not raised


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "bench", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: adasearch bench")


def test_bench_csv_to_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--seed", "1", "--format", "csv",
                     "--out", str(out), "--sizes", "256", "--queries", "50",
                     "--distributions", "uniform", "--algorithms", "binary", "adaptive")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("algorithm,distribution")
    assert len(lines) == 3


def test_bench_prints_generated_seed(capsys):
    code, out, err = run(capsys, "bench", "--sizes", "128", "--queries", "10",
                         "--distributions", "uniform", "--algorithms", "binary")
    assert code == 0
    assert "seed:" in err


def test_bench_prints_one_drawn_seed_which_reproduces_the_report(capsys):
    argv = ("bench", "--format", "jsonl", "--sizes", "128", "--queries", "10",
            "--distributions", "uniform", "--algorithms", "binary", "adaptive")

    def rows(report):
        return [{k: v for k, v in json.loads(line).items() if k != "wall_time_ns"}
                for line in report.splitlines()]

    code, out, err = run(capsys, *argv)
    assert code == 0
    assert re.fullmatch(r"seed: \d+\n", err)
    again, out_again, err_again = run(capsys, *argv, "--seed", err.split()[1])
    assert (again, err_again) == (0, "")
    assert rows(out_again) == rows(out) and len(rows(out)) == 2


def test_gen_prints_generated_seed_which_reproduces_the_output(capsys):
    code, out, err = run(capsys, "gen", "--kind", "uniform", "--n", "50")
    assert code == 0
    assert err.startswith("seed: ") and err.count("\n") == 1
    assert run(capsys, "gen", "--kind", "uniform", "--n", "50",
               "--seed", err.split()[1]) == (0, out, "")


def test_bench_selector_flags(capsys):
    # --cache-size sizes the cache behind the adaptive row's hit rate
    hit_rate = {}
    for flags in ((), ("--cache-size", "1024"), ("--cache-size", "1")):
        code, out, _ = run(capsys, "bench", "--seed", "5", "--format", "csv",
                           "--sizes", "4096", "--queries", "200", "--distributions", "exponential",
                           "--algorithms", "adaptive", "--query-mode", "repeated",
                           "--repeat-fraction", "0.5", *flags)
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        hit_rate[flags] = float(row["cache_hit_rate"])
    assert hit_rate[()] == hit_rate[("--cache-size", "1024")] > hit_rate[("--cache-size", "1")]
