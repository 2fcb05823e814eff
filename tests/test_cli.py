import numpy as np
import pytest

from adasearch import SortedDataset, bench, linear_search
from adasearch.cli import main


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


def test_gen_overflowing_draws_are_data_error(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    for flags in (("--kind", "exponential", "--scale", "1e30"),
                  ("--kind", "uniform", "--hi", str(2**64)),
                  ("--kind", "clustered", "--lo", str(-(2**63) - 1)),
                  ("--kind", "zipf", "--zipf-s", "nan"),
                  # numpy refuses the 6.94 EiB of weights before allocating any
                  ("--kind", "zipf", "--universe", str(10**18))):
        code, _, err = run(capsys, "gen", *flags, "--n", "20", "--seed", "1", "--out", str(out))
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
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 1, argv
        assert out == ""
        assert err.endswith(f"adasearch: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_search_invalid_tau_is_refused_before_the_file_is_read(tmp_path, capsys):
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1\n5\ntwo\n9\n")
    for path in (tmp_path / "missing.txt", malformed):
        code, out, err = run(capsys, "search", str(path), "5", "--tau", "0")
        assert (code, out, err) == (1, "", "adasearch: error: tau must be > 0\n"), path


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
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "nope", "--n", "5"])
    assert exc.value.code == 1


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


def test_gen_prints_generated_seed_which_reproduces_the_output(capsys):
    code, out, err = run(capsys, "gen", "--kind", "uniform", "--n", "50")
    assert code == 0
    assert err.startswith("seed: ") and err.count("\n") == 1
    assert run(capsys, "gen", "--kind", "uniform", "--n", "50",
               "--seed", err.split()[1]) == (0, out, "")


def test_bench_selector_flags(capsys):
    # tau large enough that exponential data still selects interpolation
    code, out, _ = run(capsys, "bench", "--seed", "5", "--format", "csv",
                       "--sizes", "4096", "--queries", "50",
                       "--distributions", "exponential",
                       "--algorithms", "adaptive", "interpolation",
                       "--tau", "1000000")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    by_algo = {r[0]: r for r in rows}
    assert by_algo["adaptive"][5] == by_algo["interpolation"][5]  # same mean probes
