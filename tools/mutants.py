"""Mutation check: does the test suite fail on each catalogued fault?

    python3 tools/mutants.py

Each mutant names a file, an exact source snippet in it, the snippet's
replacement, and the test files that must fail on it. For each mutant, one
after the other, the script copies src/, tests/ and pyproject.toml to a
temporary directory, replaces the snippet there (the working tree is never
changed) and runs `pytest -m "not slow" -x -q` on the named test files
against the copy. A failing run kills the mutant.

It first runs the named test files on an unmutated copy, which must pass.
A snippet that does not occur exactly once fails the script, so a refactor
must update the catalogue with the code. Prints one line per mutant and then
killed/total; exits 1 if a mutant survives or a run cannot be judged.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
# a fixed seed makes the stateful model's runs, and so this script's output, repeat
PYTEST = ("-m", "not slow", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


ENGINE, CACHE, DATASET = "src/adasearch/engine.py", "src/adasearch/cache.py", "src/adasearch/dataset.py"
BENCH, CLI = "src/adasearch/bench.py", "src/adasearch/cli.py"
SEARCH, SELECTOR = "src/adasearch/search.py", "src/adasearch/selector.py"
DISTRIBUTIONS = "src/adasearch/distributions.py"
MODEL = ("tests/test_engine_model.py",)
REGISTER = """\
        reg = self._registry.get(ds)
        if reg is None:
            stats = compute_stats(ds)
            reg = RegisteredDataset(ds, stats, choose_algorithm(stats))
            self._registry[ds] = reg
"""
BLANK_LINES = """\
    if (raw.startswith(b"\\n") or (np.frombuffer(raw, np.uint16, len(raw) // 2) == 0x0A0A).any()
            or (np.frombuffer(raw, np.uint16, (len(raw) - 1) // 2, 1) == 0x0A0A).any()):
        return None
"""
READ_INT = "            return _key(0, v)\n"  # generate's integer parameters, n and count

CATALOGUE = (
    Mutant("cache key of the target alone", ENGINE,
           "        key = (reg, target)\n",
           "        key = target\n", MODEL),
    Mutant("FIFO instead of LRU", CACHE,
           "        entries.move_to_end(key)\n        self.hits += 1\n",
           "        self.hits += 1\n", MODEL),
    Mutant("registry keyed by id(ds)", ENGINE, REGISTER,
           REGISTER.replace(".get(ds)", ".get(id(ds))").replace("[ds] =", "[id(ds)] ="), MODEL),
    Mutant("__hash__ returns id(self)", DATASET,
           "        return hash((len(a), a[::-(-len(a) // 64) or 1].tobytes()))",
           "        return id(self)", MODEL),
    Mutant("__eq__ compares only the strided sample", DATASET,
           "np.array_equal(self.array, other.array)",
           "len(self) == len(other) and np.array_equal("
           "self.array[::-(-len(self) // 64) or 1], other.array[::-(-len(other) // 64) or 1])", MODEL),
    Mutant("float target counts a miss", ENGINE,
           "        target = operator.index(target)\n        key = (reg, target)\n"
           "        hit = self._cache.get(key)\n",
           "        hit = self._cache.get((reg, target))\n        target = operator.index(target)\n"
           "        key = (reg, target)\n", MODEL),
    Mutant("hit builds a new record", ENGINE,
           "            return hit\n",
           "            return QueryResult(*hit)\n", MODEL),
    Mutant("put evicts at capacity, not above it", CACHE,
           "        if len(entries) > self.capacity:\n",
           "        if len(entries) >= self.capacity:\n", ("tests/test_cache.py",)),
    Mutant("JSONL rows left unrounded", BENCH,
           "else round(value, _DECIMALS[name])",
           "else value", ("tests/test_bench.py",)),
    Mutant("table columns left unpadded", BENCH,
           '"  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()',
           '"  ".join(row)', ("tests/test_bench.py",)),
    Mutant("search ignores a forced --algorithm", CLI,
           "    used = args.algorithm or choice.algorithm\n",
           "    used = choice.algorithm\n", ("tests/test_transcript.py",)),
    Mutant("adaptive search ignores the selector", CLI,
           "    used = args.algorithm or choice.algorithm\n",
           "    used = args.algorithm or \"binary\"\n", ("tests/test_transcript.py",)),
    Mutant("MemoryError is not a data error", CLI,
           "UnicodeDecodeError, MemoryError) as exc:",
           "UnicodeDecodeError) as exc:", ("tests/test_cli.py",)),
    Mutant("a data error exits as a usage error", CLI,
           "        return EXIT_DATA\n",
           "        return EXIT_USAGE\n", ("tests/test_cli.py",)),
    # main alone maps argparse's exit and draws an omitted seed
    Mutant("a usage error exits with argparse's 2", CLI,
           "        return exc.code and EXIT_USAGE\n",
           "        return exc.code\n", ("tests/test_cli.py::test_usage_error_exit_code",)),
    Mutant("the drawn seed is not printed", CLI,
           '        print(f"seed: {args.seed}", file=sys.stderr)\n',
           "", ("tests/test_cli.py",)),
    Mutant("a dataset at the length floor picks binary", SELECTOR,
           "if stats.n < MIN_INTERP_LEN:",
           "if stats.n <= MIN_INTERP_LEN:", ("tests/test_selector.py",)),
    Mutant("a tie picks interpolation", SELECTOR,
           "if stats.interpolation_probes < stats.binary_probes:",
           "if stats.interpolation_probes <= stats.binary_probes:",
           ("tests/test_selector.py::TestChooseAlgorithm::test_a_tie_picks_binary",)),
    Mutant("the trial reads only the first 64 keys", SELECTOR,
           "ds.values[i * (n - 1) // (TRIAL_KEYS - 1)]",
           "ds.values[i % n]",
           ("tests/test_selector.py::TestComputeStats::test_trial_keys_span_the_dataset",)),
    Mutant("equal endpoints probe the high end", SEARCH,
           "            visited.append(lo)\n            index = lo\n",
           "            visited.append(hi)\n            index = hi\n", ("tests/test_records.py",)),
    # unguarded, the loops still end: each probe narrows the window
    Mutant("no interpolation guard in the scalar loop", SEARCH,
           "if len(visited) < guard else",
           "if True else", ("tests/test_search.py",)),
    Mutant("no interpolation guard in search_batch", BENCH,
           "        if rounds < guard:\n",
           "        if True:\n", ("tests/test_search.py",)),
    Mutant("binary records a probe only on a miss", SEARCH,
           "        visited.append(mid)\n        if v == target:\n            index = mid\n            break\n",
           "        if v == target:\n            index = mid\n            break\n        visited.append(mid)\n",
           ("tests/test_search.py",)),
    Mutant("search_batch's linear find probes index keys", BENCH,
           "np.where(hit, first + 1, n)",
           "np.where(hit, first, n)", ("tests/test_records.py",)),
    Mutant("a suite cell's MemoryError loses its cell", BENCH,
           "except (InvalidSpec, MemoryError) as exc:",
           "except InvalidSpec as exc:", ("tests/test_cli.py",)),
    Mutant("bench accepts a cache of no results", BENCH,
           "        if self.cache_capacity < 1:\n",
           "        if self.cache_capacity < 0:\n", ("tests/test_cli.py",)),
    Mutant("exponential reads lo and hi", DISTRIBUTIONS,
           'EXPONENTIAL: ("scale",)',
           'EXPONENTIAL: ("scale", "lo", "hi")', ("tests/test_bench.py",)),
    Mutant("replay shortcut past the capacity", BENCH,
           "    if distinct <= capacity:\n",
           "    if distinct <= capacity + 1:\n", ("tests/test_bench.py",)),
    Mutant("big-endian fingerprint", DATASET,
           'np.ascontiguousarray(values, dtype="<i8")',
           'np.ascontiguousarray(values, dtype=">i8")', ("tests/test_dataset.py",)),
    # boundaries: each holds at a value the code must accept or refuse exactly
    Mutant("a draw of -2**63 is refused", DISTRIBUTIONS,
           "(draws >= -(2.0**63))",
           "(draws > -(2.0**63))", ("tests/test_bench.py",)),
    Mutant("a draw of 2**63 is kept", DISTRIBUTIONS,
           "(draws < 2.0**63)",
           "(draws <= 2.0**63)", ("tests/test_bench.py",)),
    Mutant("a key range of one value is refused", DISTRIBUTIONS,
           "if not lo <= hi:",
           "if not lo < hi:", ("tests/test_bench.py",)),
    Mutant("a key range at an int64 end is refused", DISTRIBUTIONS, READ_INT,
           "            if _key(0, v) in (-(2**63), 2**63 - 1):\n"
           "                raise OverflowError\n" + READ_INT, ("tests/test_bench.py",)),
    Mutant("zipf refuses a universe of one", DISTRIBUTIONS,
           "not 1 <= universe <=",
           "not 1 < universe <=", ("tests/test_bench.py",)),
    Mutant("a spec longer than numpy can allocate is accepted", DISTRIBUTIONS,
           "        if self.n > MAX_LEN:\n",
           "        if False:\n", ("tests/test_cli.py",)),
    Mutant("clusters above MAX_LEN are accepted", DISTRIBUTIONS,
           "not 1 <= clusters <= MAX_LEN",
           "not 1 <= clusters", ("tests/test_cli.py",)),
    Mutant("search_batch keeps int64 keys at a product of 2**63", BENCH,
           "(int(keys[-1]) - int(keys[0])) >= 2**63\n",
           "(int(keys[-1]) - int(keys[0])) > 2**63\n", ("tests/test_search.py",)),
    # the batch kernel reads its keys as given: Python ints only for m values, never for n keys
    Mutant("interpolation converts every key to a Python int", BENCH,
           "    guard, rounds, live = n.bit_length(), 0, np.ones(m, dtype=bool)\n",
           "    keys = keys.astype(object) if wide else keys\n"
           "    guard, rounds, live = n.bit_length(), 0, np.ones(m, dtype=bool)\n",
           ("tests/test_bench.py::TestBatchTrial::test_wide_keys_are_read_in_place",)),
    Mutant("the linear bisection takes unclipped targets", BENCH,
           "np.searchsorted(keys, t.clip(INT64_MIN, INT64_MAX).astype(np.int64, copy=False))",
           "np.searchsorted(keys, t)",
           ("tests/test_records.py::test_a_linear_target_beyond_int64_leaves_the_keys_int64",)),
    # the one-pass load: each check keeps a text the line loop reads otherwise off np.fromstring
    Mutant("the one-pass load allows blank lines", DATASET, BLANK_LINES, "",
           ("tests/test_dataset.py::test_load_matches_the_line_loop",)),
    Mutant("the one-pass load counts no signs", DATASET,
           " or neg != len(signs) or ",
           " or ", ("tests/test_dataset.py::test_a_sign_that_numpy_flips_sends_the_text_to_the_loop",)),
    Mutant("the one-pass load takes a key of 10**18", DATASET,
           "_BOUND = 10**18 - 1",
           "_BOUND = 10**18", ("tests/test_dataset.py::test_other_literals_take_the_line_loop",)),
    Mutant("the one-pass length sum is one short", DATASET,
           "2 * n + neg + wide != len(raw)",
           "2 * n + neg + wide - 1 != len(raw)", ("tests/test_dataset.py::test_canonical_text_takes_the_one_pass",)),
    # one key rule: every value not in a 1-D int64 array numpy makes is judged by _key, in index order
    Mutant("the range error skips a value of INT64_MIN", DATASET,
           "not INT64_MIN <= k <= INT64_MAX",
           "not INT64_MIN < k <= INT64_MAX", ("tests/test_dataset.py",)),
    Mutant("the key rule takes 1.5 as 1", DATASET,
           "if k is None or k != v:",
           "if k is None:", ("tests/test_dataset.py",)),
    # the engine is the one place a dataset is analysed and named
    Mutant("report lists registrations out of order", ENGINE,
           "tuple(self._registry.values())",
           "tuple(reversed(self._registry.values()))", ("tests/test_engine.py",)),
    Mutant("the adaptive trial's kernel is not the engine's choice", BENCH,
           "        kernel = SearchEngine().register(dataset).choice.algorithm\n",
           "        kernel = BINARY\n", ("tests/test_bench.py",)),
    # the suite makes each cell once, from seeds its position fixes; the CLI names each setting once
    Mutant("suite cells are numbered from 1", BENCH,
           "enumerate(product(cfg.distributions, cfg.sizes))",
           "enumerate(product(cfg.distributions, cfg.sizes), 1)", ("tests/test_bench.py",)),
    Mutant("bench drops a SuiteConfig field", CLI,
           "for f in fields(SuiteConfig)}",
           'for f in fields(SuiteConfig) if f.name != "queries"}',
           ("tests/test_cli.py::test_every_bench_flag_sets_its_suite_config_field",)),
    Mutant("a 2-D array is adopted", DATASET,
           "        if isinstance(values, np.ndarray) and values.ndim != 1:\n"
           '            raise ValueError(f"keys must be a 1-D array, not one of shape {values.shape}")\n',
           "", ("tests/test_dataset.py::test_an_array_that_is_not_1d_is_refused",)),
    Mutant("generate leaves its keys writable", DISTRIBUTIONS,
           "    arr.setflags(write=False)  # sorted: _adopt skips its descent scan\n",
           "", ("tests/test_bench.py",)),
    Mutant("the spot check skips target 0", BENCH,
           "range(0, len(targets), 100)",
           "range(1, len(targets), 100)",
           ("tests/test_bench.py::TestBatchTrial::test_spot_check_reads_every_100th_target",)),
    Mutant("a generator truncates a float parameter", DISTRIBUTIONS, READ_INT,
           "            return _key(0, int(v) if isinstance(v, float) else v)\n",
           ("tests/test_bench.py::TestGenerate::test_invalid_params",)),
    # from_values keeps numpy's conversion only when it is a 1-D int64 array
    Mutant("the fast path keeps a float64 array", DATASET,
           "arr.dtype != np.int64 or arr.ndim != 1:",
           "arr.dtype not in (np.int64, np.float64) or arr.ndim != 1:",
           ("tests/test_dataset.py::test_from_values_is_the_key_rule_over_mixed_values",)),
    Mutant("a 2-D list takes the fast path", DATASET,
           "arr.dtype != np.int64 or arr.ndim != 1:",
           "arr.dtype != np.int64:",
           ("tests/test_dataset.py::test_from_values_is_the_key_rule_over_mixed_values",)),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", *PYTEST, *tests], cwd=tree, env=env,
                          capture_output=True, text=True)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    source = path.read_text(encoding="utf-8")
    count = source.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"{mutant.name}: its snippet occurs {count} times in {mutant.path}, not once")
    path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="adasearch-mutant-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = tuple(sorted({t for m in CATALOGUE for t in m.tests}))
        proc = run_tests(base, tests)
        if proc.returncode != 0:
            raise SystemExit(f"the unmutated tests fail:\n{proc.stdout}{proc.stderr}")
        killed = 0
        for i, mutant in enumerate(CATALOGUE):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            apply(tree, mutant)
            proc = run_tests(tree, mutant.tests)
            if proc.returncode not in (0, 1):  # 1: a test failed; anything else is not a verdict
                raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
            killed += proc.returncode == 1
            verdict = "killed" if proc.returncode == 1 else "SURVIVED"
            print(f"{verdict:8}  {mutant.name}  [{mutant.path}; {', '.join(mutant.tests)}]", flush=True)
            shutil.rmtree(tree)
    print(f"{killed}/{len(CATALOGUE)} killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
