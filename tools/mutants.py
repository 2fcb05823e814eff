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
MODEL = ("tests/test_engine_model.py",)
REGISTER = """\
        reg = self._registry.get(ds)
        if reg is None:
            stats = compute_stats(ds)
            reg = RegisteredDataset(ds, stats, choose_algorithm(stats, self.config.tau))
            self._registry[ds] = reg
"""

SEARCH_CONFIG = "    cfg = EngineConfig(tau=args.tau)  # a usage error is reported before the file is read\n"
SEARCH_LOAD = """\
    with open(args.dataset, "r", encoding="utf-8") as f:
        ds = load_dataset(f)
"""

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
    Mutant("search validates --tau after the load", CLI,
           SEARCH_CONFIG + SEARCH_LOAD, SEARCH_LOAD + SEARCH_CONFIG, ("tests/test_cli.py",)),
    Mutant("MemoryError is not a data error", CLI,
           "UnicodeDecodeError, MemoryError) as exc:",
           "UnicodeDecodeError) as exc:", ("tests/test_cli.py",)),
    Mutant("a score equal to tau picks binary", SELECTOR,
           "if stats.uniformity_score <= tau:",
           "if stats.uniformity_score < tau:", ("tests/test_selector.py",)),
    Mutant("a dataset at the length floor picks binary", SELECTOR,
           "if stats.n < MIN_INTERP_LEN:",
           "if stats.n <= MIN_INTERP_LEN:", ("tests/test_selector.py",)),
    # unguarded, the loops still end: each probe narrows the window
    Mutant("no interpolation guard in the scalar loop", SEARCH,
           "if len(visited) < guard else",
           "if True else", ("tests/test_search.py",)),
    Mutant("no interpolation guard in search_batch", SEARCH,
           "            if rounds < guard:\n",
           "            if True:\n", ("tests/test_search.py",)),
    Mutant("big-endian fingerprint", DATASET,
           'np.ascontiguousarray(values, dtype="<i8")',
           'np.ascontiguousarray(values, dtype=">i8")', ("tests/test_dataset.py",)),
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
