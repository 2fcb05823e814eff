"""Seeded inputs for the benchmark workloads.

Every input is a function of (workload, seed) alone and is built with numpy
before any timing starts. Nothing here calls into adasearch, so a later
change to the library's own generators cannot change what the benchmark
feeds it: two commits compared on one seed see byte-identical dataset files
and query streams.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Auto-increment IDs with ~20% of rows deleted: gaps are geometric with
# p = 0.8, whose coefficient of variation is sqrt(1 - p) ~= 0.45. That sits
# well under the selector's default tau = 1.0 at every seed, unlike
# uniform-random keys (CV ~= 1.0), where the choice flips with the seed.
DENSE_IDS_KEEP = 0.8

# The recipe and defaults of adasearch's `zipf` generator (s = 1.2 over a
# universe of 10^6 ranks), restated here so the inputs do not depend on it.
ZIPF_S = 1.2
ZIPF_UNIVERSE = 10**6

UNIFORM_HI = 2**32

# Sub-stream tags mixed into the seed, so datasets and query streams draw
# from independent generators.
DATASET_STREAM = 0
QUERY_STREAM = 1


def rng_for(seed: int, workload_code: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, workload_code, stream]))


def dense_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.cumsum(rng.geometric(DENSE_IDS_KEEP, size=n)).astype(np.int64)


def zipf_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = np.arange(1, ZIPF_UNIVERSE + 1, dtype=np.float64) ** -ZIPF_S
    weights /= weights.sum()
    keys = (rng.choice(ZIPF_UNIVERSE, size=n, p=weights) + 1).astype(np.int64)
    keys.sort()
    return keys


def uniform_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    keys = rng.integers(0, UNIFORM_HI, size=n, endpoint=True, dtype=np.int64)
    keys.sort()
    return keys


def member_queries(rng: np.random.Generator, keys: np.ndarray, count: int) -> np.ndarray:
    """Uniform draws from the dataset's elements, so popular keys repeat."""
    return keys[rng.integers(0, len(keys), size=count)]


def mixed_queries(rng: np.random.Generator, keys: np.ndarray, count: int) -> np.ndarray:
    """Half member draws, half uniform over [min, max]."""
    member = rng.random(count) < 0.5
    drawn = keys[rng.integers(0, len(keys), size=count)]
    uniform = rng.integers(keys[0], keys[-1], size=count, endpoint=True, dtype=np.int64)
    return np.where(member, drawn, uniform)


def write_dataset(path: Path, keys: np.ndarray) -> None:
    """The library's text format: one base-10 integer per line, LF separated."""
    path.write_text("\n".join(map(str, keys.tolist())) + "\n", encoding="utf-8")
