"""Benchmark harness: trials, suites, and report emission.

A trial runs one algorithm against one generated dataset and query stream and
aggregates probe counts, found rate, cache hit rate, and wall time. Within a
suite cell the competing algorithms receive the identical dataset and query
stream, so probe differences are attributable to the algorithm alone. The
suite's batch path is all here: int_targets, the lockstep search_batch over the
keys as given, and first_occurrence, the spot check's oracle independent of it.
"""

from __future__ import annotations

import json
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .dataset import INT64_MAX, INT64_MIN, SortedDataset
from .distributions import (
    DistributionSpec,
    EXPONENTIAL,
    InvalidSpec,
    MEMBERS,
    QuerySpec,
    UNIFORM,
    generate,
    generate_queries,
)
from .cache import LruCache
from .engine import CACHE_CAPACITY, SearchEngine
from .search import BINARY, INTERPOLATION, LINEAR

ADAPTIVE = "adaptive"

TRIAL_ALGORITHMS = (BINARY, INTERPOLATION, LINEAR, ADAPTIVE)

TABLE = "table"
CSV = "csv"
JSONL = "jsonl"


class UnknownFormat(ValueError):
    pass


class SpotCheckError(AssertionError):
    """A query's found-ness disagreed with the first-occurrence oracle."""


@dataclass(frozen=True)
class TrialRecord:
    algorithm: str
    distribution: str
    n: int
    queries: int
    # "places": decimals a float column is rounded to, in every report format
    found_rate: float = field(metadata={"places": 4})
    mean_probes: float = field(metadata={"places": 2})
    p99_probes: float = field(metadata={"places": 2})
    cache_hit_rate: Optional[float] = field(metadata={"places": 4})
    wall_time_ns: int
    seed: str


# Every report format takes its columns, their order and types from TrialRecord.
_FIELDS = tuple(f.name for f in fields(TrialRecord))
_DECIMALS = {f.name: f.metadata["places"] for f in fields(TrialRecord) if "places" in f.metadata}
CSV_HEADER = ",".join(_FIELDS)


def first_occurrence(values: Sequence[int], target: int) -> int:
    """Index of the first occurrence of target in nondecreasing values, or -1:
    the index search.linear_search returns, found by bisection."""
    i = bisect_left(values, target)
    return i if i < len(values) and values[i] == target else -1


def _replay_hit_rate(capacity: int, targets: Sequence[int]) -> float:
    """The engine's cache hit rate on a target stream. A hit returns the
    outcome the kernel produced for that same target, so the kernel's work
    does not depend on the stream, and replaying its keys through one LRU of
    the engine's capacity gives the engine's hits, misses and evictions; with
    at most `capacity` distinct targets, nothing is evicted."""
    q, distinct = len(targets), len(set(targets))
    if distinct <= capacity:
        return (q - distinct) / q if q else 0.0
    cache = LruCache(capacity)
    for target in targets:
        if cache.get(target) is None:
            cache.put(target, target)
    return cache.stats().hit_rate


def int_targets(targets: Sequence[int]) -> np.ndarray:
    """Targets through operator.index, as the kernels take them (a float raises
    TypeError): an int64 array, or an object array if one lies beyond int64."""
    if isinstance(targets, np.ndarray) and targets.dtype == np.int64:
        return targets
    t = [operator.index(x) for x in targets]
    try:
        return np.array(t, dtype=np.int64)
    except OverflowError:
        return np.array(t, dtype=object)


def search_batch(keys: np.ndarray, targets: Sequence[int], algorithm: str) -> tuple[np.ndarray, np.ndarray]:
    """Every target's index and probe count under one kernel, at once.

    `keys` is a nondecreasing int64 array, read as given (never copied or
    cast); `targets` go through int_targets. Binary and interpolation search
    run in lockstep: each round probes every live target's position with one
    vector read and narrows its [lo, hi] window as the scalar kernel does
    (interpolation with its guard); a finished lane stays and keeps its
    answer. Linear search takes the first occurrence from np.searchsorted: a
    scan probes index + 1 keys on a find, n on a miss. Returns int64 arrays
    (index, probes), -1 for a miss. Python ints hold only targets beyond int64
    and, on keys with (n - 1) * (max - min) >= 2**63, interpolation's window ends.
    """
    n = len(keys)
    if algorithm not in (BINARY, INTERPOLATION, LINEAR):
        raise ValueError(f"no batch kernel for {algorithm!r}")
    wide = n > 1 and (n - 1) * (int(keys[-1]) - int(keys[0])) >= 2**63
    t = int_targets(targets)
    if algorithm == LINEAR:
        # bisected within int64, so the keys stay int64; a target beyond it matches no key
        first = np.searchsorted(keys, t.clip(INT64_MIN, INT64_MAX).astype(np.int64, copy=False))
        hit = first < n
        hit[hit] = keys[first[hit]] == t[hit]
        return np.where(hit, first, -1), np.where(hit, first + 1, n)
    m = len(t)
    index, probes = np.full(m, -1, dtype=np.int64), np.zeros(m, dtype=np.int64)
    if not n:
        return index, probes
    lo, hi = np.zeros(m, dtype=np.int64), np.full(m, n - 1, dtype=np.int64)
    if algorithm == BINARY:
        # a hit leaves lo = pos + 1, hi = pos - 1 and a miss an empty window whose
        # midpoint key is not t; later rounds keep both windows' midpoints
        while True:
            pos = (lo + hi) >> 1
            live = lo <= hi
            if not live.any():
                return np.where(keys[pos] == t, pos, -1), probes
            probes += live
            v = keys[pos]
            lo = np.where(v <= t, pos + 1, lo)
            hi = np.where(v >= t, pos - 1, hi)
    # a window whose end keys enclose t never empties; a lane leaves `live`
    # on a hit or when t leaves that range, and its window is not moved again
    guard, rounds, live = n.bit_length(), 0, np.ones(m, dtype=bool)
    while True:
        vl, vh = keys[lo], keys[hi]
        if wide:  # the window ends as Python ints, exact in the position's difference and product
            vl, vh = vl.astype(object), vh.astype(object)
        live &= (vl <= t) & (t <= vh)
        if not live.any():
            return index, probes
        probes += live
        # equal endpoints leave t == vl, so pos == lo: the scalar kernel's single
        # probe of the low end; every live lane has made `rounds` probes, as the guard counts
        if rounds < guard:
            d = np.where(live, t, vl) - vl  # 0 for a finished lane: pos = lo
            pos = (lo + (hi - lo) * d // np.maximum(vh - vl, 1)).astype(np.int64, copy=False)
        else:
            pos = np.where(vl == vh, lo, (lo + hi) >> 1)
        rounds += 1
        v = keys[pos]
        hit = live & (v == t)
        index = np.where(hit, pos, index)
        live ^= hit
        lo = np.where(live & (v < t), pos + 1, lo)
        hi = np.where(live & (v > t), pos - 1, hi)


def run_trial(
    spec: DistributionSpec,
    query_spec: QuerySpec,
    algorithm: str,
    dataset: SortedDataset,
    targets: Sequence[int] | np.ndarray,
    cache_capacity: int = CACHE_CAPACITY,
) -> TrialRecord:
    """Execute one algorithm on a suite cell: the dataset and target stream
    run_suite made from spec and query_spec, which every algorithm of the
    cell shares; an int64 target array is used as it is, so run_suite
    converts each stream once. The kernel runs over all targets in one
    search_batch call; adaptive runs the kernel SearchEngine.register
    chooses and reports the hit rate of a cache of cache_capacity results."""
    if algorithm not in TRIAL_ALGORITHMS:
        raise ValueError(f"unknown trial algorithm: {algorithm!r}")
    targets = int_targets(targets)

    kernel = algorithm
    cache_hit_rate: Optional[float] = None
    if algorithm == ADAPTIVE:
        kernel = SearchEngine().register(dataset).choice.algorithm
        cache_hit_rate = _replay_hit_rate(cache_capacity, targets.tolist())
    t0 = time.perf_counter_ns()
    index, probes = search_batch(dataset.array, targets, kernel)
    wall = time.perf_counter_ns() - t0
    found = index >= 0

    for i in range(0, len(targets), 100):  # found-ness spot check on every 100th target
        oracle = first_occurrence(dataset.array, targets[i]) >= 0
        if found[i] != oracle:
            raise SpotCheckError(f"query {targets[i]}: {algorithm} found={found[i]}, oracle found={oracle}")

    q = len(targets)
    return TrialRecord(
        algorithm=algorithm,
        distribution=spec.summary(),
        n=len(dataset),
        queries=q,
        # exact integer sums, as over Python ints
        found_rate=int(np.count_nonzero(found)) / q if q else 0.0,
        mean_probes=int(probes.sum()) / q if q else 0.0,
        p99_probes=float(np.percentile(probes, 99)) if q else 0.0,
        cache_hit_rate=cache_hit_rate,
        wall_time_ns=int(wall),
        seed=f"{spec.seed}/{query_spec.seed}",
    )


@dataclass(frozen=True)
class SuiteConfig:
    distributions: tuple[str, ...] = (UNIFORM, EXPONENTIAL)
    sizes: tuple[int, ...] = (2**10, 2**14, 2**18, 2**20)
    algorithms: tuple[str, ...] = TRIAL_ALGORITHMS
    queries: int = 1000
    query_mode: str = MEMBERS
    repeat_fraction: float = 0.0
    seed: int = 0
    cache_capacity: int = CACHE_CAPACITY  # behind the adaptive rows' hit rate

    def __post_init__(self):
        for name in ("distributions", "sizes", "algorithms"):  # argparse gives lists
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


def _cell_seeds(base_seed: int, cell_index: int) -> tuple[int, int]:
    # deterministic per-cell derivation; dataset and query streams independent
    s = base_seed * 1_000_003 + cell_index * 2
    return s, s + 1


def run_suite(cfg: SuiteConfig) -> list[TrialRecord]:
    """One TrialRecord per (distribution, size, algorithm) cell; dataset and
    query stream are generated once per (distribution, size) group and shared
    across algorithms. Fails fast on the first generation error."""
    records: list[TrialRecord] = []
    for cell_index, (kind, n) in enumerate(product(cfg.distributions, cfg.sizes)):
        ds_seed, q_seed = _cell_seeds(cfg.seed, cell_index)
        try:
            spec = DistributionSpec(kind, n, ds_seed)
            qs = QuerySpec(cfg.queries, cfg.query_mode, cfg.repeat_fraction, q_seed)
            ds = generate(spec)
            targets = int_targets(generate_queries(ds, qs))
        except (InvalidSpec, MemoryError) as exc:
            raise InvalidSpec(f"suite cell ({kind}, n={n}): {exc}") from exc
        for algorithm in cfg.algorithms:
            records.append(run_trial(spec, qs, algorithm, ds, targets, cfg.cache_capacity))
    return records


def _cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in _DECIMALS:
        return f"{value:.{_DECIMALS[name]}f}"
    return str(value)


def _json_value(name: str, value):
    # rounded as its report cell is, so every format carries the same values
    return value if value is None or name not in _DECIMALS else round(value, _DECIMALS[name])


def emit_report(records: list[TrialRecord], fmt: str = TABLE) -> str:
    if fmt == JSONL:
        return "".join(json.dumps({name: _json_value(name, getattr(r, name)) for name in _FIELDS}) + "\n"
                       for r in records)
    rows = [[_cell(name, getattr(r, name)) for name in _FIELDS] for r in records]
    if fmt == CSV:
        lines = [CSV_HEADER]
        lines += [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == TABLE:
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(_FIELDS)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(_FIELDS, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown report format: {fmt!r}")
