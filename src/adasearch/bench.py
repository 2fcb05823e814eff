"""Benchmark harness: trials, suites, and report emission.

A trial runs one algorithm against one generated dataset and query stream and
aggregates probe counts, found rate, cache hit rate, and wall time. Within a
suite cell the competing algorithms receive the identical dataset and query
stream, so probe differences are attributable to the algorithm alone.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .dataset import SortedDataset
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
from .engine import EngineConfig
from .search import BINARY, INTERPOLATION, LINEAR, search_batch
from .selector import choose_algorithm, compute_stats

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
    the engine's capacity gives the engine's hits, misses and evictions."""
    cache = LruCache(capacity)
    for target in targets:
        if cache.get(target) is None:
            cache.put(target, target)
    return cache.stats().hit_rate


def run_trial(
    engine_cfg: EngineConfig,
    spec: DistributionSpec,
    query_spec: QuerySpec,
    algorithm: str = ADAPTIVE,
    dataset: SortedDataset | None = None,
    targets: list[int] | None = None,
) -> TrialRecord:
    """Execute one benchmark cell. A pre-generated dataset/target stream may
    be passed in so paired trials share them exactly.

    Every trial runs its kernel over all targets at once
    (search.search_batch); adaptive runs the kernel the engine's register
    would choose, without fingerprinting the dataset."""
    if algorithm not in TRIAL_ALGORITHMS:
        raise ValueError(f"unknown trial algorithm: {algorithm!r}")
    ds = dataset if dataset is not None else generate(spec)
    if targets is None:
        targets = generate_queries(ds, query_spec)

    kernel = algorithm
    cache_hit_rate: Optional[float] = None
    if algorithm == ADAPTIVE:
        kernel = choose_algorithm(compute_stats(ds), engine_cfg.tau).algorithm
        cache_hit_rate = _replay_hit_rate(engine_cfg.cache_capacity, targets)
    t0 = time.perf_counter_ns()
    index, probes = search_batch(ds.array, targets, kernel)
    wall = time.perf_counter_ns() - t0
    found = index >= 0

    # found-ness spot check on a random 1% subsample
    if targets:
        check_rng = np.random.default_rng(query_spec.seed + 0x5F07)
        k = max(1, len(targets) // 100)
        for i in check_rng.integers(0, len(targets), size=k):
            expected = first_occurrence(ds.array, targets[i]) >= 0
            if found[i] != expected:
                raise SpotCheckError(
                    f"query {targets[i]}: {algorithm} found={found[i]}, oracle found={expected}")

    q = len(targets)
    return TrialRecord(
        algorithm=algorithm,
        distribution=spec.summary(),
        n=len(ds),
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
    engine: EngineConfig = field(default_factory=EngineConfig)


def _cell_seeds(base_seed: int, cell_index: int) -> tuple[int, int]:
    # deterministic per-cell derivation; dataset and query streams independent
    s = base_seed * 1_000_003 + cell_index * 2
    return s, s + 1


def run_suite(cfg: SuiteConfig) -> list[TrialRecord]:
    """One TrialRecord per (distribution, size, algorithm) cell; dataset and
    query stream are generated once per (distribution, size) group and shared
    across algorithms. Fails fast on the first generation error."""
    records: list[TrialRecord] = []
    cell_index = 0
    for kind in cfg.distributions:
        for n in cfg.sizes:
            ds_seed, q_seed = _cell_seeds(cfg.seed, cell_index)
            cell_index += 1
            spec = DistributionSpec(kind, n, ds_seed)
            qs = QuerySpec(cfg.queries, cfg.query_mode, cfg.repeat_fraction, q_seed)
            try:
                ds = generate(spec)
                targets = generate_queries(ds, qs)
            except InvalidSpec as exc:
                raise InvalidSpec(f"suite cell ({kind}, n={n}): {exc}") from exc
            for algorithm in cfg.algorithms:
                records.append(run_trial(cfg.engine, spec, qs, algorithm,
                                         dataset=ds, targets=targets))
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
