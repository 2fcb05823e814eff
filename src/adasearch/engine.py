"""The adaptive pipeline: cache check, per-dataset algorithm choice, kernel
dispatch, cache fill."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .cache import CacheStats, LruCache
from .dataset import SortedDataset
from .search import KERNELS, SearchOutcome
from .selector import AlgorithmChoice, DistributionStats, choose_algorithm, compute_stats

CACHE = "cache"
CACHE_CAPACITY = 1024  # results an engine keeps by default


@dataclass(frozen=True, slots=True, eq=False)
class RegisteredDataset:
    """A dataset as one engine analyzed it. It equals and hashes by identity,
    in C, so (registration, target) is a cheap cache key."""

    dataset: SortedDataset
    stats: DistributionStats
    choice: AlgorithmChoice


class QueryResult(NamedTuple):
    outcome: SearchOutcome
    cache_hit: bool
    algorithm_used: str  # kernel tag, or "cache" when served from cache


class EngineReport(NamedTuple):
    registrations: tuple[RegisteredDataset, ...]  # in registration order
    cache: CacheStats
    kernel_probes: int


class SearchEngine:
    """Owns one result cache and a registry of analyzed datasets. Selection
    happens once at registration; queries pay only a cache lookup plus, on a
    miss, the chosen kernel. Requires exclusive access per operation."""

    def __init__(self, cache_capacity: int = CACHE_CAPACITY):
        self._cache = LruCache(cache_capacity)
        self._registry: dict[SortedDataset, RegisteredDataset] = {}
        self.kernel_probes = 0  # total probes spent in kernels (misses only)

    def register(self, ds: SortedDataset) -> RegisteredDataset:
        """Analyze ds once per engine, the one place the selector is called: a
        dataset whose keys equal those of one registered before (the same
        object, a copy, a reload) gets the first registration, compared exactly."""
        reg = self._registry.get(ds)
        if reg is None:
            stats = compute_stats(ds)
            reg = RegisteredDataset(ds, stats, choose_algorithm(stats))
            self._registry[ds] = reg
        return reg

    def search(self, reg: RegisteredDataset, target: int) -> QueryResult:
        """Cache first; on a miss, run the registered kernel. A miss builds
        both results its outcome will ever have: it returns
        QueryResult(outcome, False, algorithm) and caches
        QueryResult(outcome, True, "cache"), not-found outcomes included, so
        a hit returns the stored object and builds nothing. Results are cached
        per (registration, target). A float target raises TypeError, cached
        or not."""
        target = operator.index(target)
        key = (reg, target)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        algorithm = reg.choice.algorithm
        outcome = KERNELS[algorithm](reg.dataset, target)
        self.kernel_probes += outcome.trace.probes
        # the results skip NamedTuple's Python-level __new__, a large share of a query's cost
        self._cache.put(key, tuple.__new__(QueryResult, (outcome, True, CACHE)))
        return tuple.__new__(QueryResult, (outcome, False, algorithm))

    def report(self) -> EngineReport:
        return EngineReport(tuple(self._registry.values()), self._cache.stats(), self.kernel_probes)
