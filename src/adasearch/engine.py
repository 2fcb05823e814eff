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


@dataclass(frozen=True)
class EngineConfig:
    tau: float = 1.0  # the selector's uniformity threshold
    cache_capacity: int = 1024

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


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
    choices: dict[bytes, AlgorithmChoice]  # keyed by the dataset's fingerprint
    cache: CacheStats
    kernel_probes: int


class SearchEngine:
    """Owns one result cache and a registry of analyzed datasets. Selection
    happens once at registration; queries pay only a cache lookup plus, on a
    miss, the chosen kernel. Requires exclusive access per operation."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self._cache = LruCache(self.config.cache_capacity)
        self._registry: dict[SortedDataset, RegisteredDataset] = {}
        self.kernel_probes = 0  # total probes spent in kernels (misses only)

    def register(self, ds: SortedDataset) -> RegisteredDataset:
        """Analyze ds once per engine: a dataset whose keys equal those of one
        registered before (the same object, a copy, a reload) gets the first
        registration. The keys are compared exactly, not by fingerprint."""
        reg = self._registry.get(ds)
        if reg is None:
            stats = compute_stats(ds)
            reg = RegisteredDataset(ds, stats, choose_algorithm(stats, self.config.tau))
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
        return EngineReport(
            choices={reg.dataset.id: reg.choice for reg in self._registry.values()},
            cache=self._cache.stats(),
            kernel_probes=self.kernel_probes,
        )
