"""The adaptive pipeline: cache check, per-dataset algorithm choice, kernel
dispatch, cache fill."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .cache import CacheStats, LruCache
from .dataset import DatasetId, SortedDataset
from .search import KERNELS, SearchOutcome
from .selector import AlgorithmChoice, DistributionStats, SelectorConfig, choose_algorithm, compute_stats

CACHE = "cache"


@dataclass(frozen=True)
class EngineConfig:
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    cache_capacity: int = 1024

    def __post_init__(self):
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


class RegisteredDataset(NamedTuple):
    dataset: SortedDataset
    stats: DistributionStats
    choice: AlgorithmChoice


class QueryResult(NamedTuple):
    outcome: SearchOutcome
    cache_hit: bool
    algorithm_used: str  # kernel tag, or "cache" when served from cache


class EngineReport(NamedTuple):
    choices: dict[DatasetId, AlgorithmChoice]
    cache: CacheStats
    kernel_probes: int


class SearchEngine:
    """Owns one result cache and a registry of analyzed datasets. Selection
    happens once at registration; queries pay only a cache lookup plus, on a
    miss, the chosen kernel. Requires exclusive access per operation."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self._cache = LruCache(self.config.cache_capacity)
        self._registry: dict[DatasetId, RegisteredDataset] = {}
        self.kernel_probes = 0  # total probes spent in kernels (misses only)

    def register(self, ds: SortedDataset) -> RegisteredDataset:
        reg = self._registry.get(ds.id)
        if reg is None:
            stats = compute_stats(ds, self.config.selector)
            choice = choose_algorithm(stats, self.config.selector)
            reg = RegisteredDataset(ds, stats, choice)
            self._registry[ds.id] = reg
        return reg

    def search(self, reg: RegisteredDataset, target: int) -> QueryResult:
        """Cache first; on a miss, run the registered kernel and store the
        outcome, including not-found outcomes. A float target raises
        TypeError, cached or not."""
        target = operator.index(target)
        # A plain tuple equals and hashes like CacheKey(id, target), so it is
        # the same cache entry; the key and QueryResult skip NamedTuple's
        # Python-level __new__, a large share of a cache hit's cost.
        key = (reg.dataset.id, target)
        cached = self._cache.get(key)
        if cached is not None:
            return tuple.__new__(QueryResult, (cached, True, CACHE))
        algorithm = reg.choice.algorithm
        outcome = KERNELS[algorithm](reg.dataset, target)
        self.kernel_probes += outcome.trace.probes
        self._cache.put(key, outcome)
        return tuple.__new__(QueryResult, (outcome, False, algorithm))

    def report(self) -> EngineReport:
        return EngineReport(
            choices={did: reg.choice for did, reg in self._registry.items()},
            cache=self._cache.stats(),
            kernel_probes=self.kernel_probes,
        )
