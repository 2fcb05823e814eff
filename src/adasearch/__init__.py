"""Adaptive sorted-key lookup: distribution-aware kernel selection with an
LRU result cache, plus a reproducible benchmark harness."""

from .cache import CacheStats, LruCache
from .dataset import (
    DatasetError,
    NotSortedError,
    ParseError,
    SortedDataset,
    load_dataset,
)
from .distributions import DistributionSpec, InvalidSpec, QuerySpec, generate, generate_queries
from .engine import QueryResult, RegisteredDataset, SearchEngine
from .search import (
    BINARY,
    INTERPOLATION,
    LINEAR,
    ProbeTrace,
    SearchOutcome,
    binary_search,
    interpolation_search,
    linear_search,
)
from .selector import (
    AlgorithmChoice,
    DistributionStats,
    choose_algorithm,
    compute_stats,
)

__all__ = [
    "AlgorithmChoice",
    "BINARY",
    "CacheStats",
    "DatasetError",
    "DistributionSpec",
    "DistributionStats",
    "INTERPOLATION",
    "InvalidSpec",
    "LINEAR",
    "LruCache",
    "NotSortedError",
    "ParseError",
    "ProbeTrace",
    "QueryResult",
    "QuerySpec",
    "RegisteredDataset",
    "SearchEngine",
    "SearchOutcome",
    "SortedDataset",
    "binary_search",
    "choose_algorithm",
    "compute_stats",
    "generate",
    "generate_queries",
    "interpolation_search",
    "linear_search",
    "load_dataset",
]

__version__ = "0.1.0"
