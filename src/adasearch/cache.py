"""Bounded LRU store of search outcomes keyed by (dataset fingerprint, target)."""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional

from .dataset import DatasetId
from .search import SearchOutcome


class CacheKey(NamedTuple):
    """A plain (dataset, target) tuple equals and hashes like CacheKey, so
    either form names the same LruCache entry."""

    dataset: DatasetId
    target: int


class CacheStats(NamedTuple):
    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LruCache:
    """Associative store bounded to `capacity` entries, evicting the least
    recently used key. Not-found outcomes are cached like any other result.
    Callers must serialize access; no internal locking."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, SearchOutcome] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[SearchOutcome]:
        entries = self._entries
        outcome = entries.get(key)
        if outcome is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return outcome

    def put(self, key: CacheKey, outcome: SearchOutcome) -> None:
        entries = self._entries
        if key in entries:
            entries[key] = outcome
            entries.move_to_end(key)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = outcome

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, self.evictions,
                          len(self._entries), self.capacity)

    def keys_by_recency(self) -> list[CacheKey]:
        """Least- to most-recently used; exposed for model-equivalence tests."""
        return list(self._entries.keys())
