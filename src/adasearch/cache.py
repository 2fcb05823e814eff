"""Bounded LRU store of the engine's results keyed by (dataset fingerprint, target)."""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional

from .dataset import DatasetId


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
    recently used key. It stores any value but None, which `get` returns for
    a miss. Callers must serialize access; no internal locking."""

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> Optional[object]:
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: CacheKey, value: object) -> None:
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, self.evictions,
                          len(self._entries), self.capacity)

    def keys_by_recency(self) -> list[CacheKey]:
        """Least- to most-recently used; exposed for model-equivalence tests."""
        return list(self._entries.keys())
