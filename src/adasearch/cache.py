"""Bounded LRU store of the engine's results, which keys them by
(registration, target)."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import NamedTuple, Optional


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
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[object]:
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, self.evictions,
                          len(self._entries), self.capacity)

    def keys_by_recency(self) -> list[Hashable]:
        """Least- to most-recently used; exposed for model-equivalence tests."""
        return list(self._entries.keys())
