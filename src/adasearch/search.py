"""Instrumented search kernels: binary, interpolation, and linear.

Each kernel returns one SearchOutcome carrying a probe-level trace, both built
once, at the kernel's single exit. A probe is one read of a dataset element
compared against the target; the interpolation loop's reads of its window's
endpoints are not probes. After G = n.bit_length() probes, interpolation
search bisects (the guard), so it makes at most 2G = 2(floor(log2 n) + 1)
probes. Every kernel takes its target through operator.index, so a float
raises TypeError. The bench suite's lockstep batch copy is bench.search_batch.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

from .dataset import SortedDataset

BINARY = "binary"
INTERPOLATION = "interpolation"
LINEAR = "linear"


class ProbeTrace(NamedTuple):
    probes: int
    visited: tuple[int, ...]
    algorithm: str


class SearchOutcome(NamedTuple):
    index: Optional[int]
    trace: ProbeTrace

    @property
    def found(self) -> bool:
        return self.index is not None


# The kernels build their records through tuple.__new__: the same records
# without the Python-level __new__ that NamedTuple generates, a large share of
# a call on small arrays.
_new = tuple.__new__


def binary_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Midpoint-halving search; at most floor(log2(n)) + 1 probes."""
    target = operator.index(target)
    values = ds.values
    lo, hi = 0, len(values) - 1
    visited: list[int] = []
    index = None
    while lo <= hi:
        mid = (lo + hi) // 2
        v = values[mid]
        visited.append(mid)
        if v == target:
            index = mid
            break
        if v < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return _new(SearchOutcome, (index, _new(ProbeTrace, (len(visited), tuple(visited), BINARY))))


def interpolation_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Position-estimating search; one probe on exact arithmetic progressions.

    Python integers are unbounded, so the position product cannot overflow the
    way fixed-width arithmetic would on wide key ranges, and a numpy integer
    target is taken as a Python int first. When the active range has equal
    endpoints the estimate's denominator is zero; that case is resolved by a
    single direct probe of the low endpoint. After G = n.bit_length() probes
    it probes window midpoints instead (the guard), so a call makes at most
    2G = 2(floor(log2 n) + 1) probes, the first G those of the unguarded loop.
    """
    target = operator.index(target)
    values = ds.values
    lo, hi = 0, len(values) - 1
    guard = len(values).bit_length()
    visited: list[int] = []
    index = None
    # vl, vh are values[lo], values[hi] (no keys: an empty range). While the
    # target lies between them, a probe below it is left of hi and one above
    # it right of lo: the window never empties, and only the moved end is read.
    vl, vh = (values[lo], values[hi]) if values else (1, 0)
    while vl <= target <= vh:
        if vl == vh:  # so vl == target
            visited.append(lo)
            index = lo
            break
        pos = lo + (hi - lo) * (target - vl) // (vh - vl) if len(visited) < guard else (lo + hi) // 2
        v = values[pos]
        visited.append(pos)
        if v == target:
            index = pos
            break
        if v < target:
            lo = pos + 1
            vl = values[lo]
        else:
            hi = pos - 1
            vh = values[hi]
    return _new(SearchOutcome, (index, _new(ProbeTrace, (len(visited), tuple(visited), INTERPOLATION))))


def linear_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Left-to-right scan; returns the first occurrence. Needs no sortedness,
    which is what makes it the correctness oracle for the other kernels."""
    target = operator.index(target)
    visited: list[int] = []
    index = None
    for i, v in enumerate(ds.values):
        visited.append(i)
        if v == target:
            index = i
            break
    return _new(SearchOutcome, (index, _new(ProbeTrace, (len(visited), tuple(visited), LINEAR))))


KERNELS = {
    BINARY: binary_search,
    INTERPOLATION: interpolation_search,
    LINEAR: linear_search,
}
