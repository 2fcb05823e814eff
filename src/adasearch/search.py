"""Instrumented search kernels: binary, interpolation, and linear.

Each kernel returns a SearchOutcome carrying a probe-level trace. A probe is
one read of a dataset element compared against the target; the interpolation
loop's range-guard reads of the endpoints are not probes.
"""

from __future__ import annotations

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


_new = tuple.__new__


def _outcome(index: Optional[int], visited: list[int], algorithm: str) -> SearchOutcome:
    """SearchOutcome(index, ProbeTrace(len(visited), tuple(visited), algorithm)),
    built through tuple.__new__: the same records without the Python-level
    __new__ that NamedTuple generates, a large share of a call on small arrays."""
    return _new(SearchOutcome, (index, _new(ProbeTrace, (len(visited), tuple(visited), algorithm))))


def binary_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Midpoint-halving search; at most floor(log2(n)) + 1 probes."""
    values = ds.values
    lo, hi = 0, len(values) - 1
    visited: list[int] = []
    while lo <= hi:
        mid = (lo + hi) // 2
        v = values[mid]
        visited.append(mid)
        if v == target:
            return _outcome(mid, visited, BINARY)
        if v < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return _outcome(None, visited, BINARY)


def interpolation_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Position-estimating search; one probe on exact arithmetic progressions.

    Python integers are unbounded, so the position product cannot overflow the
    way fixed-width arithmetic would on wide key ranges. When the active range
    has equal endpoints the estimate's denominator is zero; that case is
    resolved by a single direct probe of the low endpoint.
    """
    values = ds.values
    lo, hi = 0, len(values) - 1
    visited: list[int] = []
    while lo <= hi and values[lo] <= target <= values[hi]:
        vl = values[lo]
        vh = values[hi]
        if vl == vh:
            visited.append(lo)
            idx = lo if vl == target else None
            return _outcome(idx, visited, INTERPOLATION)
        pos = lo + (hi - lo) * (target - vl) // (vh - vl)
        v = values[pos]
        visited.append(pos)
        if v == target:
            return _outcome(pos, visited, INTERPOLATION)
        if v < target:
            lo = pos + 1
        else:
            hi = pos - 1
    return _outcome(None, visited, INTERPOLATION)


def linear_search(ds: SortedDataset, target: int) -> SearchOutcome:
    """Left-to-right scan; returns the first occurrence. Needs no sortedness,
    which is what makes it the correctness oracle for the other kernels."""
    visited: list[int] = []
    for i, v in enumerate(ds.values):
        visited.append(i)
        if v == target:
            return _outcome(i, visited, LINEAR)
    return _outcome(None, visited, LINEAR)


KERNELS = {
    BINARY: binary_search,
    INTERPOLATION: interpolation_search,
    LINEAR: linear_search,
}
