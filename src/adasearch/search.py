"""Instrumented search kernels: binary, interpolation, and linear.

Each kernel returns a SearchOutcome carrying a probe-level trace. A probe is
one read of a dataset element compared against the target; the interpolation
loop's range-guard reads of the endpoints are not probes. Every kernel takes
its target through operator.index, so a float raises TypeError. search_batch
gives the kernels' indices and probe counts for a whole vector of targets.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Sequence

import numpy as np

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
    target = operator.index(target)
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
    way fixed-width arithmetic would on wide key ranges, and a numpy integer
    target is taken as a Python int first. When the active range has equal
    endpoints the estimate's denominator is zero; that case is resolved by a
    single direct probe of the low endpoint.
    """
    target = operator.index(target)
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
    target = operator.index(target)
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


def search_batch(keys: np.ndarray, targets: Sequence[int], algorithm: str) -> tuple[np.ndarray, np.ndarray]:
    """Every target's index and probe count under one kernel, at once.

    `keys` is the dataset as a nondecreasing int64 array and `targets` a
    sequence of integers, each taken through operator.index as the scalar
    kernels take it. Binary and interpolation search run in lockstep: each
    round probes every live target's position with one vector read and
    narrows its [lo, hi] window the way the scalar kernel does. Linear search
    takes the first occurrence from np.searchsorted; a scan probes index + 1
    keys on a find and all n on a miss. Returns int64 arrays (index, probes):
    per target, the index the scalar kernel returns (-1 for a miss) and its
    probe count.

    Targets beyond int64, and interpolation keys with
    (n - 1) * (max - min) >= 2**63, are held as Python ints (object arrays),
    so every comparison and position product is exact.
    """
    n = len(keys)
    interpolate = algorithm == INTERPOLATION
    if interpolate:
        if n > 1 and (n - 1) * (int(keys[-1]) - int(keys[0])) >= 2**63:
            keys = keys.astype(object)
    elif algorithm not in (BINARY, LINEAR):
        raise ValueError(f"no batch kernel for {algorithm!r}")
    t = [operator.index(x) for x in targets]
    try:
        t = np.array(t, dtype=np.int64)
    except OverflowError:  # a target beyond int64
        t = np.array(t, dtype=object)
    if algorithm == LINEAR:
        first = np.searchsorted(keys, t)
        hit = first < n
        hit[hit] = keys[first[hit]] == t[hit]
        return np.where(hit, first, -1), np.where(hit, first + 1, n)
    m = len(t)
    index = np.full(m, -1, dtype=np.int64)
    probes = np.zeros(m, dtype=np.int64)
    lane = np.arange(m)
    lo = np.zeros(m, dtype=np.int64)
    hi = np.full(m, n - 1, dtype=np.int64)
    while True:
        live = lo <= hi
        lane, t, lo, hi = lane[live], t[live], lo[live], hi[live]
        if not len(lane):
            return index, probes
        if interpolate:
            # the scalar loop's range test, read only once lo <= hi: lo
            # reaches n after a probe of the last key
            vl, vh = keys[lo], keys[hi]
            live = (vl <= t) & (t <= vh)
            lane, t, lo, hi, vl, vh = lane[live], t[live], lo[live], hi[live], vl[live], vh[live]
            # equal endpoints leave t == vl, so pos == lo: the scalar
            # kernel's single probe of the low endpoint, which hits
            pos = (lo + (hi - lo) * (t - vl) // np.maximum(vh - vl, 1)).astype(np.int64)
        else:
            pos = (lo + hi) // 2
        v = keys[pos]
        probes[lane] += 1
        hit = v == t
        index[lane[hit]] = pos[hit]
        # a hit gets lo = pos + 1 > hi = pos - 1 and leaves at the next round
        lo = np.where(v <= t, pos + 1, lo)
        hi = np.where(v >= t, pos - 1, hi)
