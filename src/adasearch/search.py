"""Instrumented search kernels: binary, interpolation, and linear.

Each kernel returns a SearchOutcome carrying a probe-level trace. A probe is
one read of a dataset element compared against the target; the interpolation
loop's range-guard reads of the endpoints are not probes. search_batch runs
the binary and interpolation kernels for a whole vector of targets and
returns their indices and probe counts.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

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
    resolved by a single direct probe of the low endpoint. The target is
    taken as a Python int first (operator.index), so a numpy integer cannot
    wrap the position product and a float raises TypeError.
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


def search_batch(keys: np.ndarray, targets: np.ndarray, algorithm: str) -> tuple[np.ndarray, np.ndarray]:
    """Binary or interpolation search for every target at once, in lockstep.

    `keys` is the dataset as a nondecreasing int64 array and `targets` an
    int64 array. Each round probes every live target's position with one
    vector read and narrows its [lo, hi] window the way the scalar kernel
    does. Returns int64 arrays (index, probes): per target, the index the
    scalar kernel returns (-1 for a miss) and its probe count.

    Interpolation positions are exact in int64 only while
    (n - 1) * (max - min) < 2**63; wider keys raise OverflowError, and the
    scalar kernel, with Python ints, is the one to use for them.
    """
    n = len(keys)
    interpolate = algorithm == INTERPOLATION
    if interpolate:
        if n > 1 and (n - 1) * (int(keys[-1]) - int(keys[0])) >= 2**63:
            raise OverflowError("interpolation positions overflow int64 on these keys")
    elif algorithm != BINARY:
        raise ValueError(f"no batch kernel for {algorithm!r}")
    t = targets
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
            pos = lo + (hi - lo) * (t - vl) // np.maximum(vh - vl, 1)
        else:
            pos = (lo + hi) // 2
        v = keys[pos]
        probes[lane] += 1
        hit = v == t
        index[lane[hit]] = pos[hit]
        # a hit gets lo = pos + 1 > hi = pos - 1 and leaves at the next round
        lo = np.where(v <= t, pos + 1, lo)
        hi = np.where(v >= t, pos - 1, hi)
