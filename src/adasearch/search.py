"""Instrumented search kernels: binary, interpolation, and linear.

Each kernel returns one SearchOutcome carrying a probe-level trace, both built
once, at the kernel's single exit. A probe is one read of a dataset element
compared against the target; the interpolation loop's reads of its window's
endpoints are not probes. After G = n.bit_length() probes, interpolation
search bisects (the guard), so it makes at most 2G = 2(floor(log2 n) + 1)
probes. Every kernel takes its target through operator.index, so a float
raises TypeError. search_batch, the bench suite's batch kernel, gives every
target's index and probe count at once; the selector's trial runs the scalar kernels.
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


def int_targets(targets: Sequence[int]) -> np.ndarray:
    """Targets through operator.index, as the kernels take them (a float raises
    TypeError): an int64 array, or an object array if one lies beyond int64."""
    if isinstance(targets, np.ndarray) and targets.dtype == np.int64:
        return targets
    t = [operator.index(x) for x in targets]
    try:
        return np.array(t, dtype=np.int64)
    except OverflowError:
        return np.array(t, dtype=object)


def search_batch(keys: np.ndarray, targets: Sequence[int], algorithm: str) -> tuple[np.ndarray, np.ndarray]:
    """Every target's index and probe count under one kernel, at once.

    `keys` is a nondecreasing int64 array; `targets` go through int_targets.
    Binary and interpolation search run in lockstep: each round probes every
    live target's position with one vector read and narrows its [lo, hi]
    window as the scalar kernel does (interpolation with its guard); a
    finished lane stays and keeps its answer. Linear search takes the first
    occurrence from np.searchsorted: a scan probes index + 1 keys on a find,
    n on a miss. Returns int64 arrays (index, probes), -1 for a miss. Targets
    beyond int64 and interpolation keys with (n - 1) * (max - min) >= 2**63
    are held as Python ints (object arrays), exact in every compare and product.
    """
    n = len(keys)
    interpolate = algorithm == INTERPOLATION
    if interpolate:
        if n > 1 and (n - 1) * (int(keys[-1]) - int(keys[0])) >= 2**63:
            keys = keys.astype(object)
    elif algorithm not in (BINARY, LINEAR):
        raise ValueError(f"no batch kernel for {algorithm!r}")
    t = int_targets(targets)
    if algorithm == LINEAR:
        first = np.searchsorted(keys, t)
        hit = first < n
        hit[hit] = keys[first[hit]] == t[hit]
        return np.where(hit, first, -1), np.where(hit, first + 1, n)
    m = len(t)
    index, probes = np.full(m, -1, dtype=np.int64), np.zeros(m, dtype=np.int64)
    if not n:
        return index, probes
    lo, hi = np.zeros(m, dtype=np.int64), np.full(m, n - 1, dtype=np.int64)
    if not interpolate:
        # a hit leaves lo = pos + 1, hi = pos - 1 and a miss an empty window whose
        # midpoint key is not t; later rounds keep both windows' midpoints
        while True:
            pos = (lo + hi) >> 1
            live = lo <= hi
            if not live.any():
                return np.where(keys[pos] == t, pos, -1), probes
            probes += live
            v = keys[pos]
            lo = np.where(v <= t, pos + 1, lo)
            hi = np.where(v >= t, pos - 1, hi)
    # a window whose end keys enclose t never empties; a lane leaves `live`
    # on a hit or when t leaves that range, and its window is not moved again
    guard, rounds, live = n.bit_length(), 0, np.ones(m, dtype=bool)
    while True:
        vl, vh = keys[lo], keys[hi]
        live &= (vl <= t) & (t <= vh)
        if not live.any():
            return index, probes
        probes += live
        # equal endpoints leave t == vl, so pos == lo: the scalar kernel's single
        # probe of the low end; every live lane has made `rounds` probes, as the guard counts
        if rounds < guard:
            d = np.where(live, t, vl) - vl  # 0 for a finished lane: pos = lo
            pos = (lo + (hi - lo) * d // np.maximum(vh - vl, 1)).astype(np.int64, copy=False)
        else:
            pos = np.where(vl == vh, lo, (lo + hi) >> 1)
        rounds += 1
        v = keys[pos]
        hit = live & (v == t)
        index = np.where(hit, pos, index)
        live ^= hit
        lo = np.where(live & (v < t), pos + 1, lo)
        hi = np.where(live & (v > t), pos - 1, hi)
