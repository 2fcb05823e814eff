"""Seeded synthetic dataset generators and query-stream generators.

All randomness comes from numpy's default_rng (PCG64), seeded explicitly, so
every generated dataset and query stream reproduces bit-for-bit across
machines and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dataset import INT64_MAX, INT64_MIN, SortedDataset

UNIFORM = "uniform"
CLUSTERED = "clustered"
EXPONENTIAL = "exponential"
ZIPF = "zipf"

KINDS = (UNIFORM, CLUSTERED, EXPONENTIAL, ZIPF)


class InvalidSpec(ValueError):
    """Nonsensical generator parameters."""


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    n: int
    seed: int
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind: {self.kind!r}")
        if self.n < 0:
            raise InvalidSpec("n must be >= 0")

    def summary(self) -> str:
        if not self.params:
            return self.kind
        inner = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


def _to_int64(draws: np.ndarray, kind: str) -> np.ndarray:
    """Cast float draws to int64, refusing draws the cast would wrap."""
    if not np.all((draws >= -(2.0**63)) & (draws < 2.0**63)):
        raise InvalidSpec(f"{kind}: draws leave the 64-bit range")
    return draws.astype(np.int64)


def _key_range(p: dict[str, Any], kind: str) -> tuple[int, int]:
    """The lo/hi key range of a uniform or clustered spec, checked to be an
    ordered pair of int64 values (numpy would reject it with a ValueError)."""
    lo = int(p.get("lo", 0))
    hi = int(p.get("hi", 2**32))
    if not INT64_MIN <= lo <= hi <= INT64_MAX:
        raise InvalidSpec(f"{kind}: need {INT64_MIN} <= lo <= hi <= {INT64_MAX}, got lo {lo}, hi {hi}")
    return lo, hi


def generate(spec: DistributionSpec) -> SortedDataset:
    """Deterministic dataset from a spec. Output is sorted; duplicates allowed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    p = spec.params

    if spec.kind == UNIFORM:
        lo, hi = _key_range(p, UNIFORM)
        arr = rng.integers(lo, hi, size=n, endpoint=True, dtype=np.int64)
    elif spec.kind == CLUSTERED:
        clusters = int(p.get("clusters", 10))
        spread = float(p.get("spread", 1000.0))
        lo, hi = _key_range(p, CLUSTERED)
        if clusters < 1 or spread < 0:
            raise InvalidSpec("clustered: need clusters >= 1, spread >= 0")
        centers = rng.integers(lo, hi, size=clusters, endpoint=True, dtype=np.int64)
        assignment = rng.integers(0, clusters, size=n)
        offsets = _to_int64(np.rint(rng.normal(0.0, spread, size=n)), CLUSTERED)
        base = centers[assignment]
        arr = base + offsets
        # int64 addition wraps silently; a sum on the wrong side of its base wrapped
        if np.any((arr < base) != (offsets < 0)):
            raise InvalidSpec("clustered: keys leave the 64-bit range")
    elif spec.kind == EXPONENTIAL:
        scale = float(p.get("scale", 1e6))
        if scale <= 0:
            raise InvalidSpec("exponential: scale must be > 0")
        arr = _to_int64(rng.exponential(scale, size=n), EXPONENTIAL)
    else:  # ZIPF
        s = float(p.get("s", 1.2))
        universe = int(p.get("m", 10**6))
        if s <= 0 or universe < 1:
            raise InvalidSpec("zipf: need s > 0 and m >= 1")
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        weights = ranks**-s
        weights /= weights.sum()
        arr = (rng.choice(universe, size=n, p=weights) + 1).astype(np.int64)

    arr.sort()
    return SortedDataset.from_sorted_array(arr)


MEMBERS = "members"
MIXED = "mixed"
REPEATED = "repeated"

QUERY_MODES = (MEMBERS, MIXED, REPEATED)


@dataclass(frozen=True)
class QuerySpec:
    count: int
    mode: str = MEMBERS
    repeat_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise InvalidSpec("count must be >= 0")
        if self.mode not in QUERY_MODES:
            raise InvalidSpec(f"unknown query mode: {self.mode!r}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise InvalidSpec("repeat_fraction must be in [0, 1]")


def generate_queries(ds: SortedDataset, qs: QuerySpec) -> list[int]:
    """Deterministic query targets for a dataset.

    members: uniform draws from the dataset's elements.
    mixed: 50% member draws, 50% uniform over [min, max].
    repeated: each query replays a uniformly chosen earlier query with
        probability repeat_fraction, else draws a fresh member.
    """
    if qs.count == 0:
        return []
    if len(ds) == 0:
        raise InvalidSpec("cannot draw queries from an empty dataset")
    rng = np.random.default_rng(qs.seed)
    values = ds.values
    n = len(values)

    if qs.mode == MEMBERS:
        idx = rng.integers(0, n, size=qs.count)
        return [values[i] for i in idx]

    if qs.mode == MIXED:
        member = rng.random(qs.count) < 0.5
        idx = rng.integers(0, n, size=qs.count)
        uni = rng.integers(values[0], values[-1], size=qs.count, endpoint=True, dtype=np.int64)
        return [values[idx[i]] if member[i] else int(uni[i]) for i in range(qs.count)]

    # REPEATED
    replay = rng.random(qs.count) < qs.repeat_fraction
    fresh_idx = rng.integers(0, n, size=qs.count)
    replay_pick = rng.random(qs.count)
    out: list[int] = []
    for i in range(qs.count):
        if replay[i] and out:
            out.append(out[int(replay_pick[i] * len(out))])
        else:
            out.append(values[fresh_idx[i]])
    return out
