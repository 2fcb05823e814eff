"""Seeded synthetic dataset generators and query-stream generators.

All randomness comes from numpy's default_rng (PCG64), seeded explicitly, so
every generated dataset and query stream reproduces bit-for-bit across
machines and runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .dataset import SortedDataset, _adopt, _key

UNIFORM = "uniform"
CLUSTERED = "clustered"
EXPONENTIAL = "exponential"
ZIPF = "zipf"

# the parameters each kind reads; a spec naming any other is refused, not ignored
PARAMS = {UNIFORM: ("lo", "hi"), CLUSTERED: ("lo", "hi", "clusters", "spread"),
          EXPONENTIAL: ("scale",), ZIPF: ("s", "m")}
KINDS = tuple(PARAMS)
MAX_ZIPF_UNIVERSE = 2**24  # zipf holds 24 bytes of weights per value of its universe
MAX_LEN = np.iinfo(np.intp).max // 8  # the most int64 values one numpy array can hold


class InvalidSpec(ValueError):
    """Nonsensical generator parameters."""


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    n: int
    seed: int
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        # a read-only copy: a later change to the caller's dict cannot bypass the checks
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown distribution kind: {self.kind!r}")
        object.__setattr__(self, "n", _number(self.n, "n"))  # by the key rule, as the params
        if self.n < 0:
            raise InvalidSpec("n must be >= 0")
        if self.n > MAX_LEN:
            raise InvalidSpec(f"n must be <= {MAX_LEN}, the most int64 keys numpy can allocate")
        unread = sorted(set(self.params) - set(PARAMS[self.kind]))
        if unread:
            raise InvalidSpec(f"{self.kind} reads only {', '.join(PARAMS[self.kind])}, "
                              f"not {', '.join(unread)}")

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


def _number(v, what: str, real: bool = False) -> int | float:
    """v as the int64 it equals by the key rule (2.0, True and numpy integers pass;
    2.5, "5" and None do not), or if `real` the float of a real number (not a str)."""
    try:
        if not real:
            return _key(0, v)
        if isinstance(v, numbers.Real):
            return float(v)
    except (ValueError, OverflowError):  # not an int64 key; a real beyond float's range
        pass
    raise InvalidSpec(f"{what} must be {'a real number' if real else 'a 64-bit integer'}, got {v!r}")


def generate(spec: DistributionSpec) -> SortedDataset:
    """Deterministic dataset from a spec. Output is sorted; duplicates allowed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    def param(name: str, default: int | float) -> int | float:  # read as the default's type
        return _number(spec.params.get(name, default), f"{spec.kind}: {name}", isinstance(default, float))

    if spec.kind in (UNIFORM, CLUSTERED):  # numpy refuses lo > hi with a ValueError
        lo, hi = param("lo", 0), param("hi", 2**32)
        if not lo <= hi:
            raise InvalidSpec(f"{spec.kind}: need lo <= hi, got lo {lo}, hi {hi}")

    if spec.kind == UNIFORM:
        arr = rng.integers(lo, hi, size=n, endpoint=True, dtype=np.int64)
    elif spec.kind == CLUSTERED:
        clusters, spread = param("clusters", 10), param("spread", 1000.0)
        if not 1 <= clusters <= MAX_LEN or not spread >= 0:  # NaN fails every comparison
            raise InvalidSpec(f"clustered: need 1 <= clusters <= {MAX_LEN}, spread >= 0")
        centers = rng.integers(lo, hi, size=clusters, endpoint=True, dtype=np.int64)
        assignment = rng.integers(0, clusters, size=n)
        offsets = _to_int64(np.rint(rng.normal(0.0, spread, size=n)), CLUSTERED)
        base = centers[assignment]
        arr = base + offsets
        # int64 addition wraps silently; a sum on the wrong side of its base wrapped
        if np.any((arr < base) != (offsets < 0)):
            raise InvalidSpec("clustered: keys leave the 64-bit range")
    elif spec.kind == EXPONENTIAL:
        scale = param("scale", 1e6)
        if not scale > 0:
            raise InvalidSpec("exponential: scale must be > 0")
        arr = _to_int64(rng.exponential(scale, size=n), EXPONENTIAL)
    else:  # ZIPF
        s, universe = param("s", 1.2), param("m", 10**6)
        if not s > 0 or not 1 <= universe <= MAX_ZIPF_UNIVERSE:
            raise InvalidSpec(f"zipf: need s > 0 and 1 <= m <= {MAX_ZIPF_UNIVERSE}")
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        weights = ranks**-s
        weights /= weights.sum()
        arr = (rng.choice(universe, size=n, p=weights) + 1).astype(np.int64)

    arr.sort()
    arr.setflags(write=False)  # sorted: _adopt skips its descent scan
    return _adopt(arr)


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
        object.__setattr__(self, "count", _number(self.count, "count"))
        if self.count < 0:
            raise InvalidSpec("count must be >= 0")
        if self.count > MAX_LEN:
            raise InvalidSpec(f"count must be <= {MAX_LEN}, the most queries numpy can allocate")
        if self.mode not in QUERY_MODES:
            raise InvalidSpec(f"unknown query mode: {self.mode!r}")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise InvalidSpec("repeat_fraction must be in [0, 1]")
        if self.repeat_fraction and self.mode != REPEATED:  # refused, not ignored
            raise InvalidSpec(f"{self.mode} queries read no repeat_fraction (got {self.repeat_fraction})")


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
    a = ds.array
    n = len(a)

    if qs.mode == MEMBERS:
        return a[rng.integers(0, n, size=qs.count)].tolist()

    if qs.mode == MIXED:
        member = rng.random(qs.count) < 0.5
        idx = rng.integers(0, n, size=qs.count)
        uni = rng.integers(int(a[0]), int(a[-1]), size=qs.count, endpoint=True, dtype=np.int64)
        return np.where(member, a[idx], uni).tolist()

    # REPEATED
    replay = rng.random(qs.count) < qs.repeat_fraction
    fresh = a[rng.integers(0, n, size=qs.count)].tolist()
    replay_pick = rng.random(qs.count)
    out: list[int] = []
    for i in range(qs.count):
        if replay[i] and out:
            out.append(out[int(replay_pick[i] * len(out))])
        else:
            out.append(fresh[i])
    return out
