"""Distribution statistics and algorithm selection.

The uniformity score is the coefficient of variation (CV) of consecutive
gaps: 0 for an arithmetic progression, around 1 for uniform-random keys,
and much larger for clustered or geometric data. It is scale-free, so the
choice is invariant under positive affine key transforms.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .dataset import SortedDataset
from .search import BINARY, INTERPOLATION

TOO_SMALL = "too_small"
UNIFORM_ENOUGH = "uniform_enough"
TOO_IRREGULAR = "too_irregular"
DEGENERATE = "degenerate"

MIN_INTERP_LEN = 16  # shorter datasets get binary search
MAX_GAP_SAMPLES = 4096  # more gaps than this are sampled at an even stride
TAU = 1.0  # scores up to this pick interpolation; uniform-random keys score about 1


class DistributionStats(NamedTuple):
    n: int
    min_value: int
    max_value: int
    gap_mean: float
    gap_std: float
    uniformity_score: float
    sampled: bool


class AlgorithmChoice(NamedTuple):
    algorithm: str  # BINARY or INTERPOLATION
    reason: str


def compute_stats(ds: SortedDataset) -> DistributionStats:
    """Gap statistics of a dataset over at most MAX_GAP_SAMPLES evenly
    strided gaps: every gap when they fit, otherwise a deterministic sample
    so analysis cost stays bounded."""
    a = ds.array
    n = len(a)
    if n == 0:
        return DistributionStats(0, 0, 0, 0.0, 0.0, 0.0, False)
    if n == 1:
        v = int(a[0])
        return DistributionStats(1, v, v, 0.0, 0.0, 0.0, False)

    total_gaps = n - 1
    k = min(total_gaps, MAX_GAP_SAMPLES)
    # gap i itself when every gap fits (k == total_gaps), else every total_gaps/k-th gap
    j = np.arange(0, total_gaps * k, total_gaps) // k
    u = a.view(np.uint64)  # a gap reaches 2**64 - 1, exact as a uint64 difference
    gaps = u[j + 1] - u[j]
    mean = math.fsum(gaps.tolist()) / k
    # pow(d, 2) is libm's, and numpy's d * d rounds some squares differently
    var = math.fsum(map(pow, (gaps - mean).tolist(), repeat(2))) / k
    std = math.sqrt(var)
    score = std / mean if mean > 0 else 0.0
    return DistributionStats(n, int(a[0]), int(a[-1]), mean, std, score, k < total_gaps)


def choose_algorithm(stats: DistributionStats) -> AlgorithmChoice:
    """Decision table: too-short datasets and degenerate (all-equal) key sets
    get binary search; otherwise the uniformity score against TAU decides."""
    if stats.n < MIN_INTERP_LEN:
        return AlgorithmChoice(BINARY, TOO_SMALL)
    if stats.gap_mean == 0:
        return AlgorithmChoice(BINARY, DEGENERATE)
    if stats.uniformity_score <= TAU:
        return AlgorithmChoice(INTERPOLATION, UNIFORM_ENOUGH)
    return AlgorithmChoice(BINARY, TOO_IRREGULAR)
