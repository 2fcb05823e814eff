"""Distribution statistics and algorithm selection.

The uniformity score is the coefficient of variation (CV) of consecutive
gaps: 0 for an arithmetic progression, around 1 for uniform-random keys,
and much larger for clustered or geometric data. It is scale-free, so the
choice is invariant under positive affine key transforms.
"""

from __future__ import annotations

import math
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
    # endpoints as Python ints: a gap can exceed int64 (max - min reaches 2**64 - 1)
    gaps = [h - l for h, l in zip(a[1:][j].tolist(), a[j].tolist())]
    mean = math.fsum(gaps) / k
    var = math.fsum((g - mean) ** 2 for g in gaps) / k
    std = math.sqrt(var)
    score = std / mean if mean > 0 else 0.0
    return DistributionStats(n, int(a[0]), int(a[-1]), mean, std, score, k < total_gaps)


def choose_algorithm(stats: DistributionStats, tau: float = 1.0) -> AlgorithmChoice:
    """Decision table: too-short datasets and degenerate (all-equal) key sets
    get binary search; otherwise the uniformity score against tau decides."""
    if stats.n < MIN_INTERP_LEN:
        return AlgorithmChoice(BINARY, TOO_SMALL)
    if stats.gap_mean == 0:
        return AlgorithmChoice(BINARY, DEGENERATE)
    if stats.uniformity_score <= tau:
        return AlgorithmChoice(INTERPOLATION, UNIFORM_ENOUGH)
    return AlgorithmChoice(BINARY, TOO_IRREGULAR)
