"""Distribution statistics and algorithm selection.

The uniformity score is the coefficient of variation (CV) of consecutive
gaps: 0 for an arithmetic progression, around 1 for uniform-random keys,
and much larger for clustered or geometric data. It is scale-free, so the
choice is invariant under positive affine key transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .dataset import SortedDataset
from .search import BINARY, INTERPOLATION

TOO_SMALL = "too_small"
UNIFORM_ENOUGH = "uniform_enough"
TOO_IRREGULAR = "too_irregular"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SelectorConfig:
    tau: float = 1.0
    min_interp_len: int = 16
    max_gap_samples: int = 4096

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if self.min_interp_len < 2:
            raise ValueError("min_interp_len must be >= 2")
        if self.max_gap_samples < 2:
            raise ValueError("max_gap_samples must be >= 2")


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


def compute_stats(ds: SortedDataset, cfg: SelectorConfig | None = None) -> DistributionStats:
    """Gap statistics of a dataset over at most cfg.max_gap_samples evenly
    strided gaps: every gap when they fit, otherwise a deterministic sample
    so analysis cost stays bounded."""
    cfg = cfg or SelectorConfig()
    values = ds.values
    n = len(values)
    if n == 0:
        return DistributionStats(0, 0, 0, 0.0, 0.0, 0.0, False)
    if n == 1:
        v = values[0]
        return DistributionStats(1, v, v, 0.0, 0.0, 0.0, False)

    total_gaps = n - 1
    k = min(total_gaps, cfg.max_gap_samples)
    # gap i itself when every gap fits (k == total_gaps), else every total_gaps/k-th gap
    gaps = [values[j + 1] - values[j] for j in (i * total_gaps // k for i in range(k))]
    mean = math.fsum(gaps) / k
    var = math.fsum((g - mean) ** 2 for g in gaps) / k
    std = math.sqrt(var)
    score = std / mean if mean > 0 else 0.0
    return DistributionStats(n, values[0], values[-1], mean, std, score, k < total_gaps)


def choose_algorithm(stats: DistributionStats, cfg: SelectorConfig | None = None) -> AlgorithmChoice:
    """Decision table: too-short datasets and degenerate (all-equal) key sets
    get binary search; otherwise the uniformity score against tau decides."""
    cfg = cfg or SelectorConfig()
    if stats.n < cfg.min_interp_len:
        return AlgorithmChoice(BINARY, TOO_SMALL)
    if stats.gap_mean == 0:
        return AlgorithmChoice(BINARY, DEGENERATE)
    if stats.uniformity_score <= cfg.tau:
        return AlgorithmChoice(INTERPOLATION, UNIFORM_ENOUGH)
    return AlgorithmChoice(BINARY, TOO_IRREGULAR)
