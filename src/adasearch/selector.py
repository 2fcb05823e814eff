"""Algorithm selection by a probe trial.

A probe count is the machine-independent cost of a search, so the selector
measures it: both kernels search the same evenly strided member keys, and
interpolation search is chosen iff it makes fewer probes in total. Every
probe depends only on the keys' order and on floor quotients of their
differences, so the choice is invariant under positive affine transforms.
"""

from __future__ import annotations

from typing import NamedTuple

from .dataset import SortedDataset
from .search import BINARY, INTERPOLATION, binary_search, interpolation_search

TOO_SMALL = "too_small"
FEWER_PROBES = "fewer_probes"
NOT_FEWER_PROBES = "not_fewer_probes"

MIN_INTERP_LEN = 16  # shorter datasets get binary search, untried
TRIAL_KEYS = 64  # member keys each kernel searches in the trial


class DistributionStats(NamedTuple):
    n: int
    binary_probes: float  # mean probes a kernel made on the trial keys; 0.0 untried
    interpolation_probes: float


class AlgorithmChoice(NamedTuple):
    algorithm: str  # BINARY or INTERPOLATION
    reason: str


def compute_stats(ds: SortedDataset) -> DistributionStats:
    """Each kernel's mean probe count over the TRIAL_KEYS keys at indices
    i * (n - 1) // (TRIAL_KEYS - 1), from the first key to the last, by the
    scalar kernels the engine serves with; no trial below MIN_INTERP_LEN keys."""
    n = len(ds)
    if n < MIN_INTERP_LEN:
        return DistributionStats(n, 0.0, 0.0)
    keys = [ds.values[i * (n - 1) // (TRIAL_KEYS - 1)] for i in range(TRIAL_KEYS)]
    # exact means, which compare as the sums do: the divisor is a power of two
    return DistributionStats(n, *(sum(kernel(ds, k).trace.probes for k in keys) / TRIAL_KEYS
                                  for kernel in (binary_search, interpolation_search)))


def choose_algorithm(stats: DistributionStats) -> AlgorithmChoice:
    """Binary search for datasets too short to try; otherwise interpolation
    search iff it made fewer trial probes. A tie, all-equal keys among them
    (one probe each), goes to binary search."""
    if stats.n < MIN_INTERP_LEN:
        return AlgorithmChoice(BINARY, TOO_SMALL)
    if stats.interpolation_probes < stats.binary_probes:
        return AlgorithmChoice(INTERPOLATION, FEWER_PROBES)
    return AlgorithmChoice(BINARY, NOT_FEWER_PROBES)
