"""Validation and normalisation helpers for discrete distributions."""

from __future__ import annotations

import numpy as np

from ..exceptions import DistributionError


def validate_distribution(weights: np.ndarray, *, name: str = "distribution") -> np.ndarray:
    """Check that ``weights`` is a usable unnormalised distribution.

    Requirements: 1-D, non-empty, finite, non-negative, positive total mass.
    Returns the array as ``float64``.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1:
        raise DistributionError(f"{name} must be 1-D, got shape {arr.shape}")
    if len(arr) == 0:
        raise DistributionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DistributionError(f"{name} contains non-finite values")
    if np.any(arr < 0):
        raise DistributionError(f"{name} contains negative mass")
    if arr.sum() <= 0:
        raise DistributionError(f"{name} has zero total mass")
    return arr


def normalize_distribution(weights: np.ndarray, *, name: str = "distribution") -> np.ndarray:
    """Validate and scale ``weights`` to sum to one."""
    arr = validate_distribution(weights, name=name)
    return arr / arr.sum()


def segment_sums(flat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``flat[segment].sum()`` of every consecutive segment, bit for bit.

    Segment ``i`` holds the next ``sizes[i]`` entries of ``flat``.
    ``np.add.reduceat`` adds each segment left to right, which differs in
    the last bit from the pairwise order of ``ndarray.sum``; summing the
    segments of one length as the rows of a C-contiguous matrix keeps
    that order, so normalisations match the scalar builders exactly.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    sums = np.zeros(len(sizes), dtype=np.float64)
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order]
    bounds = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), len(order)]
    for lo, hi in zip(bounds, bounds[1:]):
        size = int(ordered[lo]) if hi > lo else 0
        if size:
            rows = order[lo:hi]
            if rows[-1] - rows[0] == hi - lo - 1:
                # Consecutive segments lie end to end: read them in place.
                at = int(starts[rows[0]])
                matrix = flat[at : at + (hi - lo) * size].reshape(-1, size)
            else:
                matrix = flat[starts[rows, None] + np.arange(size)]
            sums[rows] = matrix.sum(axis=1)
    return sums


def validate_segments(
    flat: np.ndarray, sizes: np.ndarray, *, name: str = "distribution"
) -> np.ndarray:
    """:func:`validate_distribution` for every segment of ``flat`` at once.

    Raises the :class:`DistributionError` the first bad segment would
    raise on its own; otherwise returns the :func:`segment_sums`.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sums = segment_sums(flat, sizes)
    bad = (sizes == 0) | (sums <= 0)
    bad_entry = ~(np.isfinite(flat) & (flat >= 0))
    if bad_entry.any():
        filled = sizes > 0
        starts = np.cumsum(sizes) - sizes
        counts = np.add.reduceat(bad_entry.astype(np.int64), starts[filled])
        bad[filled] |= counts > 0
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        start = int(sizes[:first].sum())
        validate_distribution(flat[start : start + sizes[first]], name=name)
    return sums


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions of equal length.

    Used by the statistical tests that verify each sampler reproduces its
    target distribution.
    """
    p = normalize_distribution(p, name="p")
    q = normalize_distribution(q, name="q")
    if len(p) != len(q):
        raise DistributionError(f"length mismatch: {len(p)} vs {len(q)}")
    return 0.5 * float(np.abs(p - q).sum())


def empirical_distribution(samples: np.ndarray, num_outcomes: int) -> np.ndarray:
    """Normalised histogram of integer ``samples`` over ``num_outcomes`` bins."""
    samples = np.asarray(samples)
    if len(samples) == 0:
        raise DistributionError("no samples provided")
    if samples.min() < 0 or samples.max() >= num_outcomes:
        raise DistributionError("sample outside [0, num_outcomes)")
    counts = np.bincount(samples, minlength=num_outcomes).astype(np.float64)
    return counts / counts.sum()
