"""Compiled step-centric kernels: numba ``njit`` loop implementations.

The functions in this module are the *loop-form* counterparts of
:mod:`repro.walks.kernels.numpy_backend` — same signatures minus the
``xp`` handle (a compiled kernel has no array-module indirection), same
sentinel-based error convention, and, crucially, the **same arithmetic**:

* running sums accumulate left-to-right exactly like ``np.cumsum``;
* the binary search replicates ``np.searchsorted(..., side="right")``;
* alias-column selection truncates ``u * size`` toward zero exactly like
  ``.astype(np.int64)``.

Because the engine pre-draws every uniform before calling a kernel, a
bit-identical kernel result means a bit-identical corpus — which the
determinism sanitizer's draw-order digests and the hash-pinned
determinism tests verify across backends.

numba is an **optional soft dependency**: this module imports cleanly
without it (the implementations below are plain Python and double as the
specification the no-numba test job checks).  :func:`load` performs the
lazy import, wraps each implementation with ``numba.njit(cache=True)``
(so repeat processes reuse the on-disk compilation cache instead of
re-JITting), and raises :class:`~repro.exceptions.KernelBackendError`
when numba is absent — which the registry's resolver converts into a
graceful numpy fallback plus :class:`~repro.exceptions.KernelBackendWarning`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from numpy import typing as npt

from ...exceptions import KernelBackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .registry import KernelBackend

#: Implementation functions :func:`load` compiles, in registration order.
KERNEL_NAMES = (
    "regroup_pairs",
    "gather_segments",
    "segmented_inverse_cdf",
    "flat_alias_pick",
    "gathered_alias_pick",
    "acceptance_mask",
    "advance_frontier",
)


def regroup_pairs(
    keys: npt.NDArray[np.int64],
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Loop form of :func:`..numpy_backend.regroup_pairs`.

    Sort-based grouping: equal keys land adjacent after the argsort, so
    one linear scan assigns group ids.  ``uk`` comes out ascending and
    ``group`` is independent of how the sort breaks ties, matching
    ``np.unique(keys, return_inverse=True)`` exactly.
    """
    n = keys.shape[0]
    order = np.argsort(keys)
    uk = np.empty(n, np.int64)
    group = np.empty(n, np.int64)
    count = 0
    prev = np.int64(0)
    for i in range(n):
        key = keys[order[i]]
        if i == 0 or key != prev:
            uk[count] = key
            count += 1
            prev = key
        group[order[i]] = count - 1
    return uk[:count].copy(), group


def gather_segments(
    starts: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    values: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Loop form of :func:`..numpy_backend.gather_segments`."""
    total = 0
    for i in range(sizes.shape[0]):
        total += sizes[i]
    flat = np.empty(total, np.float64)
    position = 0
    for i in range(sizes.shape[0]):
        start = starts[i]
        for j in range(sizes[i]):
            flat[position] = values[start + j]
            position += 1
    return flat


def segmented_inverse_cdf(
    flat: npt.NDArray[np.float64],
    sizes: npt.NDArray[np.int64],
    group: npt.NDArray[np.int64],
    uniforms: npt.NDArray[np.float64],
) -> tuple[npt.NDArray[np.int64], int]:
    """Loop form of :func:`..numpy_backend.segmented_inverse_cdf`.

    The prefix sum accumulates strictly left-to-right (``np.cumsum``
    order) and the per-walker binary search reproduces
    ``np.searchsorted(cumulative, target, side="right")`` over the whole
    cumulative array before clipping into the walker's segment — the
    float comparisons therefore resolve identically to the numpy kernel.
    """
    num_groups = sizes.shape[0]
    starts = np.empty(num_groups, np.int64)
    ends = np.empty(num_groups, np.int64)
    offset = 0
    for i in range(num_groups):
        starts[i] = offset
        offset += sizes[i]
        ends[i] = offset
    cumulative = np.empty(flat.shape[0], np.float64)
    running = 0.0
    for j in range(flat.shape[0]):
        running += flat[j]
        cumulative[j] = running
    for i in range(num_groups):
        base = cumulative[starts[i] - 1] if starts[i] > 0 else 0.0
        if cumulative[ends[i] - 1] - base <= 0.0:
            return np.zeros(0, np.int64), i
    picks = np.empty(group.shape[0], np.int64)
    for w in range(group.shape[0]):
        segment = group[w]
        base = (
            cumulative[starts[segment] - 1] if starts[segment] > 0 else 0.0
        )
        total = cumulative[ends[segment] - 1] - base
        target = base + uniforms[w] * total
        low = 0
        high = cumulative.shape[0]
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] <= target:
                low = mid + 1
            else:
                high = mid
        pick = low
        if pick < starts[segment]:
            pick = starts[segment]
        elif pick > ends[segment] - 1:
            pick = ends[segment] - 1
        picks[w] = pick - starts[segment]
    return picks, -1


def flat_alias_pick(
    prob_flat: npt.NDArray[np.float32],
    alias_flat: npt.NDArray[np.int32],
    base: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    u_column: npt.NDArray[np.float64],
    u_keep: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """Loop form of :func:`..numpy_backend.flat_alias_pick`."""
    k = base.shape[0]
    picks = np.empty(k, np.int64)
    for w in range(k):
        column = int(u_column[w] * sizes[w])
        if column > sizes[w] - 1:
            column = sizes[w] - 1
        position = base[w] + column
        if u_keep[w] <= prob_flat[position]:
            picks[w] = column
        else:
            picks[w] = alias_flat[position]
    return picks


def gathered_alias_pick(
    prob_flat: npt.NDArray[np.float32],
    alias_flat: npt.NDArray[np.int32],
    starts_flat: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    group: npt.NDArray[np.int64],
    u_column: npt.NDArray[np.float64],
    u_keep: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """Loop form of :func:`..numpy_backend.gathered_alias_pick`."""
    k = group.shape[0]
    picks = np.empty(k, np.int64)
    for w in range(k):
        segment = group[w]
        width = sizes[segment]
        column = int(u_column[w] * width)
        if column > width - 1:
            column = width - 1
        position = starts_flat[segment] + column
        if u_keep[w] <= prob_flat[position]:
            picks[w] = column
        else:
            picks[w] = alias_flat[position]
    return picks


def acceptance_mask(
    ratios: npt.NDArray[np.float64],
    factors: npt.NDArray[np.float64],
    uniforms: npt.NDArray[np.float64],
) -> npt.NDArray[np.bool_]:
    """Loop form of :func:`..numpy_backend.acceptance_mask`."""
    n = ratios.shape[0]
    out = np.empty(n, np.bool_)
    for w in range(n):
        acceptance = ratios[w] * factors[w]
        if acceptance > 1.0:
            acceptance = 1.0
        out[w] = uniforms[w] <= acceptance
    return out


def advance_frontier(
    idx: npt.NDArray[np.int64],
    step: npt.NDArray[np.int64],
    previous: npt.NDArray[np.int64],
    current: npt.NDArray[np.int64],
    active: npt.NDArray[np.bool_],
    degrees: npt.NDArray[np.int64],
) -> None:
    """Loop form of :func:`..numpy_backend.advance_frontier`."""
    for i in range(idx.shape[0]):
        walker = idx[i]
        previous[walker] = current[walker]
        current[walker] = step[walker]
        active[walker] = degrees[current[walker]] > 0


def load() -> "KernelBackend":
    """Import numba and compile the kernels into a :class:`KernelBackend`.

    Compilation is lazy twice over: this loader only runs when the numba
    backend is actually resolved, and ``njit`` itself defers machine-code
    generation to each kernel's first call with concrete dtypes.
    ``cache=True`` persists the result on disk (respecting
    ``NUMBA_CACHE_DIR``), so CI and repeat runs skip the JIT cost.
    """
    try:
        import numba
    except ImportError as exc:
        raise KernelBackendError(
            "kernel backend 'numba' requires the optional numba package, "
            "which is not installed"
        ) from exc
    from .registry import KernelBackend

    compiled: dict[str, Callable[..., Any]] = {
        name: numba.njit(cache=True)(globals()[name])
        for name in KERNEL_NAMES
    }
    return KernelBackend(
        name="numba", version=str(numba.__version__), **compiled
    )


__all__ = ["load", "KERNEL_NAMES", *KERNEL_NAMES]
