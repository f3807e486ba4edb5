"""Reference step-centric kernels: whole-array, ``xp``-generic numpy.

Each function here is one *phase* of the batch engine's step loop —
regroup the frontier, gather flat table/weight segments, resolve one
sampling decision per walker, advance the walker state — expressed as a
pure function over preallocated ndarrays, **pre-drawn uniforms**, and
scalar parameters.  The kernel contract (enforced by reprolint HOT001/
HOT002 on the ``@hot_path`` marker):

* no graph objects, samplers, cache handles, or RNG generators cross the
  boundary — only flat arrays and scalars, so a compiled or device
  backend can implement the identical signature;
* no Python-level per-element loops (HOT001);
* every array operation goes through the ``xp`` array-module handle —
  never bare ``np.`` — so the CuPy swap planned in the roadmap is a
  one-argument change (HOT002);
* uniforms are drawn *by the caller* (under
  :func:`repro.hotpath.kernel_scope` for sanitizer attribution), which
  is what makes every backend consume the chunk generator's stream
  identically — the determinism sanitizer's draw-order digests then
  prove backend equivalence at the bit level.

Error signalling follows the compiled-kernel convention: kernels return
sentinel values (e.g. the offending segment index) instead of raising,
because ``raise`` is not portable to every backend; the engine driver
turns sentinels into the usual :class:`~repro.exceptions.ReproError`
subclasses.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any

import numpy as np
from numpy import typing as npt

from ...hotpath import hot_path

#: numpy fulfils its own array-module protocol; loaders bind this.
ArrayModule = ModuleType


@hot_path
def regroup_pairs(
    xp: Any, keys: npt.NDArray[np.int64]
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Group the frontier by integer state key.

    Returns ``(uk, group)``: the sorted distinct keys and, per walker,
    the index of its key within ``uk``.  Both outputs are uniquely
    determined by ``keys`` (ties share a group id), so any sort
    algorithm — numpy's introsort, a compiled radix sort, a device
    segmented sort — produces the identical result.
    """
    # kcc: dims=keys:W
    uk, group = xp.unique(keys, return_inverse=True)
    return uk, group


@hot_path
def gather_segments(
    xp: Any,
    starts: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    values: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Concatenate ``values[starts[i] : starts[i] + sizes[i]]`` segments.

    The frontier *gather* phase: pulls each group's slice of a flat
    per-edge array (e.g. ``graph.weights``) into one contiguous buffer,
    in group order, without a Python loop over groups.
    """
    # kcc: dims=starts:G,sizes:G,values:A
    total = sizes.sum()
    offsets = xp.concatenate(
        (xp.zeros(1, dtype=xp.int64), xp.cumsum(sizes)[:-1])
    )
    flat_pos = (
        xp.arange(total, dtype=xp.int64)
        - xp.repeat(offsets, sizes)
        + xp.repeat(starts, sizes)
    )
    return values[flat_pos]


@hot_path
def segmented_inverse_cdf(
    xp: Any,
    flat: npt.NDArray[np.float64],
    sizes: npt.NDArray[np.int64],
    group: npt.NDArray[np.int64],
    uniforms: npt.NDArray[np.float64],
) -> tuple[npt.NDArray[np.int64], int]:
    """One inverse-CDF pick per walker over per-group weight segments.

    ``flat`` concatenates the segments, ``sizes`` their lengths,
    ``group[w]`` maps walker ``w`` to its segment and ``uniforms[w]`` is
    its pre-drawn variate.  Returns ``(picks, bad)`` where ``picks`` is
    the position *within* each walker's segment and ``bad`` is the index
    of the first zero-total-mass segment (``-1`` when every segment is
    sampleable; ``picks`` is then valid).
    """
    # kcc: dims=flat:E,sizes:G,group:W,uniforms:W
    ends = xp.cumsum(sizes)
    starts = ends - sizes
    cumulative = xp.cumsum(flat)
    bases = xp.where(starts > 0, cumulative[starts - 1], 0.0)
    totals = cumulative[ends - 1] - bases
    nonpositive = xp.flatnonzero(totals <= 0)
    if nonpositive.size:
        return xp.zeros(0, dtype=xp.int64), int(nonpositive[0])
    targets = bases[group] + uniforms * totals[group]
    picks = xp.searchsorted(cumulative, targets, side="right")
    picks = xp.clip(picks, starts[group], ends[group] - 1)
    return picks - starts[group], -1


@hot_path
def flat_alias_pick(
    xp: Any,
    prob_flat: npt.NDArray[np.float32],
    alias_flat: npt.NDArray[np.int32],
    base: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    u_column: npt.NDArray[np.float64],
    u_keep: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """Walker-parallel alias draw over flat table arenas.

    Walker ``w`` resolves the ``sizes[w]``-wide alias table starting at
    ``base[w]`` with its two pre-drawn uniforms: ``u_column`` selects the
    column, ``u_keep`` the keep-vs-alias branch.  Returns the picked
    column within each walker's table.  The tables are read in place at
    their stored widths; the keep test widens ``prob_flat`` to the
    uniforms' float64.
    """
    # kcc: dims=prob_flat:T,alias_flat:T,base:W,sizes:W,u_column:W,u_keep:W
    columns = xp.minimum((u_column * sizes).astype(xp.int64), sizes - 1)
    flat_pos = base + columns
    keep = u_keep <= prob_flat[flat_pos]
    return xp.where(keep, columns, alias_flat[flat_pos])


@hot_path
def gathered_alias_pick(
    xp: Any,
    prob_flat: npt.NDArray[np.float32],
    alias_flat: npt.NDArray[np.int32],
    starts_flat: npt.NDArray[np.int64],
    sizes: npt.NDArray[np.int64],
    group: npt.NDArray[np.int64],
    u_column: npt.NDArray[np.float64],
    u_keep: npt.NDArray[np.float64],
) -> npt.NDArray[np.int64]:
    """Alias draw over per-*group* gathered tables.

    Same two-uniform decision as :func:`flat_alias_pick`, but the table
    of walker ``w`` is addressed through its group: it starts at
    ``starts_flat[group[w]]`` and is ``sizes[group[w]]`` wide.  Both
    addressing modes consume the pre-drawn uniforms identically.
    """
    # kcc: dims=prob_flat:T,alias_flat:T,starts_flat:G,sizes:G,group:W,u_column:W,u_keep:W
    width = sizes[group]
    columns = xp.minimum((u_column * width).astype(xp.int64), width - 1)
    flat_pos = starts_flat[group] + columns
    keep = u_keep <= prob_flat[flat_pos]
    return xp.where(keep, columns, alias_flat[flat_pos])


@hot_path
def acceptance_mask(
    xp: Any,
    ratios: npt.NDArray[np.float64],
    factors: npt.NDArray[np.float64],
    uniforms: npt.NDArray[np.float64],
) -> npt.NDArray[np.bool_]:
    """Rejection-round acceptance test: ``u <= min(1, ratio * factor)``.

    One boolean per proposal; the engine gives each pending walker
    several proposals per round and loops rounds over the walkers with
    none accepted.
    """
    # kcc: dims=ratios:W,factors:W,uniforms:W
    acceptance = xp.minimum(1.0, ratios * factors)
    return uniforms <= acceptance


@hot_path
def advance_frontier(
    xp: Any,
    idx: npt.NDArray[np.int64],
    step: npt.NDArray[np.int64],
    previous: npt.NDArray[np.int64],
    current: npt.NDArray[np.int64],
    active: npt.NDArray[np.bool_],
    degrees: npt.NDArray[np.int64],
) -> None:
    """State-*update* phase: shift the edge state of the active walkers.

    ``step`` holds the freshly sampled node per walker (the current
    trail column); ``previous``/``current``/``active`` are updated in
    place for the walkers listed in ``idx``.  A walker whose new node
    has no out-edges goes inactive.
    """
    # kcc: dims=idx:K,step:W,previous:W,current:W,active:W,degrees:N
    previous[idx] = current[idx]
    current[idx] = step[idx]
    active[idx] = degrees[current[idx]] > 0


__all__ = [
    "ArrayModule",
    "regroup_pairs",
    "gather_segments",
    "segmented_inverse_cdf",
    "flat_alias_pick",
    "gathered_alias_pick",
    "acceptance_mask",
    "advance_frontier",
]
