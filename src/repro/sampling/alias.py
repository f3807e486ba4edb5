"""Walker/Vose alias method — paper Section 2.2, Figure 3(b).

Builds a probability table ``U`` and an alias table ``K`` in ``O(n)`` and
draws in ``O(1)``: pick a uniform column ``x``, return ``x`` with
probability ``U[x]`` and the alias ``K[x]`` otherwise.

Tables are stored at the byte widths the cost model charges (``b_f`` and
``b_i`` of Table 1): the build runs in float64 and rounds each ``U``
entry once to :data:`TABLE_FLOAT`, and ``K`` holds column indices, which
:data:`TABLE_INT` always fits.  A draw compares its float64 uniform with
the stored ``U`` widened back to float64.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ..constants import DEFAULT_FLOAT_BYTES, DEFAULT_INT_BYTES
from ..exceptions import CostModelError

if TYPE_CHECKING:
    from ..cost import CostParams
from ..rng import RngLike, ensure_rng
from .base import DiscreteSampler
from .utils import normalize_distribution, validate_segments


def _msan_trace(structure: str, nbytes: int, **dims: float) -> None:
    # Deferred import: repro.analysis pulls in the walk layers, which
    # import sampling — binding at first build keeps the cycle open.
    from ..analysis.msan import trace_alloc

    trace_alloc(structure, nbytes, **dims)


#: dtype of stored probabilities and acceptance factors (``b_f`` bytes).
TABLE_FLOAT = np.dtype(f"f{DEFAULT_FLOAT_BYTES}")
#: dtype of stored alias entries (``b_i`` bytes).
TABLE_INT = np.dtype(f"i{DEFAULT_INT_BYTES}")


def check_table_widths(params: "CostParams") -> None:
    """Raise :class:`CostModelError` unless ``params`` prices a table slot
    at the widths every sampler table is stored at, the itemsizes of
    :data:`TABLE_FLOAT` and :data:`TABLE_INT`.

    A framework's meter charges what its cost table prices, so other
    widths would charge bytes the tables do not hold.  Analytic
    projections at other widths call :func:`~repro.cost.build_cost_table`
    directly; it accepts any widths.
    """
    stored = (TABLE_FLOAT.itemsize, TABLE_INT.itemsize)
    if (params.float_bytes, params.int_bytes) != stored:
        raise CostModelError(
            f"cost_params price tables at b_f={params.float_bytes}, "
            f"b_i={params.int_bytes} bytes, but sampler tables are stored at "
            f"b_f={stored[0]}, b_i={stored[1]}"
        )


class AliasTable(DiscreteSampler):
    """O(1) sampler over a fixed discrete distribution.

    Uses Vose's numerically-stable construction: outcomes are split into a
    "small" worklist (mass below the uniform 1/n level) and a "large" one;
    each small outcome is topped up by an alias drawn from a large outcome.
    """

    __slots__ = ("_prob", "_alias")

    def __init__(self, weights: np.ndarray) -> None:
        p = normalize_distribution(weights)
        n = len(p)
        scaled_arr = p * n
        # Array-based build: the small/large classification and the final
        # table writes are vectorised; only the inherently sequential Vose
        # pairing (each donation mutates the donor's residual) stays a
        # loop, run over native lists/floats for speed.  The pairing order
        # matches the historical list-worklist build exactly; the float64
        # residuals are rounded once, when stored.
        prob = np.ones(n, dtype=TABLE_FLOAT)
        alias = np.arange(n, dtype=TABLE_INT)
        small = np.flatnonzero(scaled_arr < 1.0).tolist()
        large = np.flatnonzero(scaled_arr >= 1.0).tolist()
        scaled = scaled_arr.tolist()
        done_idx: list[int] = []
        done_prob: list[float] = []
        done_alias: list[int] = []
        while small and large:
            lo = small.pop()
            hi = large.pop()
            done_idx.append(lo)
            done_prob.append(scaled[lo])
            done_alias.append(hi)
            residual = (scaled[hi] + scaled[lo]) - 1.0
            scaled[hi] = residual
            if residual < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        if done_idx:
            prob[done_idx] = done_prob
            alias[done_idx] = done_alias
        # Leftovers (still in either worklist) are exactly-1 columns up to
        # float error and keep prob=1, alias=self from the initialisation.

        self._prob = prob
        self._alias = alias
        _msan_trace("alias_table", self.nbytes, d=n)

    @classmethod
    def _from_arrays(cls, prob: np.ndarray, alias: np.ndarray) -> "AliasTable":
        """Wrap tables built elsewhere (by :func:`build_alias_tables`),
        without copying them."""
        table = cls.__new__(cls)
        table._prob = prob
        table._alias = alias
        return table

    @property
    def num_outcomes(self) -> int:
        return len(self._prob)

    @property
    def nbytes(self) -> int:
        """Real resident bytes of the two tables: :meth:`memory_bytes` at
        the default widths."""
        return int(self._prob.nbytes + self._alias.nbytes)

    @property
    def probability_table(self) -> np.ndarray:
        """The ``U`` table (probability of keeping the drawn column)."""
        return self._prob

    @property
    def alias_table(self) -> np.ndarray:
        """The ``K`` table (alias outcome per column)."""
        return self._alias

    def sample(self, rng: np.random.Generator) -> int:
        x = int(rng.integers(self.num_outcomes))
        # float(): a Python float against a float32 scalar would compare
        # at float32, unlike the array draws.
        if rng.random() <= float(self._prob[x]):
            return x
        return int(self._alias[x])

    def sample_many(self, count: int, rng: RngLike = None) -> np.ndarray:
        gen = ensure_rng(rng)
        x = gen.integers(self.num_outcomes, size=count)
        keep = gen.random(count) <= self._prob[x]
        return np.where(keep, x, self._alias[x]).astype(np.int64)

    def memory_bytes(self, int_bytes: int = 4, float_bytes: int = 4) -> int:
        # One float (probability) + one int (alias) per outcome: the
        # (b_f + b_i) * n term of Table 1.
        return self.num_outcomes * (int_bytes + float_bytes)


def build_alias_tables(
    flat: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vose tables for many distributions in one lockstep pass.

    Segment ``i`` of ``flat`` holds the next ``sizes[i]`` weights.  Its
    probability and alias entries land at the same flat positions, with
    aliases local to the segment, at :data:`TABLE_FLOAT` and
    :data:`TABLE_INT`.  Every segment comes out bit-identical
    to ``AliasTable(segment)``: the normalisation reproduces ``arr.sum()``
    (see :func:`~repro.sampling.utils.segment_sums`), and each table keeps
    the scalar build's worklist order.  One loop iteration performs the
    next pairing of every table still pairing, so a block of tables costs
    as many iterations as its longest table needs, not one per table.

    The two worklists of a table share its segment of one stack array:
    small outcomes fill it from the left in ascending order, large ones
    from the right in descending order, so both tops sit next to the free
    middle.  Each pairing retires one small outcome, so they never meet.
    """
    flat = np.asarray(flat, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    sums = validate_segments(flat, sizes)
    total = len(flat)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    owner_start = np.repeat(starts, sizes)
    scaled = flat / np.repeat(sums, sizes) * np.repeat(sizes, sizes)
    local = np.arange(total, dtype=np.int64) - owner_start
    alias = local.copy()

    small = scaled < 1.0
    small_seen = np.concatenate(([0], np.cumsum(small)))
    num_small = small_seen[ends] - small_seen[starts]
    small_rank = small_seen[1:] - 1 - np.repeat(small_seen[starts], sizes)
    large_rank = local - small_rank - 1
    slots = np.where(
        small,
        owner_start + small_rank,
        np.repeat(ends, sizes) - 1 - large_rank,
    )
    stack = np.empty(total, dtype=np.int64)
    stack[slots] = np.arange(total, dtype=np.int64)

    pairing = (num_small > 0) & (num_small < sizes)
    first, last = starts[pairing], ends[pairing]
    # Per pairing table: small outcomes at stack[first:top] (top of list
    # at top - 1), large ones at stack[top:last] (top of list at bottom).
    top = first + num_small[pairing]
    bottom = top.copy()
    while len(first):
        top -= 1
        lo = stack[top]
        hi = stack[bottom]
        alias[lo] = hi - first
        residual = (scaled[hi] + scaled[lo]) - 1.0
        scaled[hi] = residual
        demoted = residual < 1.0
        # A demoted donor takes the freed top slot of the small list and
        # leaves the large one; an undemoted one stays on the large list.
        stack[top] = np.where(demoted, hi, lo)
        top += demoted
        bottom += demoted
        going = (top > first) & (bottom < last)
        if not going.all():
            first, last = first[going], last[going]
            top, bottom = top[going], bottom[going]
    # Retired outcomes keep the residual they were paired with; the
    # leftovers are exactly-1 columns up to float error (prob 1, self).
    prob = np.where(alias != local, scaled, 1.0)
    return prob.astype(TABLE_FLOAT), alias.astype(TABLE_INT)
