"""Per-sampler cost formulas (paper Table 1)."""

from __future__ import annotations

from enum import IntEnum

from ..exceptions import CostModelError
from .params import CostParams


class SamplerKind(IntEnum):
    """The three node samplers, ordered by increasing memory cost.

    The integer order matches the column order of the cost table and the
    upgrade direction of the LP greedy algorithm (naive → rejection → alias).
    """

    NAIVE = 0
    REJECTION = 1
    ALIAS = 2

    @property
    def short(self) -> str:
        """Single-letter code used in traces (paper Figure 5: N/R/A)."""
        return {"NAIVE": "N", "REJECTION": "R", "ALIAS": "A"}[self.name]

    @classmethod
    def from_name(cls, name: str) -> "SamplerKind":
        """Parse ``"naive"``/``"rejection"``/``"alias"`` (case-insensitive)."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise CostModelError(f"unknown sampler kind {name!r}") from None


# ----------------------------------------------------------------------
# memory costs (bytes, per node)
# ----------------------------------------------------------------------

def naive_memory(params: CostParams, max_degree: int, num_nodes: int) -> float:
    """Per-node share of the single shared ``d_max`` scratch array.

    The naive sampler builds each distribution on demand into one
    graph-wide buffer, so the per-node accounting charge is
    ``b_f · d_max / |V|`` (fractional bytes are intentional — this is a
    knapsack weight, not an allocation).
    """
    if num_nodes <= 0:
        raise CostModelError("num_nodes must be positive")
    return params.float_bytes * max_degree / num_nodes


def rejection_memory(params: CostParams, degree: int) -> float:
    """``(2 b_f + b_i) · d_v``: the n2e alias table (``(b_f + b_i) d_v``)
    plus one acceptance factor per incoming edge (``b_f · d_v``)."""
    return (2 * params.float_bytes + params.int_bytes) * degree


def alias_memory(params: CostParams, degree: int) -> float:
    """``(b_f + b_i)(d_v² + d_v)``: one alias table per incoming edge
    (the ``d_v²`` term) plus the n2e table for walk starts."""
    return (params.float_bytes + params.int_bytes) * (degree * degree + degree)


def alias_table_memory(params: CostParams, degree: int) -> float:
    """``(b_f + b_i) · d``: one alias table over ``d`` outcomes — the unit
    both table samplers are built from, and the whole per-node state of a
    rejection sampler whose model has a closed-form bound (no factors)."""
    return (params.float_bytes + params.int_bytes) * degree


def resident_shard_memory(
    params: CostParams, num_nodes: int, num_edges: int
) -> float:
    """``b_i (n_s + 1) + (b_i + b_f) E_s``: one resident CSR shard of
    ``n_s`` nodes and ``E_s`` edges — its indptr plus one target id and
    one weight per edge.  Shard files store int64/float64, so the real
    bytes are this formula at 8-byte widths: ``8 n_s + 16 E_s + 8``."""
    return (
        params.int_bytes * (num_nodes + 1)
        + (params.int_bytes + params.float_bytes) * num_edges
    )


# ----------------------------------------------------------------------
# time costs (multiples of K, per sample)
# ----------------------------------------------------------------------

def naive_time(params: CostParams, degree: int) -> float:
    """``d_v (c + 1) K``: build the e2e distribution on demand (``d_v·c``
    biased-weight computations) then linear-search it (``d_v``)."""
    c = params.check_cost(degree)
    return degree * (c + 1.0) * params.time_unit


def rejection_time(params: CostParams, degree: int, bounding_constant: float) -> float:
    """``C_v · c · K``: on average ``C_v`` proposal draws, each needing one
    biased-weight computation to evaluate the acceptance ratio."""
    if bounding_constant < 1.0 - 1e-9:
        raise CostModelError(
            f"bounding constant must be >= 1, got {bounding_constant}"
        )
    c = params.check_cost(degree)
    return bounding_constant * c * params.time_unit


def alias_time(params: CostParams) -> float:
    """``K``: constant-time table lookup."""
    return params.time_unit


# ----------------------------------------------------------------------
# dispatch helpers
# ----------------------------------------------------------------------

def sampler_memory(
    kind: SamplerKind,
    params: CostParams,
    degree: int,
    *,
    max_degree: int = 0,
    num_nodes: int = 1,
) -> float:
    """Memory cost of ``kind`` for one node."""
    if kind is SamplerKind.NAIVE:
        return naive_memory(params, max_degree, num_nodes)
    if kind is SamplerKind.REJECTION:
        return rejection_memory(params, degree)
    return alias_memory(params, degree)


def sampler_time(
    kind: SamplerKind,
    params: CostParams,
    degree: int,
    *,
    bounding_constant: float = 1.0,
) -> float:
    """Time cost of ``kind`` for one node."""
    if kind is SamplerKind.NAIVE:
        return naive_time(params, degree)
    if kind is SamplerKind.REJECTION:
        return rejection_time(params, degree, bounding_constant)
    return alias_time(params)
