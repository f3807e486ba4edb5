"""Exact bounding-constant computation (paper Equation 3).

For an edge ``(u, v)`` with the n2e proposal ``Q(z) = w_vz / W_v`` and the
e2e target ``P(z) = w'_vz / W'_v``::

    C_uv = max_z P(z) / Q(z) = (W_v / W'_v) · max_z (w'_vz / w_vz)

and the per-node average ``C_v = (1/d_v) Σ_{u ∈ N(v)} C_uv`` is the time
coefficient the cost model charges the rejection node sampler.

Ratios supplied by a model may carry an arbitrary positive per-``(u, v)``
scale (see :meth:`SecondOrderModel.target_ratios`); the scale cancels in
the formula used here::

    C_uv = max_z r_z · (Σ_z w_vz) / (Σ_z r_z · w_vz)

which also generalises cleanly to sampled sub-neighbourhoods (estimation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import BoundingConstantError
from ..graph import CSRGraph
from ..graph.csr import segment_positions
from ..models import SecondOrderModel
from ..models.base import row_positions
from ..sampling.utils import segment_sums
from .blocks import StateBlock, degree_order, state_blocks


def _bounding_from_ratios(ratios: np.ndarray, weights: np.ndarray) -> float:
    """``C`` from target ratios and proposal weights over the same support.

    The denominator is ``(ratios * weights).sum()``, the sum
    :func:`~repro.sampling.utils.segment_sums` reproduces bit for bit, so
    the block pass (:func:`accumulate_constants`) matches this oracle.
    """
    denom = float((ratios * weights).sum())
    if denom <= 0:
        raise BoundingConstantError("target distribution has zero total mass")
    return float(ratios.max()) * float(weights.sum()) / denom


def edge_max_ratio(
    graph: CSRGraph, model: SecondOrderModel, u: int, v: int
) -> float:
    """``max_z r_uvz`` over all neighbours ``z`` of ``v``.

    The reciprocal of this maximum is the acceptance *factor*
    ``min_t (w_vt / w'_vt)`` that the rejection node sampler stores per
    incoming edge (Equation 4 and the memory analysis of Section 4.1).
    """
    if graph.degree(v) == 0:
        raise BoundingConstantError(f"node {v} has no neighbours")
    return float(model.target_ratios(graph, u, v).max())


def edge_bounding_constant(
    graph: CSRGraph, model: SecondOrderModel, u: int, v: int
) -> float:
    """Exact ``C_uv`` (Equation 3)."""
    if graph.degree(v) == 0:
        raise BoundingConstantError(f"node {v} has no neighbours")
    ratios = model.target_ratios(graph, u, v)
    weights = graph.neighbor_weights(v)
    return _bounding_from_ratios(ratios, weights)


def node_bounding_constant(
    graph: CSRGraph, model: SecondOrderModel, v: int
) -> float:
    """Exact average ``C_v`` over all previous nodes ``u ∈ N(v)``.

    ``O(d_v^2)`` as analysed in Section 3.3.  An isolated node has no
    second-order steps; its ``C_v`` is defined as 1 (a single proposal
    always accepted) so the cost model stays total.
    """
    neighbors = graph.neighbors(v)
    if len(neighbors) == 0:
        return 1.0
    weights = graph.neighbor_weights(v)
    total = 0.0
    for u in neighbors:
        ratios = model.target_ratios(graph, int(u), v)
        total += _bounding_from_ratios(ratios, weights)
    return total / len(neighbors)


@dataclass
class BoundingConstants:
    """Per-node average bounding constants ``C_v`` for a whole graph.

    ``values[v]`` is ``C_v``; ``exact`` records whether every entry was
    computed by full enumeration (False when estimation was used for some
    nodes); ``estimated_nodes`` counts nodes whose constant was estimated.
    """

    values: np.ndarray
    exact: bool = True
    estimated_nodes: int = 0
    degree_threshold: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values < 1.0 - 1e-9):
            raise BoundingConstantError(
                "bounding constants below 1 indicate a broken ratio computation"
            )

    def __getitem__(self, v: int) -> float:
        return float(self.values[v])

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        """Average ``C_v`` across the graph."""
        return float(self.values.mean())

    @property
    def max(self) -> float:
        """Largest ``C_v`` in the graph."""
        return float(self.values.max())


def compute_bounding_constants(
    graph: CSRGraph, model: SecondOrderModel
) -> BoundingConstants:
    """Exact ``C_v`` for every node (the LP-std path of the paper).

    Total complexity matches triangle counting — quadratic in node degree —
    which is exactly why Section 3.3 introduces estimation.  Runs in block
    passes over edge states (:func:`accumulate_constants`) that visit the
    nodes in :func:`~repro.bounding.blocks.degree_order`, with every
    node's row mass ``W_v`` summed once up front; the values are
    bit-identical to :func:`node_bounding_constant` per node.
    """
    degrees = graph.degrees
    nodes = np.flatnonzero(degrees)
    nodes = nodes[degree_order(graph, nodes)]
    masses = segment_sums(graph.weights, degrees)
    totals = np.zeros(graph.num_nodes, dtype=np.float64)
    for block in state_blocks(graph, nodes, degrees[nodes]):
        positions, sizes = row_positions(graph, block.nodes)
        accumulate_constants(
            totals, graph, model, block, graph.weights[positions], sizes,
            masses=masses[block.nodes],
        )
    values = np.ones(graph.num_nodes, dtype=np.float64)
    values[nodes] = totals[nodes] / degrees[nodes]
    evaluations = int((degrees * degrees).sum())
    return BoundingConstants(
        values=values, exact=True, meta={"ratio_evaluations": evaluations}
    )


def accumulate_constants(
    totals: np.ndarray,
    graph: CSRGraph,
    model: SecondOrderModel,
    block: StateBlock,
    rows: np.ndarray,
    row_sizes: np.ndarray,
    candidates: "tuple[np.ndarray, np.ndarray] | None" = None,
    masses: np.ndarray | None = None,
) -> None:
    """Add ``C_uv`` of every state of ``block`` to ``totals[v]``.

    ``rows`` holds, per node of the block, the proposal weights its
    ratios are taken over (``row_sizes`` each); ``candidates`` is passed
    to :meth:`~repro.models.SecondOrderModel.target_ratios_many`.
    ``masses`` gives each row's ``W = rows.sum()`` when the caller has it
    (the exact pass sums every node's row once, not once per block);
    otherwise the rows are summed here.  Every float op follows
    :func:`_bounding_from_ratios`: the max is exact in any order, ``W``
    is each row's ``sum()``, the denominators are the
    :func:`segment_sums` of each state's ratios times its node's row
    (``ndarray.sum`` order), and ``np.add.at`` adds the states of a node
    in order, like the scalar ``total +=``.
    """
    ratios, sizes = model.target_ratios_many(graph, block.us, block.vs, candidates)
    state_row = np.repeat(np.arange(len(block.nodes)), block.counts)
    row_starts = np.cumsum(row_sizes) - row_sizes
    weights = rows[segment_positions(row_starts[state_row], sizes)]
    denoms = segment_sums(ratios * weights, sizes)
    if np.any(denoms <= 0):
        raise BoundingConstantError("target distribution has zero total mass")
    maxima = np.maximum.reduceat(ratios, np.cumsum(sizes) - sizes)
    if masses is None:
        masses = segment_sums(rows, row_sizes)
    masses = masses[state_row]
    np.add.at(totals, block.vs, maxima * masses / denoms)
