"""Sampled bounding-constant estimation (paper Section 3.3).

Exact ``C_v`` costs ``O(d_v^2)``.  When ``d_v`` exceeds a threshold
``D_th`` the paper instead evaluates the ratio maximum over a uniformly
sampled sub-neighbourhood ``SN(v)`` of size ``D_th``, cutting the per-node
cost to ``O(d_v · D_th)``.  The default threshold (600) is the paper's.
"""

from __future__ import annotations

import numpy as np

from ..constants import DEFAULT_DEGREE_THRESHOLD
from ..exceptions import BoundingConstantError
from ..graph import CSRGraph
from ..graph.csr import segment_positions
from ..models import SecondOrderModel
from ..models.base import row_positions
from ..rng import RngLike, ensure_rng
from .blocks import state_blocks
from .exact import BoundingConstants, _bounding_from_ratios, accumulate_constants


def estimate_edge_bounding_constant(
    graph: CSRGraph,
    model: SecondOrderModel,
    u: int,
    v: int,
    *,
    sample_positions: np.ndarray,
) -> float:
    """Estimated ``C_uv`` from ratio evaluations on a neighbour sample.

    ``sample_positions`` indexes into ``graph.neighbors(v)``.  Uses the
    scale-free estimator::

        Ĉ_uv = max_{z ∈ S} r_z · (Σ_{z ∈ S} w_vz) / (Σ_{z ∈ S} r_z · w_vz)

    which coincides with the exact value when ``S = N(v)`` and converges to
    it by the law of large numbers as the sample grows.
    """
    neighbors = graph.neighbors(v)
    if len(neighbors) == 0:
        raise BoundingConstantError(f"node {v} has no neighbours")
    candidates = neighbors[sample_positions]
    ratios = model.target_ratios_subset(graph, u, v, candidates)
    weights = graph.neighbor_weights(v)[sample_positions]
    return _bounding_from_ratios(ratios, weights)


def estimate_node_bounding_constant(
    graph: CSRGraph,
    model: SecondOrderModel,
    v: int,
    *,
    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
    rng: RngLike = None,
) -> float:
    """``C_v`` with per-edge estimation when ``d_v`` exceeds the threshold.

    One uniform sample ``SN(v)`` (without replacement, size ``D_th``) is
    drawn per node and shared across all previous nodes ``u`` — matching the
    ``O(d_v · D_th)`` estimation cost of Section 3.3.
    """
    neighbors = graph.neighbors(v)
    degree = len(neighbors)
    if degree == 0:
        return 1.0
    gen = ensure_rng(rng)
    if degree > degree_threshold:
        positions = np.sort(
            gen.choice(degree, size=degree_threshold, replace=False)
        )
    else:
        positions = np.arange(degree)
    weights = graph.neighbor_weights(v)[positions]
    candidates = neighbors[positions]
    total = 0.0
    for u in neighbors:
        ratios = model.target_ratios_subset(graph, int(u), v, candidates)
        total += _bounding_from_ratios(ratios, weights)
    return total / degree


def estimate_bounding_constants(
    graph: CSRGraph,
    model: SecondOrderModel,
    *,
    degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
    rng: RngLike = None,
) -> BoundingConstants:
    """Estimated ``C_v`` for every node (the LP-est path of the paper).

    Nodes at or below ``degree_threshold`` are computed exactly, so on
    graphs whose maximum degree is below the threshold this returns the
    exact constants.
    """
    if degree_threshold < 1:
        raise BoundingConstantError("degree_threshold must be >= 1")
    gen = ensure_rng(rng)
    degrees = graph.degrees
    nodes = np.flatnonzero(degrees)
    widths = np.minimum(degrees[nodes], degree_threshold)
    totals = np.zeros(graph.num_nodes, dtype=np.float64)
    # SN(v) of a node above the threshold, drawn when its first state is
    # reached — one draw per such node, in node order, as the scalar path.
    samples: dict[int, np.ndarray] = {}
    for block in state_blocks(graph, nodes, widths):
        if block.degrees.max() <= degree_threshold:
            positions, sizes = row_positions(graph, block.nodes)
        else:
            parts = []
            for v, degree, first, _, last in block.segments():
                start = int(graph.indptr[v])
                if degree <= degree_threshold:
                    parts.append(np.arange(start, start + degree))
                    continue
                if first == 0:
                    samples[v] = start + np.sort(
                        gen.choice(degree, size=degree_threshold, replace=False)
                    )
                parts.append(samples.pop(v) if last else samples[v])
            positions = np.concatenate(parts)
            sizes = np.minimum(block.degrees, degree_threshold)
        # Every state of a node is scored over the node's candidate row.
        state_sizes = np.repeat(sizes, block.counts)
        row_starts = np.cumsum(sizes) - sizes
        candidates = graph.indices[positions][
            segment_positions(np.repeat(row_starts, block.counts), state_sizes)
        ]
        accumulate_constants(
            totals,
            graph,
            model,
            block,
            graph.weights[positions],
            sizes,
            (candidates, state_sizes),
        )
    values = np.ones(graph.num_nodes, dtype=np.float64)
    values[nodes] = totals[nodes] / degrees[nodes]
    over = degrees > degree_threshold
    # The O(d_v · D_th) of §3.3 above the threshold, d_v² below it.
    evaluations = int(
        np.where(over, degrees * degree_threshold, degrees * degrees).sum()
    )
    estimated = int(over.sum())
    return BoundingConstants(
        values=values,
        exact=(estimated == 0),
        estimated_nodes=estimated,
        degree_threshold=degree_threshold,
        meta={"ratio_evaluations": evaluations},
    )
