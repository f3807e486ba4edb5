"""The node2vec second-order model (paper Equation 1).

Walking from edge ``(u, v)``, the biased weight of a candidate ``z`` in
``N(v)`` depends on the unweighted distance ``l_uz`` between ``u`` and ``z``:

====================  =========================  ================
``l_uz``              meaning                    ``w'_vz``
====================  =========================  ================
0                     ``z == u`` (return)        ``w_vz / a``
1                     ``z`` adjacent to ``u``    ``w_vz``
2                     otherwise                  ``w_vz / b``
====================  =========================  ================

``a`` is the *return* parameter and ``b`` the *in-out* parameter (the
original node2vec paper calls them ``p`` and ``q``; we keep the SIGMOD
paper's letters).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..graph import CSRGraph
from .base import SecondOrderModel, row_positions


class Node2VecModel(SecondOrderModel):
    """node2vec e2e distribution ``NV(a, b)``.

    Parameters
    ----------
    a:
        Return parameter (> 0); weight of revisiting ``u`` is divided by it.
    b:
        In-out parameter (> 0); weight of leaving ``u``'s neighbourhood is
        divided by it.
    """

    name = "node2vec"

    def __init__(self, a: float = 1.0, b: float = 1.0) -> None:
        self.a = float(a)
        self.b = float(b)
        self.validate()

    def validate(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ModelError(
                f"node2vec parameters must be positive, got a={self.a}, b={self.b}"
            )

    # ------------------------------------------------------------------
    def biased_weight(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        w = graph.edge_weight(v, z)
        if z == u:
            return w / self.a
        if graph.has_edge(u, z):
            return w
        return w / self.b

    def biased_weights(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        neighbors = graph.neighbors(v)
        weights = graph.neighbor_weights(v).astype(np.float64, copy=True)
        adjacent = graph.has_edges_bulk(u, neighbors)
        factors = np.where(adjacent, 1.0, 1.0 / self.b)
        factors[neighbors == u] = 1.0 / self.a
        return weights * factors

    def biased_weights_many(
        self, graph: CSRGraph, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        positions, sizes = row_positions(graph, vs)
        if len(positions) == 0:
            return np.empty(0, dtype=np.float64), sizes
        z = graph.indices[positions]
        weights = graph.weights[positions].astype(np.float64, copy=True)
        # Same elementwise ops as biased_weights, so per-state results are
        # bit-identical to the scalar path regardless of batch composition.
        return weights * self._ratios(graph, np.asarray(us), z, sizes), sizes

    def target_ratios_many(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        candidates: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if candidates is None:
            positions, sizes = row_positions(graph, vs)
            z = graph.indices[positions]
        else:
            z, sizes = candidates
        return self._ratios(graph, np.asarray(us), z, sizes), sizes

    def _ratios(
        self, graph: CSRGraph, us: np.ndarray, z: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """Ratio per candidate ``z`` of states whose ``u`` repeats
        ``sizes`` times — :meth:`target_ratios` for a flat batch."""
        u_rep = np.repeat(us.astype(np.int64, copy=False), sizes)
        adjacent = graph.has_edge_pairs(u_rep, z)
        ratios = np.where(adjacent, 1.0, 1.0 / self.b)
        ratios[z == u_rep] = 1.0 / self.a
        return ratios

    def target_ratios(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        neighbors = graph.neighbors(v)
        adjacent = graph.has_edges_bulk(u, neighbors)
        ratios = np.where(adjacent, 1.0, 1.0 / self.b)
        ratios[neighbors == u] = 1.0 / self.a
        return ratios

    def target_ratio(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        if z == u:
            return 1.0 / self.a
        if graph.has_edge(u, z):
            return 1.0
        return 1.0 / self.b

    def target_ratios_subset(
        self, graph: CSRGraph, u: int, v: int, candidates: np.ndarray
    ) -> np.ndarray:
        candidates = np.asarray(candidates)
        adjacent = graph.has_edges_bulk(u, candidates)
        ratios = np.where(adjacent, 1.0, 1.0 / self.b)
        ratios[candidates == u] = 1.0 / self.a
        return ratios

    def target_ratio_bulk(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        zs: np.ndarray,
        *,
        hops: np.ndarray | None = None,
    ) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        zs = np.asarray(zs, dtype=np.int64)
        adjacent = graph.has_edge_pairs(us, zs)
        ratios = np.where(adjacent, 1.0, 1.0 / self.b)
        ratios[zs == us] = 1.0 / self.a
        return ratios

    def max_ratio_bound(self, graph: CSRGraph) -> float:
        """``max(1/a, 1/b, 1)`` — closed form used by Section 3.1."""
        return max(1.0 / self.a, 1.0 / self.b, 1.0)

    def return_outlier(self, graph: CSRGraph) -> tuple[float, float]:
        """Candidates other than ``u`` have ratio ``1`` or ``1/b``; the
        return candidate has ``1/a``."""
        return max(1.0, 1.0 / self.b), 1.0 / self.a

    def min_ratio_bound(self, graph: CSRGraph) -> float:
        """``min(1/a, 1, 1/b)``: the three ratio kinds, ``z = u``
        included."""
        return min(1.0 / self.a, 1.0, 1.0 / self.b)

    def __repr__(self) -> str:
        return f"Node2VecModel(a={self.a}, b={self.b})"
