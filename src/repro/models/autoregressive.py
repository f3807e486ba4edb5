"""The autoregressive second-order model (paper Section 2.1, Raftery 1985).

Used by the second-order PageRank query (Wu et al.).  From edge ``(u, v)``
the unnormalised probability of moving to ``z`` in ``N(v)`` is::

    p'_uvz = (1 - α) · p_vz + α · p_uz

with the first-order transitions ``p_vz = w_vz / W_v`` and
``p_uz = w_uz / W_u`` (zero when ``(u, z)`` is not an edge), and a memory
strength ``0 ≤ α < 1``.  ``α = 0`` degenerates to the first-order walk.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..graph import CSRGraph
from .base import SecondOrderModel, row_positions


class AutoregressiveModel(SecondOrderModel):
    """Autoregressive e2e distribution ``Auto(α)``."""

    name = "autoregressive"

    def __init__(self, alpha: float = 0.2) -> None:
        self.alpha = float(alpha)
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ModelError(f"alpha must be in [0, 1), got {self.alpha}")

    # ------------------------------------------------------------------
    def biased_weight(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        w_vz = graph.edge_weight(v, z)
        p_vz = w_vz / graph.weight_sum(v)
        w_u = graph.weight_sum(u)
        p_uz = graph.edge_weight(u, z) / w_u if w_u > 0 else 0.0
        return (1.0 - self.alpha) * p_vz + self.alpha * p_uz

    def biased_weights(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        neighbors = graph.neighbors(v)
        p_vz = graph.neighbor_weights(v) / graph.weight_sum(v)
        p_uz = self._first_order_probs(graph, u, neighbors)
        return (1.0 - self.alpha) * p_vz + self.alpha * p_uz

    def target_ratios(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        # r = w'_vz / w_vz with the n2e proposal q(z) ∝ w_vz.  Because
        # p_vz = w_vz / W_v, this is ((1-α) + α p_uz / p_vz) / W_v — the
        # W_v factor is constant in z so we keep the paper's convention of
        # reporting (1-α) + α p_uz / p_vz by normalising it away.
        neighbors = graph.neighbors(v)
        p_vz = graph.neighbor_weights(v) / graph.weight_sum(v)
        p_uz = self._first_order_probs(graph, u, neighbors)
        return (1.0 - self.alpha) + self.alpha * p_uz / p_vz

    def target_ratio(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        w_vz = graph.edge_weight(v, z)
        if w_vz <= 0:
            raise ModelError(f"({v}, {z}) is not an edge with positive weight")
        p_vz = w_vz / graph.weight_sum(v)
        w_u = graph.weight_sum(u)
        p_uz = graph.edge_weight(u, z) / w_u if w_u > 0 else 0.0
        return (1.0 - self.alpha) + self.alpha * p_uz / p_vz

    def target_ratios_subset(
        self, graph: CSRGraph, u: int, v: int, candidates: np.ndarray
    ) -> np.ndarray:
        candidates = np.asarray(candidates)
        row = graph.neighbors(v)
        pos = np.searchsorted(row, candidates)
        w_vz = graph.neighbor_weights(v)[pos]
        p_vz = w_vz / graph.weight_sum(v)
        p_uz = self._first_order_probs(graph, u, candidates)
        return (1.0 - self.alpha) + self.alpha * p_uz / p_vz

    # The vectorised batch methods below read whole-graph arrays (cached
    # W_v, the composite edge keys); graph facades without them, such as
    # the sharded scheduler's shard view, take the per-state defaults.
    def biased_weights_many(
        self, graph: CSRGraph, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(graph, CSRGraph):
            return super().biased_weights_many(graph, us, vs)
        positions, sizes = row_positions(graph, vs)
        v_rep = np.repeat(np.asarray(vs, dtype=np.int64), sizes)
        u_rep = np.repeat(np.asarray(us, dtype=np.int64), sizes)
        # The elementwise ops of biased_weights, state by state.
        p_vz = graph.weights[positions] / graph.weight_sums[v_rep]
        p_uz = self._first_order_probs_many(
            graph, u_rep, graph.indices[positions]
        )
        return (1.0 - self.alpha) * p_vz + self.alpha * p_uz, sizes

    def target_ratios_many(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        candidates: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if not isinstance(graph, CSRGraph):
            return super().target_ratios_many(graph, us, vs, candidates)
        vs = np.asarray(vs, dtype=np.int64)
        if candidates is None:
            positions, sizes = row_positions(graph, vs)
            z = graph.indices[positions]
            v_rep = np.repeat(vs, sizes)
        else:
            z, sizes = candidates
            v_rep = np.repeat(vs, sizes)
            offsets, _ = graph.edge_positions(v_rep, z)
            positions = graph.indptr[v_rep] + offsets
        u_rep = np.repeat(np.asarray(us, dtype=np.int64), sizes)
        p_vz = graph.weights[positions] / graph.weight_sums[v_rep]
        p_uz = self._first_order_probs_many(graph, u_rep, z)
        return (1.0 - self.alpha) + self.alpha * p_uz / p_vz, sizes

    def target_ratio_bulk(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        zs: np.ndarray,
        *,
        hops: np.ndarray | None = None,
    ) -> np.ndarray:
        if not isinstance(graph, CSRGraph):
            return super().target_ratio_bulk(graph, us, vs, zs, hops=hops)
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        zs = np.asarray(zs, dtype=np.int64)
        if hops is None:
            offsets, found = graph.edge_positions(vs, zs)
            w_vz = np.zeros(len(zs), dtype=np.float64)
            w_vz[found] = graph.weights[graph.indptr[vs[found]] + offsets[found]]
        else:
            w_vz = graph.weights[hops]
        bad = np.flatnonzero(w_vz <= 0)
        if bad.size:
            v, z = int(vs[bad[0]]), int(zs[bad[0]])
            raise ModelError(f"({v}, {z}) is not an edge with positive weight")
        # The float ops of target_ratio, one triple per lane.
        p_vz = w_vz / graph.weight_sums[vs]
        p_uz = self._first_order_probs_many(graph, us, zs)
        return (1.0 - self.alpha) + self.alpha * p_uz / p_vz

    @staticmethod
    def _first_order_probs_many(
        graph: CSRGraph, us: np.ndarray, zs: np.ndarray
    ) -> np.ndarray:
        """``p_uz`` for aligned pairs (0 where ``(u, z)`` is no edge or
        ``W_u`` is not positive) — :meth:`_first_order_probs` per lane."""
        w_u = graph.weight_sums[us]
        offsets, found = graph.edge_positions(us, zs)
        found &= w_u > 0
        probs = np.zeros(len(zs), dtype=np.float64)
        probs[found] = (
            graph.weights[graph.indptr[us[found]] + offsets[found]] / w_u[found]
        )
        return probs

    @staticmethod
    def _first_order_probs(
        graph: CSRGraph, u: int, targets: np.ndarray
    ) -> np.ndarray:
        """``p_uz`` for each ``z`` in ``targets`` (0 where no edge)."""
        w_u = graph.weight_sum(u)
        if w_u <= 0:
            return np.zeros(len(targets), dtype=np.float64)
        row = graph.neighbors(u)
        row_weights = graph.neighbor_weights(u)
        pos = np.searchsorted(row, targets)
        ok = pos < len(row)
        probs = np.zeros(len(targets), dtype=np.float64)
        if ok.any():
            hit = np.zeros(len(targets), dtype=bool)
            hit[ok] = row[pos[ok]] == targets[ok]
            probs[hit] = row_weights[pos[hit]] / w_u
        return probs

    def __repr__(self) -> str:
        return f"AutoregressiveModel(alpha={self.alpha})"
