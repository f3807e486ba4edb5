"""Abstract second-order random walk model.

This is the Python counterpart of the paper's ``SecondRandomWalker``
programming interface (Figure 6): a model's job is to compute the biased
weight ``w'_vz`` of stepping from edge ``(u, v)`` to edge ``(v, z)``.

Terminology used throughout (matching the paper):

* ``u`` — previous node of the walk,
* ``v`` — current node,
* ``z`` — candidate next node, always a neighbour of ``v``,
* n2e distribution ``Q``: ``q(z) = w_vz / W_v`` (first-order),
* e2e distribution ``P``: ``p(z | v, u) = w'_vz / W'_v`` (second-order),
* *target ratio* ``r_uvz = w'_vz / w_vz`` — the importance ratio between the
  e2e target and the n2e proposal that drives rejection sampling
  (Equations 3-4: ``C_uv = (W_v / W'_v) · max_z r_uvz`` and
  ``β_uvz = r_uvz / max_t r_uvt``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import ModelError
from ..graph import CSRGraph
from ..graph.csr import segment_positions


def row_positions(
    graph: CSRGraph, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR positions of the rows of ``vs``, concatenated, plus each
    row's length — the segmented gather behind the vectorised ``*_many``
    model methods."""
    vs = np.asarray(vs, dtype=np.int64)
    starts = graph.indptr[vs]
    sizes = graph.indptr[vs + 1] - starts
    return segment_positions(starts, sizes), sizes


class SecondOrderModel(ABC):
    """Defines the e2e transition distribution of a second-order walk."""

    #: short name used by the registry / CLI.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # the single required primitive (Figure 6's biasedWeight)
    # ------------------------------------------------------------------
    @abstractmethod
    def biased_weight(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        """``w'_vz``: unnormalised e2e weight of moving to ``z`` from edge
        ``(u, v)``.  ``z`` must be a neighbour of ``v``."""

    # ------------------------------------------------------------------
    # vectorised / derived quantities (defaults delegate to biased_weight;
    # concrete models override for speed)
    # ------------------------------------------------------------------
    def biased_weights(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        """Unnormalised e2e weights for all neighbours of ``v`` (in the
        order of ``graph.neighbors(v)``)."""
        return np.array(
            [self.biased_weight(graph, u, v, int(z)) for z in graph.neighbors(v)],
            dtype=np.float64,
        )

    def biased_weights_many(
        self, graph: CSRGraph, us: np.ndarray, vs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """e2e weights for a batch of edge states ``(us[i], vs[i])``.

        Returns ``(flat, sizes)``: the per-state weight vectors (each in
        ``graph.neighbors(vs[i])`` order) concatenated into one flat array,
        plus the vector length per state.  The batch walk engine calls this
        once per step with every distinct edge state on the frontier; the
        default loops over :meth:`biased_weights`, concrete models override
        it with a fully vectorised version.

        Contract: for a given ``(u, v)`` the returned values must be
        bit-identical regardless of which other states share the batch,
        so a state's distribution never depends on which other walkers
        share its step.
        """
        chunks = [
            self.biased_weights(graph, int(u), int(v)) for u, v in zip(us, vs)
        ]
        sizes = np.array([len(c) for c in chunks], dtype=np.int64)
        flat = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=np.float64)
        )
        return flat, sizes

    def target_ratios_many(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        candidates: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Target ratios for a batch of edge states ``(us[i], vs[i])``.

        ``candidates`` is ``None`` for every state's full row
        ``graph.neighbors(vs[i])`` (exact bounding, rejection factors), or
        a ``(flat, sizes)`` pair giving each state its own candidate
        neighbours of ``vs[i]`` (estimation over a sampled ``SN(v)``).
        Returns ``(flat, sizes)`` like :meth:`biased_weights_many`.

        The default loops over the per-state call the scalar bounding code
        makes — :meth:`target_ratios` for full rows,
        :meth:`target_ratios_subset` for candidates — so models without a
        vectorised override give bit-identical constants by construction.
        Overrides must stay bit-identical to those per-state calls.
        """
        if candidates is None:
            chunks = [
                self.target_ratios(graph, int(u), int(v))
                for u, v in zip(us, vs)
            ]
        else:
            flat, sizes = candidates
            bounds = np.cumsum(sizes)
            chunks = [
                self.target_ratios_subset(
                    graph, int(u), int(v), flat[stop - size : stop]
                )
                for u, v, size, stop in zip(us, vs, sizes, bounds)
            ]
        sizes = np.array([len(c) for c in chunks], dtype=np.int64)
        flat = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=np.float64)
        )
        return flat, sizes

    def e2e_distribution(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        """Normalised ``p(z | v, u)`` over ``graph.neighbors(v)``."""
        weights = self.biased_weights(graph, u, v)
        total = weights.sum()
        if total <= 0:
            raise ModelError(
                f"e2e distribution from edge ({u}, {v}) has zero total mass"
            )
        return weights / total

    def target_ratios(self, graph: CSRGraph, u: int, v: int) -> np.ndarray:
        """``r_uvz = w'_vz / w_vz`` for all neighbours ``z`` of ``v``.

        This is the quantity that bounds the rejection sampler: its maximum
        over ``z`` determines ``C_uv`` and its per-candidate value the
        acceptance probability.

        Contract: ratios are only ever used scale-invariantly (acceptance is
        ``r_z / max_t r_t``), so implementations may return them up to any
        positive constant factor per ``(u, v)`` pair — the autoregressive
        model exploits this to return the paper's ``(1-α) + α·p_uz/p_vz``
        form directly.
        """
        w = graph.neighbor_weights(v)
        return self.biased_weights(graph, u, v) / w

    def target_ratio(self, graph: CSRGraph, u: int, v: int, z: int) -> float:
        """``r_uvz`` for a single candidate ``z`` (a neighbour of ``v``)."""
        w = graph.edge_weight(v, z)
        if w <= 0:
            raise ModelError(f"({v}, {z}) is not an edge with positive weight")
        return self.biased_weight(graph, u, v, z) / w

    def target_ratios_subset(
        self, graph: CSRGraph, u: int, v: int, candidates: np.ndarray
    ) -> np.ndarray:
        """``r_uvz`` for an explicit array of candidate neighbours of ``v``.

        Bounding-constant *estimation* (Section 3.3) evaluates ratios on a
        sampled sub-neighbourhood ``SN(v)`` instead of all of ``N(v)``; the
        default implementation loops over :meth:`target_ratio`, concrete
        models override it with a vectorised version so that estimation is
        genuinely cheaper than exact enumeration.
        """
        return np.array(
            [self.target_ratio(graph, u, v, int(z)) for z in candidates],
            dtype=np.float64,
        )

    def target_ratio_bulk(
        self,
        graph: CSRGraph,
        us: np.ndarray,
        vs: np.ndarray,
        zs: np.ndarray,
        *,
        hops: np.ndarray | None = None,
    ) -> np.ndarray:
        """``r_uvz`` for aligned arrays of ``(u, v, z)`` triples.

        The batch walk engine's frontier-wide rejection step scores every
        walker's proposal in one call.  The default loops over
        :meth:`target_ratio`; concrete models override it vectorised.
        ``hops``, when given, holds the flat CSR index of each edge
        ``(v, z)`` (the engine draws proposals as edges), so a model can
        read ``w_vz`` at ``graph.weights[hops]`` instead of searching for
        the edge; the default ignores it.
        """
        return np.array(
            [
                self.target_ratio(graph, int(u), int(v), int(z))
                for u, v, z in zip(us, vs, zs)
            ],
            dtype=np.float64,
        )

    def max_ratio_bound(self, graph: CSRGraph) -> float | None:
        """A graph-wide constant upper bound on ``r_uvz``, if one exists.

        node2vec has the closed form ``max(1/a, 1/b, 1)``; the autoregressive
        model does not (its ratio depends on degree ratios), so it returns
        ``None`` and the rejection sampler must use per-edge exact or
        estimated maxima from :mod:`repro.bounding`.
        """
        return None

    def return_outlier(self, graph: CSRGraph) -> tuple[float, float] | None:
        """``(B', r_ret)``, if the return candidate is an outlier of the
        ratios: ``B'`` bounds ``r_uvz`` over every candidate ``z != u`` in
        closed form, and ``r_ret`` is the exact ratio of ``z = u``.

        Where ``r_ret > B'`` the batch engine's rejection path proposes
        the return edge separately and draws the rest under the envelope
        ``B'`` instead of ``max_ratio_bound`` (see ``docs/performance.md``,
        "Rejection rounds").  The default, ``None``, keeps the plain
        envelope.
        """
        return None

    def min_ratio_bound(self, graph: CSRGraph) -> float | None:
        """A graph-wide constant lower bound on ``r_uvz``, if one exists.

        Every candidate, ``z = u`` included, has ``r_uvz`` at or above it.
        The batch engine's rejection path accepts a proposal under the
        envelope ``B`` with probability at least ``min(1, r_min / B)``, so
        it takes one in that many without a ratio call (see
        ``docs/performance.md``, "Rejection rounds").  The default,
        ``None``, checks every proposal.  A model whose ratios fall below
        the bound it declares makes the engine raise ``SamplerError``.
        """
        return None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check hyper-parameters; raise :class:`ModelError` when invalid."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
