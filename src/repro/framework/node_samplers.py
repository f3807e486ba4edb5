"""The three built-in node samplers (paper Sections 3-4).

==============  =============================  ==========================
Sampler         How it draws the e2e sample    Held state
==============  =============================  ==========================
Naive           builds the biased distribution  none (a shared scratch
                on demand, inverse-CDF scan     array in spirit)
Rejection       proposes from the n2e alias     n2e alias table + one
                table, accepts with ``β_uvz``   acceptance factor per
                                                incoming edge
Alias           looks up the pre-built alias    one alias table per
                table of edge ``(prev, v)``     incoming edge + n2e table
==============  =============================  ==========================
"""

from __future__ import annotations

import numpy as np

from ..bounding.blocks import state_blocks
from ..bounding.exact import edge_max_ratio
from ..cost import (
    CostParams,
    SamplerKind,
    alias_memory,
    alias_time,
    naive_time,
    rejection_memory,
    rejection_time,
)
from ..exceptions import SamplerError, WalkError
from ..graph import CSRGraph
from ..models import SecondOrderModel
from ..models.base import row_positions
from ..sampling import AliasTable
from ..sampling.alias import build_alias_tables
from .interfaces import NodeSampler


def _msan_trace(
    structure: str,
    nbytes: int,
    variant: "str | None" = None,
    **dims: float,
) -> None:
    # Deferred import: repro.analysis pulls in the walk layers, which
    # import the framework — binding at first build keeps the cycle open.
    from ..analysis.msan import trace_alloc

    trace_alloc(structure, nbytes, variant=variant, **dims)


def _msan_active() -> bool:
    from ..analysis.msan import tracing_active

    return tracing_active()


#: proposal draws a rejection sampler makes before giving up on a sample.
MAX_TRIES = 1_000_000


class NaiveNodeSampler(NodeSampler):
    """On-demand sampling: ``O(1)`` memory, ``O(d_v (c+1))`` time.

    The e2e distribution is deliberately built with a per-neighbour loop
    (one ``biased_weight`` call each), not a vectorised batch: the paper's
    cost model charges the naive sampler ``d_v`` *individual* biased-weight
    computations plus a linear scan, and keeping those operation counts
    physically real is what lets the wall-clock measurements reproduce the
    paper's relative orderings.
    """

    kind = SamplerKind.NAIVE

    def sample_first(self, rng: np.random.Generator) -> int:
        self._require_neighbors()
        weights = self.graph.neighbor_weights(self.node)
        position = _inverse_cdf(weights, rng)
        return int(self.graph.neighbors(self.node)[position])

    def sample(self, previous: int, rng: np.random.Generator) -> int:
        self._require_neighbors()
        neighbors = self.graph.neighbors(self.node)
        weights = [
            self.model.biased_weight(self.graph, previous, self.node, int(z))
            for z in neighbors
        ]
        total = sum(weights)
        if total <= 0:
            raise SamplerError(
                f"e2e distribution at node {self.node} has zero total mass"
            )
        r = rng.random() * total
        acc = 0.0
        position = len(weights) - 1
        for i, w in enumerate(weights):
            acc += w
            if r <= acc:
                position = i
                break
        return int(neighbors[position])

    def sample_first_batch(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        self._require_neighbors()
        cumulative = np.cumsum(
            self.graph.neighbor_weights(self.node), dtype=np.float64
        )
        picks = _inverse_cdf_batch(cumulative, count, rng)
        return self.graph.neighbors(self.node)[picks].astype(np.int64)

    def sample_batch(
        self, previous: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        # The scalar path keeps the paper's per-neighbour operation count
        # physically real; the batch path is the vectorised engine's and
        # amortises one distribution build over the whole group.
        self._require_neighbors()
        weights = self.model.biased_weights(self.graph, previous, self.node)
        cumulative = np.cumsum(weights, dtype=np.float64)
        if cumulative[-1] <= 0:
            raise SamplerError(
                f"e2e distribution at node {self.node} has zero total mass"
            )
        picks = _inverse_cdf_batch(cumulative, count, rng)
        return self.graph.neighbors(self.node)[picks].astype(np.int64)

    def memory_cost(self, params: CostParams) -> float:
        # Charged as the amortised share of the graph-wide scratch buffer;
        # the framework adds the d_max·b_f term globally.
        return params.float_bytes * self.graph.max_degree / self.graph.num_nodes

    def time_cost(self, params: CostParams) -> float:
        return naive_time(params, self.degree)


class RejectionNodeSampler(NodeSampler):
    """Acceptance–rejection over the n2e proposal (paper Section 3.1).

    Proposal draws come from an alias table over ``N(v)``; a candidate ``z``
    is accepted with ``β_uvz = r_uvz · factor_u`` where ``factor_u`` is
    ``1 / max_t r_uvt``, either exact per incoming edge or a conservative
    graph-wide constant when the model has a closed-form ratio bound
    (node2vec's ``min{1, a, b}``).

    Parameters
    ----------
    factors:
        Optional per-incoming-edge acceptance factors aligned with
        ``graph.neighbors(node)``.  When omitted: models exposing
        ``max_ratio_bound`` use its reciprocal; otherwise exact factors are
        computed by enumeration at construction (the rejection part of the
        paper's ``T_NS``).
    """

    kind = SamplerKind.REJECTION

    def __init__(
        self,
        graph: CSRGraph,
        model: SecondOrderModel,
        node: int,
        *,
        factors: np.ndarray | None = None,
        max_tries: int = MAX_TRIES,
    ) -> None:
        super().__init__(graph, model, node)
        self._require_neighbors()
        if factors is not None:
            factors = np.asarray(factors, dtype=np.float64)
            if len(factors) != self.degree:
                raise SamplerError(
                    f"{len(factors)} factors for degree-{self.degree} node"
                )
        ((prob, alias, own_factors),) = _rejection_states(
            graph, model, np.array([self.node]), factors
        )
        self._set_state(prob, alias, own_factors, max_tries)

    @staticmethod
    def _state_buffers(
        degree: int, factored: bool, traced: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The buffers one node's sampler owns: its n2e proposal table,
        plus per-incoming-edge acceptance factors unless the model's
        closed-form bound serves every edge.  ``traced`` reports their
        real bytes to MSan."""
        prob = np.empty(degree, dtype=np.float64)
        alias = np.empty(degree, dtype=np.int64)
        factors = None
        if factored:
            factors = np.empty(degree, dtype=np.float64)
        if traced:
            nbytes = prob.nbytes + alias.nbytes
            _msan_trace("alias_table", nbytes, d=degree)
            if factors is not None:
                nbytes += factors.nbytes
            _msan_trace(
                "rejection_state",
                nbytes,
                variant="bounded" if factors is None else None,
                d=degree,
            )
        return prob, alias, factors

    def _set_state(
        self,
        prob: np.ndarray,
        alias: np.ndarray,
        factors: np.ndarray | None,
        max_tries: int = MAX_TRIES,
    ) -> None:
        self._proposal = AliasTable._from_arrays(prob, alias)
        self._neighbors = self.graph.neighbors(self.node)
        self._max_tries = int(max_tries)
        self._tries = 0
        self._accepted = 0
        self._factors = factors
        self._global_factor: float | None = None
        if factors is None:
            self._global_factor = 1.0 / self.model.max_ratio_bound(self.graph)

    # ------------------------------------------------------------------
    @property
    def proposal(self) -> AliasTable:
        """The n2e alias table proposals are drawn from."""
        return self._proposal

    @property
    def edge_factors(self) -> np.ndarray | None:
        """Read-only per-incoming-edge acceptance factors aligned with
        ``graph.neighbors(node)``, or ``None`` when the model's closed-form
        bound serves every edge."""
        if self._factors is None:
            return None
        view = self._factors.view()
        view.flags.writeable = False
        return view

    def acceptance_factor(self, previous: int) -> float:
        """``1 / max_t r_uvt`` for walks arriving from ``previous``."""
        if self._global_factor is not None:
            return self._global_factor
        neighbors = self._neighbors
        position = int(np.searchsorted(neighbors, previous))
        if position < len(neighbors) and neighbors[position] == previous:
            return float(self._factors[position])
        # Previous node outside N(v) (possible after a restart on directed
        # traces): fall back to the exact factor computed on the fly.
        return 1.0 / edge_max_ratio(self.graph, self.model, previous, self.node)

    def sample_first(self, rng: np.random.Generator) -> int:
        return int(self._neighbors[self._proposal.sample(rng)])

    def sample(self, previous: int, rng: np.random.Generator) -> int:
        factor = self.acceptance_factor(previous)
        for attempt in range(1, self._max_tries + 1):
            position = self._proposal.sample(rng)
            candidate = int(self._neighbors[position])
            ratio = self.model.target_ratio(self.graph, previous, self.node, candidate)
            acceptance = min(1.0, ratio * factor)
            if rng.random() <= acceptance:
                self._tries += attempt
                self._accepted += 1
                return candidate
        raise SamplerError(
            f"rejection sampler at node {self.node} exceeded "
            f"{self._max_tries} proposal draws"
        )

    def sample_first_batch(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._neighbors[self._proposal.sample_many(count, rng)].astype(
            np.int64
        )

    def sample_batch(
        self, previous: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised acceptance–rejection: proposals and acceptance draws
        are whole-array operations, looping only over the rejected
        remainder (geometrically shrinking, expected ``C_uv`` rounds)."""
        factor = self.acceptance_factor(previous)
        out = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        for _ in range(self._max_tries):
            if pending.size == 0:
                break
            k = len(pending)
            positions = self._proposal.sample_many(k, rng)
            candidates = self._neighbors[positions]
            ratios = self.model.target_ratios_subset(
                self.graph, previous, self.node, candidates
            )
            acceptance = np.minimum(1.0, ratios * factor)
            accepted = rng.random(k) <= acceptance
            out[pending[accepted]] = candidates[accepted]
            self._tries += k
            self._accepted += int(accepted.sum())
            pending = pending[~accepted]
        if pending.size:
            raise SamplerError(
                f"rejection sampler at node {self.node} exceeded "
                f"{self._max_tries} proposal rounds"
            )
        return out

    @property
    def empirical_tries(self) -> float:
        """Average proposal draws per accepted sample so far (→ ``C_v``)."""
        return self._tries / self._accepted if self._accepted else 0.0

    def memory_cost(self, params: CostParams) -> float:
        return rejection_memory(params, self.degree)

    def time_cost(self, params: CostParams) -> float:
        # Without observed samples fall back to C = 1 (the optimizer passes
        # real bounding constants through the cost table instead).
        c_v = self.empirical_tries or 1.0
        return rejection_time(params, self.degree, max(1.0, c_v))


class AliasNodeSampler(NodeSampler):
    """Fully materialised e2e alias tables: ``O(1)`` time, ``O(d_v²)`` memory."""

    kind = SamplerKind.ALIAS

    def __init__(self, graph: CSRGraph, model: SecondOrderModel, node: int) -> None:
        super().__init__(graph, model, node)
        self._require_neighbors()
        ((prob, alias),) = _alias_states(graph, model, np.array([self.node]))
        self._set_state(prob, alias)

    @staticmethod
    def _state_buffers(degree: int, traced: bool) -> tuple[np.ndarray, np.ndarray]:
        """The buffer pair one node's tables live in: ``degree + 1``
        tables of ``degree`` outcomes — the n2e table first, then one e2e
        table per previous node ``u ∈ N(v)``: the d_v² memory term.
        ``traced`` reports their real bytes to MSan, table by table."""
        prob = np.empty((degree + 1) * degree, dtype=np.float64)
        alias = np.empty((degree + 1) * degree, dtype=np.int64)
        if traced:
            nbytes = prob.nbytes + alias.nbytes
            for _ in range(degree + 1):
                _msan_trace("alias_table", nbytes // (degree + 1), d=degree)
            _msan_trace("alias_state", nbytes, d=degree)
        return prob, alias

    def _set_state(self, prob: np.ndarray, alias: np.ndarray) -> None:
        self._neighbors = self.graph.neighbors(self.node)
        degree = len(self._neighbors)
        tables = [
            AliasTable._from_arrays(p, a)
            for p, a in zip(prob.reshape(-1, degree), alias.reshape(-1, degree))
        ]
        self._first_order = tables[0]
        # On undirected graphs (the paper's setting) every walk arrives from
        # some u ∈ N(v); on directed graphs the previous node may be an
        # in-neighbour outside N(v), so extra tables are built on demand and
        # cached in _extra_tables.
        self._tables = tables[1:]
        self._extra_tables: dict[int, AliasTable] = {}

    @property
    def first_order(self) -> AliasTable:
        """The n2e alias table (used for the first hop of a walk)."""
        return self._first_order

    @property
    def tables(self) -> list[AliasTable]:
        """The pre-built e2e tables, aligned with ``graph.neighbors(node)``
        (table ``i`` serves walks arriving from ``neighbors[i]``)."""
        return self._tables

    def sample_first(self, rng: np.random.Generator) -> int:
        return int(self._neighbors[self._first_order.sample(rng)])

    def table_for(self, previous: int) -> AliasTable:
        """The e2e alias table of edge ``(previous, node)``.

        Prebuilt for ``previous ∈ N(v)``; built on demand and memoised for
        out-of-neighbourhood arrivals (directed traces).
        """
        position = int(np.searchsorted(self._neighbors, previous))
        if position < len(self._neighbors) and self._neighbors[position] == previous:
            return self._tables[position]
        table = self._extra_tables.get(previous)
        if table is None:
            table = AliasTable(
                self.model.biased_weights(self.graph, previous, self.node)
            )
            self._extra_tables[previous] = table
        return table

    def sample(self, previous: int, rng: np.random.Generator) -> int:
        return int(self._neighbors[self.table_for(previous).sample(rng)])

    def sample_first_batch(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._neighbors[
            self._first_order.sample_many(count, rng)
        ].astype(np.int64)

    def sample_batch(
        self, previous: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._neighbors[
            self.table_for(previous).sample_many(count, rng)
        ].astype(np.int64)

    def memory_cost(self, params: CostParams) -> float:
        return alias_memory(params, self.degree)

    def time_cost(self, params: CostParams) -> float:
        return alias_time(params)


def build_node_sampler(
    kind: SamplerKind,
    graph: CSRGraph,
    model: SecondOrderModel,
    node: int,
    *,
    factors: np.ndarray | None = None,
) -> NodeSampler:
    """Factory dispatching on :class:`SamplerKind`."""
    if kind is SamplerKind.NAIVE:
        return NaiveNodeSampler(graph, model, node)
    if kind is SamplerKind.REJECTION:
        return RejectionNodeSampler(graph, model, node, factors=factors)
    if kind is SamplerKind.ALIAS:
        return AliasNodeSampler(graph, model, node)
    raise SamplerError(f"unknown sampler kind {kind!r}")


def build_node_samplers(
    kind: SamplerKind,
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
) -> list[NodeSampler]:
    """Samplers of one kind for ``nodes``, in order.

    The same samplers :func:`build_node_sampler` returns one node at a
    time, with bit-identical tables and factors, but built in block
    passes over the nodes' edge states: one ratio or weight batch and one
    lockstep Vose build per block instead of one per table.  Each node's
    sampler owns its buffers, so dropping it frees them.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if kind is SamplerKind.NAIVE:
        return [NaiveNodeSampler(graph, model, v) for v in nodes.tolist()]
    if kind is SamplerKind.REJECTION:
        cls, states = RejectionNodeSampler, _rejection_states
    elif kind is SamplerKind.ALIAS:
        cls, states = AliasNodeSampler, _alias_states
    else:
        raise SamplerError(f"unknown sampler kind {kind!r}")
    # The constructors' checks, up front, before any table is built.
    for v in nodes.tolist():
        if not 0 <= v < graph.num_nodes:
            raise WalkError(f"node {v} out of range")
        if graph.degree(v) == 0:
            raise WalkError(f"node {v} has no neighbours to sample")
    samplers = []
    for v, state in zip(nodes.tolist(), states(graph, model, nodes)):
        # The constructor's work minus its table build: the tables come
        # from the block pass.
        sampler = cls.__new__(cls)
        NodeSampler.__init__(sampler, graph, model, v)
        sampler._set_state(*state)
        samplers.append(sampler)
    return samplers


def _rejection_states(
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
    factors: np.ndarray | None = None,
):
    """Per node of ``nodes``, in order: its owned ``(prob, alias,
    factors)`` buffers.

    ``factors`` supplies the acceptance factors of every state of
    ``nodes``, in order.  Without them a model with a closed-form bound
    gets none (``factors`` is ``None``), and any other model gets the
    exact ``1 / max_t r_uvt`` of each incoming edge from one block ratio
    pass — the rejection part of the paper's ``T_NS``.
    """
    exact = factors is None and model.max_ratio_bound(graph) is None
    factored = exact or factors is not None
    widths = np.where(exact, graph.degrees[nodes], 1)
    taken = 0
    for block in state_blocks(graph, nodes, widths):
        n2e, n2e_sizes = row_positions(graph, block.nodes[block.first == 0])
        tables = build_alias_tables(graph.weights[n2e], n2e_sizes)
        if exact:
            ratios, sizes = model.target_ratios_many(graph, block.us, block.vs)
            block_factors = 1.0 / np.maximum.reduceat(
                ratios, np.cumsum(sizes) - sizes
            )
        elif factors is not None:
            block_factors = factors[taken : taken + len(block.us)]
            taken += len(block.us)
        traced = _msan_active()
        at = n2e_at = 0
        for v, degree, first, count, last in block.segments():
            if first == 0:
                state = RejectionNodeSampler._state_buffers(
                    degree, factored, traced
                )
                prob, alias, own = state
                prob[:] = tables[0][n2e_at : n2e_at + degree]
                alias[:] = tables[1][n2e_at : n2e_at + degree]
                n2e_at += degree
            if factored:
                own[first : first + count] = block_factors[at : at + count]
            at += count
            if last:
                yield state


def _alias_states(graph: CSRGraph, model: SecondOrderModel, nodes: np.ndarray):
    """Per node of ``nodes``, in order: its owned ``(prob, alias)`` table
    buffers (layout in :meth:`AliasNodeSampler._state_buffers`)."""
    for block in state_blocks(graph, nodes, graph.degrees[nodes]):
        n2e, n2e_sizes = row_positions(graph, block.nodes[block.first == 0])
        e2e, e2e_sizes = model.biased_weights_many(graph, block.us, block.vs)
        if not np.array_equal(e2e_sizes, np.repeat(block.degrees, block.counts)):
            raise SamplerError("biased_weights_many returned misaligned rows")
        flat_prob, flat_alias = build_alias_tables(
            np.concatenate((graph.weights[n2e], e2e)),
            np.concatenate((n2e_sizes, e2e_sizes)),
        )
        traced = _msan_active()
        n2e_at, e2e_at = 0, len(n2e)
        for v, degree, first, count, last in block.segments():
            if first == 0:
                prob, alias = AliasNodeSampler._state_buffers(degree, traced)
                prob[:degree] = flat_prob[n2e_at : n2e_at + degree]
                alias[:degree] = flat_alias[n2e_at : n2e_at + degree]
                n2e_at += degree
            lo, size = (first + 1) * degree, count * degree
            prob[lo : lo + size] = flat_prob[e2e_at : e2e_at + size]
            alias[lo : lo + size] = flat_alias[e2e_at : e2e_at + size]
            e2e_at += size
            if last:
                yield prob, alias


def _inverse_cdf_batch(
    cumulative: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` vectorised inverse-CDF draws over a cumulative table."""
    r = rng.random(count) * cumulative[-1]
    return np.searchsorted(cumulative, r, side="right").clip(
        max=len(cumulative) - 1
    )


def _inverse_cdf(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Linear inverse-CDF scan over unnormalised weights (naive method)."""
    total = float(weights.sum())
    if total <= 0:
        raise SamplerError("distribution has zero total mass")
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if r <= acc:
            return i
    return len(weights) - 1
