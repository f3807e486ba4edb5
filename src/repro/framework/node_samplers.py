"""The three built-in node samplers (paper Sections 3-4).

==============  =============================  ==========================
Sampler         How it draws the e2e sample    Held state
==============  =============================  ==========================
Naive           builds the biased distribution  none (a shared scratch
                on demand, inverse-CDF scan     array in spirit)
Rejection       proposes from the n2e alias     ``d_v`` slots of the
                table, accepts with ``β_uvz``   rejection arena: n2e alias
                                                table + one acceptance
                                                factor per incoming edge
Alias           looks up the pre-built alias    ``(d_v + 1) · d_v`` slots
                table of edge ``(prev, v)``     of the alias arena: n2e
                                                table + one e2e table per
                                                incoming edge
==============  =============================  ==========================

Table arenas
------------
The rejection and alias samplers own no buffers.  A build writes the
tables of every node of one kind into one :class:`TableArena`: a
probability and an alias buffer, plus a buffer of acceptance factors for
rejection samplers of a model without a closed-form bound.  Every buffer
is stored at the byte widths the cost model charges
(:data:`~repro.sampling.alias.TABLE_FLOAT` and
:data:`~repro.sampling.alias.TABLE_INT`, ``b_f`` and ``b_i`` of Table
1), so an arena holds the bytes the optimizer priced: exactly, except
rejection state under a closed-form bound, which stores no factors.
Node ``v`` holds the slots from its offset ``o_v``:

* alias: the n2e table at ``o_v``, and the e2e table of arrivals from
  ``neighbors(v)[i]`` at ``o_v + (i + 1) · d_v``;
* rejection: the n2e proposal table, and the acceptance factor of
  arrivals from ``neighbors(v)[i]``, at ``o_v + i``.

Acceptance factors are rounded toward zero when they are stored, so
``r_uvz · factor`` never exceeds 1 and stays a valid rejection envelope.

A sampler keeps its arena and offset.  The :class:`AliasTable` objects
``first_order``, ``tables``, ``proposal`` and ``table_for`` return are
views made when asked (bit-identical to standalone tables over the same
weights), and the scalar draws read the slots directly.
A framework keeps no sampler per node: its :class:`SamplerSet` holds the
arenas, their offsets and a per-node kind column, and makes a sampler as
a view over a node's rows when one is asked for.  The batch engine walks
the arenas themselves (:class:`~repro.walks.BatchWalkEngine`), so the
tables exist once.
"""

from __future__ import annotations

import copy
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..bounding.blocks import degree_order, state_blocks
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
from ..graph.csr import segment_positions
from ..models import SecondOrderModel
from ..models.base import row_positions
from ..sampling import AliasTable
from ..sampling.alias import TABLE_FLOAT, TABLE_INT, build_alias_tables
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


@dataclass(eq=False)
class TableArena:
    """The tables of many samplers of one kind, in flat buffers.

    Each sampler owns the slots from its offset on (layout in the module
    docstring).  ``prob`` and ``factors`` are :data:`TABLE_FLOAT` and
    ``alias`` is :data:`TABLE_INT`, the widths the cost model charges, so
    :attr:`nbytes` is at most the meter's charge for the tables held.
    ``factors`` holds rejection acceptance factors, or is ``None`` when
    the model's closed-form bound serves every edge (and always for the
    alias kind).
    """

    kind: SamplerKind
    prob: np.ndarray
    alias: np.ndarray
    factors: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        """Real resident bytes of the buffers."""
        total = self.prob.nbytes + self.alias.nbytes
        if self.factors is not None:
            total += self.factors.nbytes
        return int(total)


def _alias_draw(
    arena: TableArena, start: int, size: int, rng: np.random.Generator
) -> int:
    """One draw from the alias table in slots ``start .. start + size - 1``
    of ``arena``, in :meth:`AliasTable.sample`'s draw order."""
    x = int(rng.integers(size))
    if rng.random() <= float(arena.prob[start + x]):
        return x
    return int(arena.alias[start + x])


def _table_view(arena: TableArena, start: int, size: int) -> AliasTable:
    """The alias table in slots ``start .. start + size - 1`` of
    ``arena``, as a view."""
    end = start + size
    return AliasTable._from_arrays(arena.prob[start:end], arena.alias[start:end])


class _ArenaSampler(NodeSampler):
    """A built-in sampler whose tables live in a :class:`TableArena`."""

    _arena: TableArena
    _offset: int

    @classmethod
    def _in_arena(
        cls, graph: CSRGraph, model: SecondOrderModel, node: int,
        arena: TableArena, offset: int,
    ) -> "_ArenaSampler":
        """The sampler of ``node`` over tables already in ``arena``."""
        sampler = cls.__new__(cls)
        NodeSampler.__init__(sampler, graph, model, node)
        sampler._bind(arena, offset)
        return sampler

    def _bind(self, arena: TableArena, offset: int) -> None:
        self._arena = arena
        self._offset = int(offset)
        self._neighbors = self.graph.neighbors(self.node)

    def _moved(self, arena: TableArena, offset: int) -> "_ArenaSampler":
        """A copy of this sampler (counters and all) over ``arena``, which
        holds a copy of its tables from slot ``offset`` on."""
        sampler = copy.copy(self)
        sampler._arena = arena
        sampler._offset = int(offset)
        return sampler

    @property
    def arena(self) -> TableArena:
        """The arena this sampler's tables live in."""
        return self._arena


class RejectionNodeSampler(_ArenaSampler):
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
        arena, offsets = build_arena(
            self.kind, graph, model, np.array([self.node]), factors=factors
        )
        self._bind(arena, offsets[0])
        self._max_tries = int(max_tries)

    @staticmethod
    def _state_buffers(
        degrees: np.ndarray, factored: bool, traced: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The buffers of a rejection arena over nodes of ``degrees``: per
        node, its n2e proposal table, plus per-incoming-edge acceptance
        factors unless the model's closed-form bound serves every edge.
        ``traced`` reports each node's real bytes to MSan."""
        prob = np.empty(int(np.sum(degrees)), dtype=TABLE_FLOAT)
        alias = np.empty(int(np.sum(degrees)), dtype=TABLE_INT)
        factors = None
        if factored:
            factors = np.empty(int(np.sum(degrees)), dtype=TABLE_FLOAT)
        if traced:
            end = 0
            for degree in degrees.tolist():
                start, end = end, end + degree
                nbytes = prob[start:end].nbytes + alias[start:end].nbytes
                _msan_trace("alias_table", nbytes, d=degree)
                if factors is not None:
                    nbytes += factors[start:end].nbytes
                _msan_trace(
                    "rejection_state",
                    nbytes,
                    variant="bounded" if factors is None else None,
                    d=degree,
                )
        return prob, alias, factors

    def _bind(self, arena: TableArena, offset: int) -> None:
        super()._bind(arena, offset)
        self._max_tries = MAX_TRIES
        self._tries = 0
        self._accepted = 0
        self._global_factor: float | None = None
        if arena.factors is None:
            self._global_factor = 1.0 / self.model.max_ratio_bound(self.graph)

    # ------------------------------------------------------------------
    @property
    def proposal(self) -> AliasTable:
        """The n2e alias table proposals are drawn from (a view)."""
        return _table_view(self._arena, self._offset, len(self._neighbors))

    @property
    def edge_factors(self) -> np.ndarray | None:
        """Read-only per-incoming-edge acceptance factors aligned with
        ``graph.neighbors(node)`` (as stored: :data:`TABLE_FLOAT`, rounded
        toward zero), or ``None`` when the model's closed-form bound
        serves every edge."""
        if self._arena.factors is None:
            return None
        end = self._offset + len(self._neighbors)
        view = self._arena.factors[self._offset : end]
        view.flags.writeable = False
        return view

    def acceptance_factor(self, previous: int) -> float:
        """``1 / max_t r_uvt`` for walks arriving from ``previous``."""
        if self._global_factor is not None:
            return self._global_factor
        neighbors = self._neighbors
        position = int(np.searchsorted(neighbors, previous))
        if position < len(neighbors) and neighbors[position] == previous:
            return float(self._arena.factors[self._offset + position])
        # Previous node outside N(v) (possible after a restart on directed
        # traces): fall back to the exact factor computed on the fly.
        return 1.0 / edge_max_ratio(self.graph, self.model, previous, self.node)

    def _propose(self, rng: np.random.Generator) -> int:
        return _alias_draw(self._arena, self._offset, len(self._neighbors), rng)

    def sample_first(self, rng: np.random.Generator) -> int:
        return int(self._neighbors[self._propose(rng)])

    def sample(self, previous: int, rng: np.random.Generator) -> int:
        factor = self.acceptance_factor(previous)
        for attempt in range(1, self._max_tries + 1):
            candidate = int(self._neighbors[self._propose(rng)])
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
        return self._neighbors[self.proposal.sample_many(count, rng)].astype(
            np.int64
        )

    def sample_batch(
        self, previous: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorised acceptance–rejection: proposals and acceptance draws
        are whole-array operations, looping only over the rejected
        remainder (geometrically shrinking, expected ``C_uv`` rounds)."""
        factor = self.acceptance_factor(previous)
        proposal = self.proposal
        out = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        for _ in range(self._max_tries):
            if pending.size == 0:
                break
            k = len(pending)
            positions = proposal.sample_many(k, rng)
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


class AliasNodeSampler(_ArenaSampler):
    """Fully materialised e2e alias tables: ``O(1)`` time, ``O(d_v²)`` memory."""

    kind = SamplerKind.ALIAS

    def __init__(self, graph: CSRGraph, model: SecondOrderModel, node: int) -> None:
        super().__init__(graph, model, node)
        self._require_neighbors()
        arena, offsets = build_arena(
            self.kind, graph, model, np.array([self.node])
        )
        self._bind(arena, offsets[0])

    @staticmethod
    def _state_buffers(
        degrees: np.ndarray, traced: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """The buffer pair of an alias arena over nodes of ``degrees``: per
        node, ``degree + 1`` tables of ``degree`` outcomes — the n2e table
        first, then one e2e table per previous node ``u ∈ N(v)``: the d_v²
        memory term.  ``traced`` reports each node's real bytes to MSan,
        table by table."""
        prob = np.empty(int(np.sum((degrees + 1) * degrees)), dtype=TABLE_FLOAT)
        alias = np.empty(int(np.sum((degrees + 1) * degrees)), dtype=TABLE_INT)
        if traced:
            end = 0
            for degree in degrees.tolist():
                start, end = end, end + (degree + 1) * degree
                nbytes = prob[start:end].nbytes + alias[start:end].nbytes
                for _ in range(degree + 1):
                    _msan_trace("alias_table", nbytes // (degree + 1), d=degree)
                _msan_trace("alias_state", nbytes, d=degree)
        return prob, alias

    def _bind(self, arena: TableArena, offset: int) -> None:
        super()._bind(arena, offset)
        # On undirected graphs (the paper's setting) every walk arrives from
        # some u ∈ N(v); on directed graphs the previous node may be an
        # in-neighbour outside N(v), so extra tables are built on demand and
        # cached in _extra_tables.
        self._extra_tables: dict[int, AliasTable] = {}

    def _row(self, i: int) -> int:
        """First slot of table ``i``: the n2e table is 0, the e2e table of
        arrivals from ``neighbors[j]`` is ``j + 1``."""
        return self._offset + i * len(self._neighbors)

    @property
    def first_order(self) -> AliasTable:
        """The n2e alias table (used for the first hop of a walk), a view."""
        return _table_view(self._arena, self._row(0), len(self._neighbors))

    @property
    def tables(self) -> list[AliasTable]:
        """The pre-built e2e tables, aligned with ``graph.neighbors(node)``
        (table ``i`` serves walks arriving from ``neighbors[i]``), as
        views."""
        degree = len(self._neighbors)
        return [
            _table_view(self._arena, self._row(i + 1), degree)
            for i in range(degree)
        ]

    def _position(self, previous: int) -> int:
        """Index of ``previous`` in ``N(v)``, or -1 outside it."""
        neighbors = self._neighbors
        position = int(np.searchsorted(neighbors, previous))
        if position < len(neighbors) and neighbors[position] == previous:
            return position
        return -1

    def sample_first(self, rng: np.random.Generator) -> int:
        degree = len(self._neighbors)
        return int(self._neighbors[_alias_draw(self._arena, self._row(0), degree, rng)])

    def table_for(self, previous: int) -> AliasTable:
        """The e2e alias table of edge ``(previous, node)``.

        A view of the pre-built table for ``previous ∈ N(v)``; built on
        demand and memoised for out-of-neighbourhood arrivals (directed
        traces).
        """
        position = self._position(previous)
        if position >= 0:
            return _table_view(
                self._arena, self._row(position + 1), len(self._neighbors)
            )
        table = self._extra_tables.get(previous)
        if table is None:
            table = AliasTable(
                self.model.biased_weights(self.graph, previous, self.node)
            )
            self._extra_tables[previous] = table
        return table

    def sample(self, previous: int, rng: np.random.Generator) -> int:
        position = self._position(previous)
        if position < 0:
            return int(self._neighbors[self.table_for(previous).sample(rng)])
        degree = len(self._neighbors)
        pick = _alias_draw(self._arena, self._row(position + 1), degree, rng)
        return int(self._neighbors[pick])

    def sample_first_batch(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._neighbors[
            self.first_order.sample_many(count, rng)
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


_ARENA_CLASSES: dict[SamplerKind, type[_ArenaSampler]] = {
    SamplerKind.REJECTION: RejectionNodeSampler,
    SamplerKind.ALIAS: AliasNodeSampler,
}

#: Tables an arena already holds, for a new arena to take over: the
#: source arena, the nodes whose tables it holds, and each one's first
#: slot in it.
Carry = tuple[TableArena, np.ndarray, np.ndarray]


class SamplerSet(Sequence["NodeSampler | None"]):
    """The samplers of a framework, as rows of one table arena per kind.

    ``columns[v]`` is node ``v``'s cost-table column (its assignment).  A
    node of a built-in table kind owns the slots of ``arenas[kind]`` from
    ``bases[kind][v]`` on (``-1`` for nodes of other kinds); a node of a
    user column (``extra_samplers``) has its sampler object in ``extra``;
    a naive node holds nothing.  Nothing else is kept per node.

    ``samplers[v]`` is a :class:`NodeSampler` view over those rows, built
    on first access and memoised, so per-sampler state such as
    ``empirical_tries`` lives as long as the set, and the scalar engine
    draws exactly as over a sampler built alone.  Isolated nodes have no
    sampler (``None``).

    A set is never changed in place: :meth:`updated` returns a new set,
    so an engine made over a set keeps walking its arenas.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: SecondOrderModel,
        columns: np.ndarray,
        arenas: dict[SamplerKind, TableArena],
        bases: dict[SamplerKind, np.ndarray],
        extra: dict[int, NodeSampler],
        views: "dict[int, NodeSampler] | None" = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.columns = columns
        self.arenas = arenas
        self.bases = bases
        self.extra = extra
        self._views: dict[int, NodeSampler] = views or {}

    @classmethod
    def build(
        cls,
        graph: CSRGraph,
        model: SecondOrderModel,
        columns: np.ndarray,
        specs: Sequence = (),
    ) -> "SamplerSet":
        """The samplers of assignment ``columns``; column ``3 + i`` is
        built by ``specs[i]`` (a
        :class:`~repro.framework.extra_samplers.SamplerSpec`)."""
        empty = np.full(graph.num_nodes, -1, dtype=np.int64)
        return cls(graph, model, empty, {}, {}, {}).updated(columns, specs)

    def __len__(self) -> int:
        return int(self.graph.num_nodes)

    def __iter__(self) -> Iterator["NodeSampler | None"]:
        return (self[v] for v in range(len(self)))

    def __getitem__(self, node):  # type: ignore[override]
        node = operator.index(node)
        if not 0 <= node < len(self):
            raise WalkError(f"node {node} out of range")
        view = self._views.get(node)
        if view is None and self.graph.degree(node) > 0:
            view = self._views[node] = self._view(node)
        return view

    def _view(self, node: int) -> NodeSampler:
        column = int(self.columns[node])
        if column == SamplerKind.NAIVE:
            return NaiveNodeSampler(self.graph, self.model, node)
        if column in _ARENA_CLASSES:
            kind = SamplerKind(column)
            return _ARENA_CLASSES[kind]._in_arena(
                self.graph, self.model, node,
                self.arenas[kind], int(self.bases[kind][node]),
            )
        return self.extra[node]

    @property
    def views_built(self) -> int:
        """How many per-node sampler views have been made so far."""
        return len(self._views)

    def updated(self, columns: np.ndarray, specs: Sequence = ()) -> "SamplerSet":
        """The set of assignment ``columns``: nodes whose column changed
        get new samplers, the others keep theirs.

        Each arena kind that gains or loses a node is compacted into a new
        arena: the survivors' slot ranges are copied in, in node order (a
        run of ranges that lie end to end in the old arena is one copy),
        and the changed nodes' tables are built after them in block
        passes (:func:`build_arena`).  Arenas of other kinds, and the user
        samplers of unchanged nodes, are shared with this set.  Memoised
        views of unchanged nodes carry over, moved onto the new arena
        where theirs was compacted.
        """
        columns = np.array(columns, dtype=np.int64)
        graph, n = self.graph, self.graph.num_nodes
        changed = np.flatnonzero(self.columns != columns)
        active = graph.degrees > 0
        fresh = changed[active[changed]]
        touched = set(self.columns[changed].tolist()) | set(columns[changed].tolist())
        arenas, bases = dict(self.arenas), dict(self.bases)
        for kind in _ARENA_CLASSES:
            if int(kind) not in touched:
                continue
            held = np.flatnonzero(active & (self.columns == kind) & (columns == kind))
            built = fresh[columns[fresh] == kind]
            arenas.pop(kind, None)
            bases.pop(kind, None)
            if held.size + built.size == 0:
                continue
            carry = [(self.arenas[kind], held, self.bases[kind][held])] if held.size else []
            arena, offsets = build_arena(kind, graph, self.model, built, carry=carry)
            base = np.full(n, -1, dtype=np.int64)
            base[np.concatenate((held, built))] = offsets
            arenas[kind], bases[kind] = arena, base
        extra = {
            v: sampler
            for v, sampler in self.extra.items()
            if columns[v] == self.columns[v]
        }
        for v in fresh[columns[fresh] >= len(SamplerKind)].tolist():
            spec = specs[int(columns[v]) - len(SamplerKind)]
            extra[v] = spec.build(graph, self.model, v)
        views: dict[int, NodeSampler] = {}
        for v, view in self._views.items():
            column = int(columns[v])
            if column != self.columns[v]:
                continue
            if column in _ARENA_CLASSES:
                kind = SamplerKind(column)
                if arenas[kind] is not self.arenas[kind]:
                    view = view._moved(arenas[kind], int(bases[kind][v]))
            views[v] = view
        return SamplerSet(graph, self.model, columns, arenas, bases, extra, views)


def build_node_samplers(
    kind: SamplerKind,
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
) -> list[NodeSampler]:
    """Samplers of one kind for ``nodes``, in order.

    The same samplers :func:`build_node_sampler` returns one node at a
    time, with bit-identical tables and factors, but built in block
    passes over the nodes' edge states (:func:`build_arena`) into one
    shared :class:`TableArena`.  A framework keeps a :class:`SamplerSet`
    instead; this list is for hand-assembled sampler arrays.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if kind is SamplerKind.NAIVE:
        return [NaiveNodeSampler(graph, model, v) for v in nodes.tolist()]
    cls = _ARENA_CLASSES.get(kind)
    if cls is None:
        raise SamplerError(f"unknown sampler kind {kind!r}")
    # The constructors' checks, up front, before any table is built.
    for v in nodes.tolist():
        if not 0 <= v < graph.num_nodes:
            raise WalkError(f"node {v} out of range")
        if graph.degree(v) == 0:
            raise WalkError(f"node {v} has no neighbours to sample")
    arena, offsets = build_arena(kind, graph, model, nodes)
    return [
        cls._in_arena(graph, model, v, arena, offset)
        for v, offset in zip(nodes.tolist(), offsets.tolist())
    ]


def build_arena(
    kind: SamplerKind,
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
    *,
    factors: np.ndarray | None = None,
    carry: Sequence[Carry] = (),
) -> tuple[TableArena, np.ndarray]:
    """One arena of ``kind`` holding the tables ``carry`` names and those
    of ``nodes``, plus the first slot of each of those nodes, carried ones
    first, in order.

    ``carry`` tables are copied in slot range by slot range (a
    compaction: survivors of a budget update, or a hand-assembled sampler
    list made walkable); the tables of ``nodes`` are built in block
    passes that write straight into the arena.

    ``factors`` supplies the rejection acceptance factors of every edge
    state of ``nodes``, in order.  Without them a model with a
    closed-form bound gets none, and any other model gets the exact
    ``1 / max_t r_uvt`` of each incoming edge from one block ratio pass —
    the rejection part of the paper's ``T_NS``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    held = [np.asarray(kept, dtype=np.int64) for _, kept, _ in carry]
    degrees = graph.degrees[np.concatenate((*held, nodes))].astype(np.int64)
    traced = _msan_active()
    if kind is SamplerKind.ALIAS:
        slots = (degrees + 1) * degrees
        arena = TableArena(kind, *AliasNodeSampler._state_buffers(degrees, traced))
    elif kind is SamplerKind.REJECTION:
        slots = degrees
        exact = factors is None and model.max_ratio_bound(graph) is None
        arena = TableArena(
            kind,
            *RejectionNodeSampler._state_buffers(
                degrees, exact or factors is not None, traced
            ),
        )
    else:
        raise SamplerError(f"sampler kind {kind!r} keeps no tables")
    offsets = np.cumsum(slots) - slots
    taken = 0
    for (source, _, at), kept in zip(carry, held):
        end = taken + len(kept)
        _copy_rows(
            arena, offsets[taken:end], source, np.asarray(at, dtype=np.int64),
            slots[taken:end],
        )
        taken = end
    fresh = offsets[taken:]
    if kind is SamplerKind.ALIAS:
        _fill_alias(arena, fresh, graph, model, nodes)
    else:
        _fill_rejection(arena, fresh, graph, model, nodes, factors)
    return arena, offsets


def _copy_rows(
    arena: TableArena,
    starts: np.ndarray,
    source: TableArena,
    at: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Copy slots ``at[i] .. at[i] + sizes[i] - 1`` of ``source`` to the
    end-to-end ranges from ``starts[0]`` on in ``arena``: one slice copy
    per run of ranges that lie end to end in ``source`` too, so nothing
    per slot is allocated."""
    if not len(sizes):
        return
    ends = at + sizes
    breaks = np.flatnonzero(at[1:] != ends[:-1]) + 1
    firsts = np.concatenate(([0], breaks)).tolist()
    lasts = (np.concatenate((breaks, [len(sizes)])) - 1).tolist()
    pairs = [(arena.prob, source.prob), (arena.alias, source.alias)]
    if arena.factors is not None:
        pairs.append((arena.factors, source.factors))
    for first, last in zip(firsts, lasts):
        lo, hi, to = int(at[first]), int(ends[last]), int(starts[first])
        for target, origin in pairs:
            target[to : to + hi - lo] = origin[lo:hi]


def _node_offsets(block, offsets: np.ndarray, started: int) -> np.ndarray:
    """First slot of each of ``block``'s segments' nodes: ``started`` nodes
    began before the block, and a segment with ``first == 0`` begins the
    next one (an earlier block may have begun the block's first node)."""
    return offsets[started + np.cumsum(block.first == 0) - 1]


def _fill_rejection(
    arena: TableArena,
    offsets: np.ndarray,
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
    factors: np.ndarray | None,
) -> None:
    """Write the proposal tables and acceptance factors of ``nodes`` into
    ``arena`` at ``offsets`` (see :func:`build_arena` for the factors).
    The pass visits the nodes in degree order (:func:`degree_order`)."""
    order = degree_order(graph, nodes)
    if factors is not None:
        # Each node's factors go with it to its place in the pass.
        degrees = graph.degrees[nodes].astype(np.int64)
        starts = np.cumsum(degrees) - degrees
        factors = factors[segment_positions(starts[order], degrees[order])]
    nodes, offsets = nodes[order], offsets[order]
    exact = arena.factors is not None and factors is None
    widths = np.where(exact, graph.degrees[nodes], 1)
    started = taken = 0
    for block in state_blocks(graph, nodes, widths):
        begins = block.first == 0
        at = _node_offsets(block, offsets, started)
        started += int(np.count_nonzero(begins))
        n2e, n2e_sizes = row_positions(graph, block.nodes[begins])
        prob, alias = build_alias_tables(graph.weights[n2e], n2e_sizes)
        slots = segment_positions(at[begins], n2e_sizes)
        arena.prob[slots] = prob
        arena.alias[slots] = alias
        if arena.factors is None:
            continue
        if exact:
            ratios, sizes = model.target_ratios_many(graph, block.us, block.vs)
            block_factors = 1.0 / np.maximum.reduceat(
                ratios, np.cumsum(sizes) - sizes
            )
        else:
            block_factors = factors[taken : taken + len(block.us)]
            taken += len(block.us)
        arena.factors[segment_positions(at + block.first, block.counts)] = (
            _stored_factors(block_factors)
        )


def _stored_factors(factors: np.ndarray) -> np.ndarray:
    """``factors`` at :data:`TABLE_FLOAT`, each rounded toward zero: a
    factor rounded up could make ``r_uvz · factor`` exceed 1 at the
    largest ratio, so the accepted law would no longer be the target."""
    stored = factors.astype(TABLE_FLOAT)
    up = stored > factors
    stored[up] = np.nextafter(stored[up], TABLE_FLOAT.type(0))
    return stored


def _fill_alias(
    arena: TableArena,
    offsets: np.ndarray,
    graph: CSRGraph,
    model: SecondOrderModel,
    nodes: np.ndarray,
) -> None:
    """Write the n2e and e2e tables of ``nodes`` into ``arena`` at
    ``offsets``: one lockstep Vose build per block, in table order.  The
    pass visits the nodes in degree order (:func:`degree_order`), so a
    block's tables are of few sizes and its Vose loop runs about as many
    iterations as its tables need, not as its largest one needs."""
    order = degree_order(graph, nodes)
    nodes, offsets = nodes[order], offsets[order]
    started = 0
    for block in state_blocks(graph, nodes, graph.degrees[nodes]):
        begins = block.first == 0
        at = _node_offsets(block, offsets, started)
        started += int(np.count_nonzero(begins))
        n2e, n2e_sizes = row_positions(graph, block.nodes[begins])
        e2e, e2e_sizes = model.biased_weights_many(graph, block.us, block.vs)
        if not np.array_equal(e2e_sizes, np.repeat(block.degrees, block.counts)):
            raise SamplerError("biased_weights_many returned misaligned rows")
        prob, alias = build_alias_tables(
            np.concatenate((graph.weights[n2e], e2e)),
            np.concatenate((n2e_sizes, e2e_sizes)),
        )
        # The n2e table of each node the block begins, then every state's
        # e2e table, at row first + 1 onwards of its node.
        slots = segment_positions(
            np.concatenate((at[begins], at + (block.first + 1) * block.degrees)),
            np.concatenate((n2e_sizes, block.counts * block.degrees)),
        )
        arena.prob[slots] = prob
        arena.alias[slots] = alias


def joint_arena(
    samplers: Sequence["_ArenaSampler"],
) -> tuple[TableArena, np.ndarray]:
    """One arena holding the tables of ``samplers`` (rejection or alias
    samplers of one kind), plus each one's first slot in it.

    Samplers built together share their arena, which comes back as it
    is.  Samplers from several arenas (a hand-assembled list, e.g. of
    one-node samplers) are copied into a new one, in order.
    """
    arena = samplers[0]._arena
    offsets = np.fromiter(
        (s._offset for s in samplers), dtype=np.int64, count=len(samplers)
    )
    if all(s._arena is arena for s in samplers):
        return arena, offsets
    nodes = np.fromiter(
        (s.node for s in samplers), dtype=np.int64, count=len(samplers)
    )
    # One carry per run of samplers over the same arena.
    cuts = [
        i for i in range(1, len(samplers))
        if samplers[i]._arena is not samplers[i - 1]._arena
    ]
    carry = [
        (samplers[a]._arena, nodes[a:b], offsets[a:b])
        for a, b in zip([0, *cuts], [*cuts, len(samplers)])
    ]
    first = samplers[0]
    return build_arena(
        arena.kind, first.graph, first.model, np.empty(0, dtype=np.int64),
        carry=carry,
    )


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
