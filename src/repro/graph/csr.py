"""Compressed-sparse-row graph storage.

The paper's framework organises the graph in CSR format (Section 5.4).  The
adjacency list of every node is kept **sorted by neighbour id**, which gives
``O(log d)`` edge-existence checks via binary search — exactly the
common-neighbour check the cost model prices at ``c = log(d_v)``.

Batched lookups (:meth:`CSRGraph.edge_ids`) put a hashed bit filter in
front of one exact search, so the pairs that are not edges — almost all of
node2vec's common-neighbour checks — cost a constant number of array
operations each, whatever ``|E|``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import EmptyGraphError, GraphFormatError


def segment_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat positions of the segments ``[starts[i], starts[i] + sizes[i])``,
    concatenated in segment order — the gather index of a batch of CSR
    rows or row slices."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - sizes), sizes)


#: Fibonacci hashing multiplier: ``2**64`` over the golden ratio, odd.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)

#: Edge-filter bits per stored edge, before rounding the table up to a
#: power of two; one hash per key gives ``1 - exp(-1/32)`` ≈ 3% false
#: positives at this density.
_FILTER_BITS_PER_EDGE = 32


def _filter_slots(keys: np.ndarray, shift: int) -> np.ndarray:
    """Fibonacci hash of the (non-negative ``int64``) composite keys: the
    top ``64 - shift`` bits of ``key · _FIBONACCI`` in wrapping ``uint64``
    arithmetic, as ``int64`` (``shift >= 1``, so no sign bit is set)."""
    product = keys.view(np.uint64) * _FIBONACCI
    return (product >> np.uint64(shift)).view(np.int64)


class CSRGraph:
    """An immutable weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; row ``v`` spans
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        Neighbour ids, sorted ascending within each row.
    weights:
        Edge weights aligned with ``indices``; ``None`` means unweighted
        (all weights one).

    The structure stores a *directed* adjacency; an undirected graph is
    represented by storing each edge in both directions (the builder does
    this).  Degree-one semantics therefore match the paper: ``d_v`` is the
    out-degree of ``v`` in the stored adjacency.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "_weight_sums",
        "_is_unit_weight",
        "_edge_keys",
        "_edge_filter",
        "_filter_shift",
        "_reverse",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if weights is None:
            self.weights = np.ones(len(self.indices), dtype=np.float64)
            self._is_unit_weight = True
        else:
            self.weights = np.asarray(weights, dtype=np.float64)
            self._is_unit_weight = bool(np.all(self.weights == 1.0))
        if validate:
            self._validate()
        # W_v = sum of outgoing edge weights, used by every n2e distribution.
        # Prefix-sum differences handle empty rows and trailing rows safely.
        prefix = np.concatenate(([0.0], np.cumsum(self.weights, dtype=np.float64)))
        self._weight_sums = prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]
        self._edge_keys: np.ndarray | None = None
        self._edge_filter: np.ndarray | None = None
        self._filter_shift = 64
        self._reverse: np.ndarray | None = None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise GraphFormatError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise GraphFormatError(
                f"indptr[-1] ({self.indptr[-1]}) != len(indices) ({len(self.indices)})"
            )
        if len(self.weights) != len(self.indices):
            raise GraphFormatError("weights and indices must have equal length")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise GraphFormatError("neighbour id out of range")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise GraphFormatError("edge weights must be finite and non-negative")
        # sortedness within rows: a descent is allowed only where a row starts
        descents = np.diff(self.indices) < 0
        row_starts = self.indptr[1:-1]
        inner = row_starts[(row_starts > 0) & (row_starts < len(self.indices))]
        descents[inner - 1] = False
        unsorted = np.flatnonzero(descents)
        if unsorted.size:
            v = int(np.searchsorted(self.indptr, unsorted[0], side="right")) - 1
            raise GraphFormatError(f"adjacency of node {v} is not sorted")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (2x the undirected edge count)."""
        return len(self.indices)

    @property
    def is_unit_weight(self) -> bool:
        """True when every stored edge weight equals one."""
        return self._is_unit_weight

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Vector of all node degrees."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        """``d_max``, the maximum degree (0 for an edgeless graph)."""
        if self.num_nodes == 0:
            raise EmptyGraphError("graph has no nodes")
        degs = self.degrees
        return int(degs.max()) if len(degs) else 0

    @property
    def average_degree(self) -> float:
        """Average degree ``d_avg = |E_stored| / |V|``."""
        if self.num_nodes == 0:
            raise EmptyGraphError("graph has no nodes")
        return self.num_edges / self.num_nodes

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a zero-copy view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (a zero-copy view)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def weight_sum(self, v: int) -> float:
        """``W_v``: total outgoing weight of ``v``."""
        return float(self._weight_sums[v])

    @property
    def weight_sums(self) -> np.ndarray:
        """Vector of all ``W_v``."""
        return self._weight_sums

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids ``0 .. |V|-1``."""
        return iter(range(self.num_nodes))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over stored directed edges as ``(u, v, w)`` triples."""
        for u in range(self.num_nodes):
            start, stop = self.indptr[u], self.indptr[u + 1]
            for k in range(start, stop):
                yield u, int(self.indices[k]), float(self.weights[k])

    # ------------------------------------------------------------------
    # edge queries
    # ------------------------------------------------------------------
    def edge_index(self, u: int, v: int) -> int:
        """Position of edge ``(u, v)`` in ``indices``, or ``-1`` if absent.

        Binary search over the sorted adjacency of ``u``: ``O(log d_u)``.
        """
        start, stop = self.indptr[u], self.indptr[u + 1]
        pos = start + np.searchsorted(self.indices[start:stop], v)
        if pos < stop and self.indices[pos] == v:
            return int(pos)
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` is stored."""
        return self.edge_index(u, v) >= 0

    def edge_weight(self, u: int, v: int, default: float = 0.0) -> float:
        """Weight of edge ``(u, v)``, or ``default`` if absent."""
        pos = self.edge_index(u, v)
        return float(self.weights[pos]) if pos >= 0 else default

    def has_edges_bulk(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Vectorised edge-existence check: for each ``z`` in ``targets``,
        whether ``(u, z)`` is stored.  One ``searchsorted`` call total."""
        row = self.neighbors(u)
        targets = np.asarray(targets)
        pos = np.searchsorted(row, targets)
        ok = pos < len(row)
        result = np.zeros(len(targets), dtype=bool)
        if ok.any():
            result[ok] = row[pos[ok]] == targets[ok]
        return result

    def edge_ids(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised edge lookup over aligned pairs: for each
        ``(sources[i], targets[i])``, the flat CSR index of the edge in
        ``indices``, or ``-1`` if it is not stored.

        A hashed bit filter over the composite keys ``u * |V| + z``
        answers first: a pair whose bit is clear is certainly no edge.
        Only the survivors — the edges plus ~3% false positives — reach
        one ``searchsorted`` over the sorted key view, so the answer is
        exact, and non-edges cost the same whatever ``|E|``.  Both
        structures are built lazily, once per graph.
        """
        count, maybe, pos, hit = self._probe(sources, targets)
        ids = np.full(count, -1, dtype=np.int64)
        ids[maybe[hit]] = pos[hit]
        return ids

    def has_edge_pairs(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Vectorised edge-existence over aligned ``(sources[i], targets[i])``
        pairs — :meth:`edge_ids` ``>= 0``, read off the same probe.
        node2vec's common-neighbour checks are the hot caller, and almost
        all of their pairs are no edge, so the bit filter answers them."""
        count, maybe, _, hit = self._probe(sources, targets)
        result = np.zeros(count, dtype=bool)
        result[maybe] = hit
        return result

    def edge_positions(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised CSR row positions over aligned pairs: for each
        ``(sources[i], targets[i])``, the index of ``targets[i]`` within
        ``neighbors(sources[i])`` plus a found mask — :meth:`edge_ids`
        minus the row start.

        Positions are meaningful only where ``found`` is ``True``.
        """
        ids = self.edge_ids(sources, targets)
        return ids - self.indptr[np.asarray(sources, dtype=np.int64)], ids >= 0

    def reverse_edges(self) -> np.ndarray:
        """For each stored edge ``v -> z`` (by flat CSR index), the flat
        index of ``z -> v``, or ``-1`` where the reverse is not stored.

        Built lazily, once per graph (``|E|`` int64).  On a symmetric graph
        it is an involution.  The batch walk engine turns a walker's last
        hop ``u -> v`` into ``u``'s position in ``N(v)`` with it: one
        gather, no search.
        """
        if self._reverse is None:
            self._reverse = self.edge_ids(self.indices, self._edge_sources())
        return self._reverse

    def _edge_sources(self) -> np.ndarray:
        """Source node of every stored edge, in CSR order."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

    def _ensure_edge_keys(self) -> np.ndarray:
        """The lazily-built composite-key view ``u * |V| + z`` per stored
        edge — globally sorted because rows are ascending and each row's
        neighbours are sorted, so a key's rank is its flat CSR index —
        plus one trailing sentinel above every key, so an insertion point
        is always a valid index."""
        if self._edge_keys is None:
            keys = self._edge_sources() * self.num_nodes + self.indices
            self._edge_keys = np.append(keys, np.iinfo(np.int64).max)
        return self._edge_keys

    def _probe(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The lookup behind :meth:`edge_ids`: the pair count, the indices
        of the pairs the filter lets through, their insertion points in
        the key view, and which of them are stored edges (there, the
        insertion point is the flat CSR index)."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        queries = sources * self.num_nodes + targets
        maybe = self._filter_survivors(queries)
        candidates = queries[maybe]
        keys = self._ensure_edge_keys()
        pos = np.searchsorted(keys, candidates)
        return len(queries), maybe, pos, keys[pos] == candidates

    def _filter_survivors(self, queries: np.ndarray) -> np.ndarray:
        """Indices of the composite-key ``queries`` whose filter bit is
        set: every stored edge among them, plus the false positives."""
        words = self._ensure_edge_filter()
        slots = _filter_slots(queries, self._filter_shift)
        return np.flatnonzero((words[slots >> 6] << (slots & 63)) < 0)

    def _ensure_edge_filter(self) -> np.ndarray:
        """The lazily-built bit filter over the composite keys: one bit per
        Fibonacci-hash slot, ``_FILTER_BITS_PER_EDGE`` bits per stored edge
        rounded up to a power of two (at least one 64-bit word).

        Slot ``s`` is bit ``s % 64`` of word ``s // 64``, counted from the
        sign bit down, so a left shift by ``s % 64`` moves it to the sign
        bit: the lookup tests it with one shift and one comparison.
        """
        if self._edge_filter is None:
            keys = self._ensure_edge_keys()[:-1]
            bits = max(6, (_FILTER_BITS_PER_EDGE * len(keys) - 1).bit_length())
            self._filter_shift = 64 - bits
            slots = _filter_slots(keys, self._filter_shift)
            words = np.zeros(1 << (bits - 6), dtype=np.int64)
            np.bitwise_or.at(words, slots >> 6, np.left_shift(1, 63 - (slots & 63)))
            self._edge_filter = words
        return self._edge_filter

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def is_symmetric(self) -> bool:
        """Whether every stored edge has its reverse stored with equal weight."""
        reverse = self.reverse_edges()
        if np.any(reverse < 0):
            return False
        return bool(np.all(np.abs(self.weights[reverse] - self.weights) <= 1e-12))

    def memory_bytes(self, int_bytes: int = 4, float_bytes: int = 4) -> int:
        """Modeled size ``M_g`` of the CSR structure.

        Counts ``indptr`` (``|V|+1`` ints), ``indices`` (one int per stored
        edge), and — only for weighted graphs — one float per stored edge.
        This is the analytic counterpart of the paper's ``M_g`` column in
        Table 2 (measured there from ``/proc``).
        """
        size = (self.num_nodes + 1) * int_bytes + self.num_edges * int_bytes
        if not self._is_unit_weight:
            size += self.num_edges * float_bytes
        return size

    def storage_bytes(self) -> int:
        """Actual bytes of the stored arrays (int64/float64, weights always).

        Unlike the modeled :meth:`memory_bytes` (the paper's ``M_g``, which
        assumes 4-byte entries and elides unit weights), this is the exact
        footprint of ``indptr`` + ``indices`` + ``weights`` as held in RAM.
        The sharded layout written by :func:`repro.graph.io.save_sharded_csr`
        stores exactly these bytes plus one duplicated 8-byte ``indptr``
        boundary entry per extra shard.
        """
        return int(self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes)

    # ------------------------------------------------------------------
    # niceties
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"unit_weight={self._is_unit_weight})"
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        *,
        num_nodes: int | None = None,
        undirected: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an edge list.  See :class:`GraphBuilder`."""
        from .builder import from_edges as _from_edges

        return _from_edges(
            edges, weights, num_nodes=num_nodes, undirected=undirected
        )
