"""Bucketed bi-block walk scheduling over sharded CSR layouts.

GraSorw's key insight (PAPERS.md): when the graph does not fit in memory,
the unit of I/O should be the *shard*, not the step.  Each walk is parked
in the bucket of the shard holding its current node; the scheduler pins
the shard of the most-populated bucket and advances **every** walk in it
one hop through the existing step-centric ``@hot_path`` kernels (one
micro-step per bucket visit).  Walks that crossed a shard boundary are
re-bucketed; walks still inside go back into the same bucket, so while
that bucket stays the fullest its shard is stepped again without a
reload.  One shard load is thus amortised across every resident walk, so
I/O cost scales with shard loads rather than with walk steps.

Determinism contract
--------------------
Out-of-order bucket execution is incompatible with the batch engine's
frontier-wide draw stream, so the scheduler derives **per-walker RNG
streams**: the chunk generator is consumed exactly once, for one recorded
``integers`` call yielding a seed per walker (the determinism sanitizer
fingerprints it), and each walker then draws one uniform per hop from its
own ``default_rng(seed)``.  Those uniforms are pre-drawn: each walker's
stream is drawn once per chunk as ``random(length)``, which yields the
same values as ``length`` scalar draws, and a micro-step gathers its
walkers' uniforms at their current depth.  Walk output is therefore a
pure function of ``(chunk seed, start order, graph)`` — invariant to the
shard geometry, the residency budget, the scheduling policy, and the
worker count.  The *in-memory reference* is this same scheduler running
over a :class:`~repro.graph.VirtualShardLayout` (zero-copy slices of a
:class:`~repro.graph.CSRGraph`): both modes execute identical code, so
``sharded == in-memory`` is a statement purely about data placement,
pinned by corpus hashes in the test suite.

Second-order exactness across boundaries: a walk leaving shard ``A`` for
shard ``B`` needs the adjacency row of its *previous* node (still in
``A``) to weight its next hop.  While ``A`` is resident, each micro-step
copies the rows of every crossing walker's previous node out of it in one
segmented gather, packed per destination shard (:class:`_CarriedRows`).
The rows live with the destination bucket: its next visit's micro-step
reads them (a walker's first hop after arriving), and they are dropped
once it has run; a gather feeding several destinations is freed when the
last of them has run, so carried memory is bounded by the gathers that
still have a walker in flight.  The :class:`_ShardView`
resolves every row a model asks for from the focus shard or the carried
rows, answers neighbour checks for a whole micro-step with one
composite-key ``searchsorted``, and fails loudly on a row it holds
neither way.

Policies: ``"bucketed"`` is the bi-block schedule above; ``"lockstep"``
is the naive comparator that advances every walk one global step per
round, faulting shards on demand — bit-identical output (the per-walker
streams guarantee it) with strictly worse I/O counters, which is exactly
what ``benchmarks/bench_sharded.py`` measures.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np

from ..exceptions import WalkError
from ..graph import CSRGraph
from ..graph.csr import segment_positions
from ..graph.sharded import (
    ShardData,
    ShardResidencyManager,
    ShardSource,
    VirtualShardLayout,
)
from ..hotpath import kernel_scope
from ..models import SecondOrderModel
from ..rng import RngLike, ensure_rng
from .batch import split_trails
from .corpus import WalkCorpus
from .kernels import KernelBackend, resolve_backend

SCHEDULING_POLICIES = ("bucketed", "lockstep")


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts in the
    sorted array ``ordered``."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _runs(ordered: np.ndarray) -> list[tuple[int, int, int]]:
    """``(value, lo, hi)`` for each run of equal values in sorted ``ordered``."""
    bounds = np.append(np.flatnonzero(_run_starts(ordered)), len(ordered)).tolist()
    return [
        (int(ordered[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _group_by(
    walkers: np.ndarray, keys: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """``(key, walkers)`` groups in key order, walkers keeping their order."""
    order = np.argsort(keys, kind="stable")
    walkers, keys = walkers[order], keys[order]
    return [(key, walkers[lo:hi]) for key, lo, hi in _runs(keys)]


class _CarriedRows(NamedTuple):
    """Packed adjacency rows of off-shard previous nodes, carried into a shard.

    ``nodes`` is sorted and unique; the row of ``nodes[i]`` is
    ``indices[indptr[i]:indptr[i + 1]]`` with aligned ``weights``.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def pack(
        cls,
        nodes: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> "_CarriedRows":
        """Copy the rows ``[starts[i], starts[i] + sizes[i])`` of ``nodes``
        out of ``indices``/``weights`` in one segmented gather."""
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        positions = segment_positions(starts, sizes)
        return cls(
            nodes,
            indptr,
            np.asarray(indices[positions], dtype=np.int64),
            np.asarray(weights[positions], dtype=np.float64),
        )

    @classmethod
    def merge(cls, blocks: "list[_CarriedRows]") -> "_CarriedRows":
        """One block holding every distinct row of ``blocks``."""
        if not blocks:
            return _NO_CARRIED_ROWS
        if len(blocks) == 1:
            return blocks[0]
        bases = np.cumsum([0] + [len(b.indices) for b in blocks[:-1]])
        nodes = np.concatenate([b.nodes for b in blocks])
        order = np.argsort(nodes, kind="stable")
        first = order[_run_starts(nodes[order])]
        starts = np.concatenate(
            [b.indptr[:-1] + base for b, base in zip(blocks, bases)]
        )
        sizes = np.concatenate([np.diff(b.indptr) for b in blocks])
        return cls.pack(
            nodes[first],
            starts[first],
            sizes[first],
            np.concatenate([b.indices for b in blocks]),
            np.concatenate([b.weights for b in blocks]),
        )

    def split(self, groups: np.ndarray) -> "list[tuple[int, _CarriedRows]]":
        """Views of the runs of rows sharing a (sorted) ``groups`` value."""
        indptr = self.indptr
        return [
            (
                group,
                _CarriedRows(
                    self.nodes[lo:hi],
                    indptr[lo : hi + 1] - indptr[lo],
                    self.indices[indptr[lo] : indptr[hi]],
                    self.weights[indptr[lo] : indptr[hi]],
                ),
            )
            for group, lo, hi in _runs(groups)
        ]


_NO_CARRIED_ROWS = _CarriedRows(
    np.empty(0, dtype=np.int64),
    np.zeros(1, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)


class _ShardFlatArray:
    """Global-position view of one shard's flat CSR array.

    Lets the models' vectorised paths index ``graph.indices`` /
    ``graph.weights`` with *global* edge positions while only the focus
    shard is resident; positions outside it raise a typed
    :class:`~repro.exceptions.WalkError` instead of returning garbage.
    """

    __slots__ = ("_values", "_offset", "_role")

    def __init__(self, values: np.ndarray, offset: int, role: str) -> None:
        self._values = values
        self._offset = offset
        self._role = role

    def __getitem__(self, positions: Any) -> np.ndarray:
        local = np.asarray(positions, dtype=np.int64) - self._offset
        if local.size and (
            int(local.min()) < 0 or int(local.max()) >= len(self._values)
        ):
            raise WalkError(
                f"{self._role} position outside the resident shard"
            )
        return np.asarray(self._values[local])


class _ShardView:
    """Graph facade a :class:`~repro.models.SecondOrderModel` samples through.

    Structural arrays (``indptr``, ``degrees``) are the layout's global
    in-RAM copies; adjacency rows resolve to the focus shard or, for a
    crossing walker's previous node, to the packed carried rows.
    ``weight_sum`` is always ``float(np.sum(row))`` — never a cached prefix
    sum — so the virtual and on-disk modes compute bit-identical values.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        degrees: np.ndarray,
        num_nodes: int,
        shard: ShardData,
        carried: _CarriedRows,
    ) -> None:
        self.indptr = indptr
        self.degrees = degrees
        self.num_nodes = num_nodes
        self._shard = shard
        self._carried = carried
        self.indices = _ShardFlatArray(shard.indices, shard.edge_offset, "indices")
        self.weights = _ShardFlatArray(shard.weights, shard.edge_offset, "weights")

    # ------------------------------------------------------------------
    def _carried_index(self, nodes: np.ndarray) -> np.ndarray:
        """Position of each node in the carried block; raises on a node
        that has no carried row."""
        carried = self._carried.nodes
        pos = np.searchsorted(carried, nodes)
        found = pos < len(carried)
        found[found] = carried[pos[found]] == nodes[found]
        if not found.all():
            raise WalkError(
                f"node {int(nodes[~found][0])} is outside resident shard "
                f"{self._shard.index} and has no carried row"
            )
        return pos

    def _row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        shard = self._shard
        if shard.start <= v < shard.stop:
            lo = int(self.indptr[v]) - shard.edge_offset
            hi = int(self.indptr[v + 1]) - shard.edge_offset
            return shard.indices[lo:hi], shard.weights[lo:hi]
        i = int(self._carried_index(np.asarray([v], dtype=np.int64))[0])
        carried = self._carried
        lo, hi = int(carried.indptr[i]), int(carried.indptr[i + 1])
        return carried.indices[lo:hi], carried.weights[lo:hi]

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour row of ``v`` (shard-resident or carried)."""
        return np.asarray(self._row(int(v))[0])

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        return np.asarray(self._row(int(v))[1])

    def weight_sum(self, v: int) -> float:
        """Total edge weight out of ``v`` (recomputed, not cached)."""
        return float(np.sum(self._row(int(v))[1]))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the stored edge ``u -> v`` exists."""
        return bool(self.has_edges_bulk(int(u), np.asarray([v], dtype=np.int64))[0])

    def edge_weight(self, u: int, v: int, default: float = 0.0) -> float:
        """Weight of edge ``u -> v`` (``default`` when absent)."""
        neighbors, weights = self._row(int(u))
        pos = int(np.searchsorted(neighbors, v))
        if pos < len(neighbors) and int(neighbors[pos]) == int(v):
            return float(weights[pos])
        return float(default)

    def has_edges_bulk(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Boolean membership of each target in ``N(u)``."""
        targets = np.asarray(targets, dtype=np.int64)
        neighbors, _ = self._row(int(u))
        pos = np.searchsorted(neighbors, targets)
        result = np.zeros(len(targets), dtype=bool)
        valid = pos < len(neighbors)
        result[valid] = neighbors[pos[valid]] == targets[valid]
        return result

    def has_edge_pairs(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Elementwise edge existence for parallel source/target arrays.

        One composite-key ``searchsorted`` — the exact search of
        :meth:`~repro.graph.CSRGraph.edge_ids`, without its bit filter —
        over keys
        ``u * |V| + z`` built per call from the rows of the distinct
        sources only: resident rows from the focus shard, the rest from
        the carried block.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        ordered = np.sort(sources)
        us = ordered[_run_starts(ordered)]
        shard = self._shard
        resident = (us >= shard.start) & (us < shard.stop)
        sizes = self.degrees[us]
        in_shard = np.repeat(resident, sizes)
        rows = np.empty(len(in_shard), dtype=np.int64)
        rows[in_shard] = shard.indices[
            segment_positions(
                self.indptr[us[resident]] - shard.edge_offset, sizes[resident]
            )
        ]
        far = ~resident
        if far.any():
            carried = self._carried
            rows[~in_shard] = carried.indices[
                segment_positions(
                    carried.indptr[self._carried_index(us[far])], sizes[far]
                )
            ]
        keys = np.repeat(us * self.num_nodes, sizes)
        keys += rows
        queries = sources * self.num_nodes + targets
        pos = np.searchsorted(keys, queries)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == queries[found]
        return found


class _ChunkState:
    """Mutable per-chunk walker state shared by both scheduling policies.

    ``uniforms[w, d]`` is walker ``w``'s draw for its hop from depth ``d``:
    its whole private stream, drawn once.  ``carried`` maps a destination
    shard to the packed rows that walkers crossing into it carry.
    """

    __slots__ = (
        "trails",
        "current",
        "previous",
        "depth",
        "active",
        "scratch",
        "uniforms",
        "carried",
        "degrees",
        "length",
    )

    def __init__(
        self,
        walkers: np.ndarray,
        length: int,
        degrees: np.ndarray,
        seeds: np.ndarray,
    ) -> None:
        n = len(walkers)
        self.trails = np.full((n, length + 1), -1, dtype=np.int64)
        self.trails[:, 0] = walkers
        self.current = walkers.copy()
        self.previous = np.full(n, -1, dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        self.active = degrees[walkers] > 0
        self.scratch = np.empty(n, dtype=np.int64)
        self.uniforms = np.empty((n, length), dtype=np.float64)
        for walker, seed in enumerate(seeds.tolist()):
            self.uniforms[walker] = np.random.default_rng(seed).random(length)
        self.carried: dict[int, list[_CarriedRows]] = {}
        self.degrees = degrees
        self.length = length


class BucketedWalkScheduler:
    """Bi-block walk engine over a sharded (or virtual) CSR layout.

    Implements the chunk-engine protocol (``walk_chunk`` / ``counters`` /
    ``reset_chunk_state``), so :func:`repro.walks.parallel_walks` and the
    resilience supervisor drive it exactly like the batch engine —
    checkpoints, retries, dead letters, and the determinism sanitizer all
    apply unchanged.  ``engine_tag``/``layout_signature`` key the
    checkpoint signature so a resume across engines or shard layouts is
    refused.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.ShardedCSRGraph` (out-of-core), a
        :class:`~repro.graph.CSRGraph` (wrapped into a
        :class:`~repro.graph.VirtualShardLayout` with ``boundaries`` /
        ``num_shards``, default one shard), or a prepared layout.
    model:
        The second-order model; its weight computations run against a
        per-microstep :class:`_ShardView`.
    budget:
        Residency byte budget for pinned shards — a byte count, a
        :class:`~repro.framework.MemoryBudget`, or ``None`` (unbounded).
    max_resident:
        Hard cap K on simultaneously pinned shards (``None`` = no cap).
    backend:
        Kernel backend, as in :class:`~repro.walks.BatchWalkEngine`; every
        backend consumes the identical per-walker uniforms, so the choice
        never changes the corpus.
    policy:
        ``"bucketed"`` (default) or ``"lockstep"`` (naive comparator).
    verify_hashes:
        Verify shard content hashes on first load (on-disk layouts only).
    """

    engine_tag = "bucketed"

    def __init__(
        self,
        graph: "CSRGraph | ShardSource",
        model: SecondOrderModel,
        *,
        budget: Any = None,
        max_resident: int | None = None,
        backend: "KernelBackend | str | None" = None,
        policy: str = "bucketed",
        boundaries: np.ndarray | None = None,
        num_shards: int | None = None,
        verify_hashes: bool = True,
    ) -> None:
        if isinstance(graph, CSRGraph):
            layout: ShardSource = VirtualShardLayout(
                graph, boundaries=boundaries, num_shards=num_shards
            )
        elif hasattr(graph, "shard_spec"):
            layout = graph
        else:
            raise WalkError(
                "graph must be a CSRGraph, ShardedCSRGraph, or shard layout, "
                f"got {type(graph).__name__}"
            )
        if policy not in SCHEDULING_POLICIES:
            raise WalkError(
                f"unknown scheduling policy {policy!r}; choose from "
                f"{SCHEDULING_POLICIES}"
            )
        self.graph = layout
        self.model = model
        self.backend = resolve_backend(backend)
        self.policy = policy
        self.manager = ShardResidencyManager(
            layout,
            budget=budget,
            max_resident=max_resident,
            verify_hashes=verify_hashes,
        )
        self._n = layout.num_nodes
        self._steps = 0
        self._crossings = 0
        self._bucket_visits = 0

    # ------------------------------------------------------------------
    # chunk-engine protocol
    # ------------------------------------------------------------------
    @property
    def layout_signature(self) -> str:
        """The layout's identity, part of the checkpoint signature."""
        return str(self.graph.layout_signature)

    def walk_chunk(
        self,
        nodes: Sequence[int],
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
    ) -> list[np.ndarray]:
        """Chunk entry point: walks in start-major order, one per entry.

        Consumes the chunk generator exactly once — a single recorded
        ``integers`` draw of one seed per walker — then runs every hop
        off the walkers' private streams, so the result is independent
        of scheduling order.
        """
        gen = ensure_rng(rng)
        walkers = np.repeat(np.asarray(nodes, dtype=np.int64), num_walks)
        if len(walkers) == 0 or length == 0:
            trails = np.full((len(walkers), length + 1), -1, dtype=np.int64)
            if len(walkers):
                trails[:, 0] = walkers
            return split_trails(trails)
        with kernel_scope("walker_streams"):
            seeds = gen.integers(0, 2**63 - 1, size=len(walkers))
        state = _ChunkState(
            walkers, length, self.graph.degrees.astype(np.int64, copy=False), seeds
        )
        if self.policy == "bucketed":
            self._run_bucketed(state)
        else:
            self._run_lockstep(state)
        return split_trails(state.trails)

    def walks(
        self,
        *,
        starts: "np.ndarray | list[int] | None" = None,
        num_walks: int = 1,
        length: int = 10,
        rng: RngLike = None,
    ) -> WalkCorpus:
        """``num_walks`` walks per start node (default: every non-isolated
        node), start-major, with scheduler counters on ``metadata``."""
        if num_walks < 1:
            raise WalkError("num_walks must be >= 1")
        if length < 0:
            raise WalkError("length must be non-negative")
        gen = ensure_rng(rng)
        if starts is None:
            starts = np.flatnonzero(self.graph.degrees > 0)
        starts = np.asarray(starts, dtype=np.int64)
        if len(starts) and (starts.min() < 0 or starts.max() >= self._n):
            raise WalkError("start node out of range")
        corpus = WalkCorpus()
        for trail in self.walk_chunk(
            starts, num_walks=num_walks, length=length, rng=gen
        ):
            corpus.add(trail)
        corpus.metadata.update(self.stats())
        return corpus

    def counters(self) -> dict:
        """Summable event counts (the cross-worker merge payload).

        ``steps`` counts sampled walker-hops; the ``sharded`` section
        carries the residency manager's load/eviction/bytes-read counters
        plus boundary crossings and bucket visits.  All monotone ints, so
        per-chunk deltas merge associatively and the corpus totals are
        worker-count invariant.
        """
        return {
            "steps": int(self._steps),
            "sharded": {
                **self.manager.counters(),
                "crossings": int(self._crossings),
                "bucket_visits": int(self._bucket_visits),
            },
        }

    def reset_chunk_state(self) -> None:
        """Evict every resident shard so the next chunk is self-contained.

        Called by the chunked runner before each chunk: with a cold
        residency set, the chunk's counter delta (loads, evictions, bytes
        read) is a pure function of the chunk itself — independent of
        which worker ran it or what ran before.
        """
        self.manager.evict_all()

    def stats(self) -> dict:
        """Counters plus configuration gauges (observability snapshot)."""
        stats: dict = {
            "engine": self.engine_tag,
            "backend": self.backend.name,
            "policy": self.policy,
            "num_shards": int(self.graph.num_shards),
            "layout": self.layout_signature,
        }
        if self.manager.max_resident is not None:
            stats["max_resident"] = int(self.manager.max_resident)
        if np.isfinite(self.manager.budget_bytes):
            stats["budget_bytes"] = float(self.manager.budget_bytes)
        stats.update(self.counters())
        return stats

    def describe(self) -> str:
        """One-line scheduling summary (``graph.stats`` style)."""
        c = self.counters()["sharded"]
        return (
            f"{self.policy} scheduler: {self.graph.num_shards} shards, "
            f"steps={self._steps}, loads={c['shard_loads']}, "
            f"evictions={c['shard_evictions']}, "
            f"crossings={c['crossings']}"
        )

    # ------------------------------------------------------------------
    # scheduling policies
    # ------------------------------------------------------------------
    def _run_bucketed(self, state: _ChunkState) -> None:
        """Bi-block schedule: one micro-step on the fullest bucket at a time.

        A bucket holds the walkers parked on one shard (as arrays) and,
        in ``state.carried``, the rows they carried in; a visit advances
        every member one hop, reading and dropping those rows.  Members
        still inside the shard go back into its bucket, so a shard that
        stays the fullest is stepped again while it is still resident.
        """
        walkers = np.flatnonzero(state.active)
        buckets: dict[int, list[np.ndarray]] = {
            sid: [group]
            for sid, group in _group_by(
                walkers, self.graph.shard_of(state.current[walkers])
            )
        }
        while buckets:
            sid = min(buckets, key=lambda s: (-sum(map(len, buckets[s])), s))
            members = np.sort(np.concatenate(buckets.pop(sid)))
            carried = _CarriedRows.merge(state.carried.pop(sid, []))
            shard = self.manager.acquire(sid)
            self._bucket_visits += 1
            for dest, group in self._advance(state, shard, members, carried):
                buckets.setdefault(dest, []).append(group)

    def _run_lockstep(self, state: _ChunkState) -> None:
        """Naive comparator: one global step per round, shards on demand.

        Same per-walker streams, so the corpus is bit-identical to the
        bucketed policy; only the I/O counters differ (every round faults
        each populated shard again).
        """
        while True:
            frontier = np.flatnonzero(state.active)
            if frontier.size == 0:
                break
            arrived, state.carried = state.carried, {}
            for sid, members in _group_by(
                frontier, self.graph.shard_of(state.current[frontier])
            ):
                shard = self.manager.acquire(sid)
                self._bucket_visits += 1
                self._advance(
                    state, shard, members, _CarriedRows.merge(arrived.pop(sid, []))
                )

    # ------------------------------------------------------------------
    # micro-step
    # ------------------------------------------------------------------
    def _advance(
        self,
        state: _ChunkState,
        shard: ShardData,
        members: np.ndarray,
        carried: _CarriedRows,
    ) -> list[tuple[int, np.ndarray]]:
        """Advance ``members`` (all on ``shard``) one hop.

        ``carried`` holds the rows of the members' off-shard previous
        nodes.  Returns the members still active as ``(shard, walkers)``
        groups by the shard each now sits on, this one included; the
        rows that crossing walkers carry are filed under their
        destination in ``state.carried``.
        """
        depth = state.depth[members]
        first = members[depth == 0]
        later = members[depth > 0]
        if first.size:
            self._sample_first(state, shard, first)
        if later.size:
            self._sample_second(state, shard, later, carried)

        state.depth[members] += 1
        state.trails[members, state.depth[members]] = state.scratch[members]
        self.backend.advance_frontier(
            members,
            state.scratch,
            state.previous,
            state.current,
            state.active,
            state.degrees,
        )
        state.active[members] &= state.depth[members] < state.length
        self._steps += len(members)

        walking = members[state.active[members]]
        dests = np.asarray(
            self.graph.shard_of(state.current[walking]), dtype=np.int64
        )
        leaving = dests != shard.index
        if leaving.any():
            self._crossings += int(leaving.sum())
            self._carry(state, shard, state.previous[walking[leaving]], dests[leaving])
        return _group_by(walking, dests)

    def _carry(
        self,
        state: _ChunkState,
        shard: ShardData,
        prev: np.ndarray,
        dests: np.ndarray,
    ) -> None:
        """File the rows of ``prev`` (all on ``shard``) under ``dests``.

        One segmented gather copies every distinct ``(dest, prev)`` row
        out of the resident shard; each destination gets a view of its
        run of rows.
        """
        keys = np.sort(dests * self._n + prev)
        to, nodes = np.divmod(keys[_run_starts(keys)], self._n)
        indptr = self.graph.indptr
        starts = indptr[nodes]
        rows = _CarriedRows.pack(
            nodes,
            starts - shard.edge_offset,
            indptr[nodes + 1] - starts,
            shard.indices,
            shard.weights,
        )
        for dest, block in rows.split(to):
            state.carried.setdefault(dest, []).append(block)

    def _sample_first(
        self, state: _ChunkState, shard: ShardData, sub: np.ndarray
    ) -> None:
        """First hop: n2e distributions are the raw weight rows."""
        kb = self.backend
        vs, group = kb.regroup_pairs(state.current[sub])
        starts = (self.graph.indptr[vs] - shard.edge_offset).astype(
            np.int64, copy=False
        )
        sizes = (self.graph.indptr[vs + 1] - self.graph.indptr[vs]).astype(
            np.int64
        )
        flat = kb.gather_segments(starts, sizes, shard.weights)
        uniforms = state.uniforms[sub, state.depth[sub]]
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        state.scratch[sub] = shard.indices[starts[group] + picks]

    def _sample_second(
        self,
        state: _ChunkState,
        shard: ShardData,
        sub: np.ndarray,
        carried: _CarriedRows,
    ) -> None:
        """Later hops: model-weighted e2e distributions via the shard view."""
        kb = self.backend
        keys = state.previous[sub] * self._n + state.current[sub]
        uk, group = kb.regroup_pairs(keys)
        us, vs = np.divmod(uk, self._n)
        view = _ShardView(self.graph.indptr, state.degrees, self._n, shard, carried)
        flat, sizes = self.model.biased_weights_many(view, us, vs)
        uniforms = state.uniforms[sub, state.depth[sub]]
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        starts = (self.graph.indptr[vs] - shard.edge_offset).astype(
            np.int64, copy=False
        )
        state.scratch[sub] = shard.indices[starts[group] + picks]


def scheduled_walks(
    graph: "CSRGraph | ShardSource",
    model: SecondOrderModel,
    *,
    starts: "np.ndarray | list[int] | None" = None,
    num_walks: int = 1,
    length: int = 10,
    rng: RngLike = None,
    budget: Any = None,
    max_resident: int | None = None,
    backend: "KernelBackend | str | None" = None,
    policy: str = "bucketed",
    num_shards: int | None = None,
) -> WalkCorpus:
    """One-shot bucketed walk generation (functional wrapper).

    Builds a :class:`BucketedWalkScheduler` and runs ``num_walks`` walks
    per start node; see the class for parameter semantics.
    """
    engine = BucketedWalkScheduler(
        graph,
        model,
        budget=budget,
        max_resident=max_resident,
        backend=backend,
        policy=policy,
        num_shards=num_shards,
    )
    return engine.walks(
        starts=starts, num_walks=num_walks, length=length, rng=rng
    )
