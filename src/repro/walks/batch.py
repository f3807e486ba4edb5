"""Batched walk generation: vectorised, assignment-aware second-order stepping.

Pure-Python per-sample loops are the reproduction's biggest slowdown vs
the paper's C++ (the per-step work is tiny; the interpreter overhead is
not).  The batch engine removes that overhead by advancing *all* walks one
step at a time and grouping the walker frontier by its **edge state**
``(previous, current)``: walkers on the same edge state share one e2e
distribution, which is materialised once and sampled for the whole group
in one vectorised call.

Unlike the original "batched-naive" engine, :class:`BatchWalkEngine` is
**assignment-aware**: each frontier group is dispatched to the sampler
*kind* the cost-based optimizer assigned to its current node, so the
memory the optimizer paid for is actually exploited on the hot path:

* **naive** nodes rebuild their e2e weights on demand — but for *every
  distinct edge state of the step at once* through one
  :meth:`~repro.models.SecondOrderModel.biased_weights_many` call,
  followed by one segmented inverse-CDF draw for the whole frontier
  slice.  Nothing is kept between steps: the rebuild is already one
  vectorised call, so a memo in front of it costs more than it saves
  (see ``docs/performance.md``);
* **rejection** nodes run KnightKing-style vectorised rejection: proposal
  columns, keep/alias resolution, and acceptance draws are whole-array
  operations.  Each round gives every pending walker several proposals
  (more as fewer walkers remain) and a walker takes its first accepted
  one, so a step needs few rounds even at low acceptance.  Where the
  model's return candidate is an outlier of its ratios (node2vec with
  ``1/a > max(1, 1/b)``), the return edge is proposed apart and the rest
  are drawn under the lower envelope of the other candidates.  Where
  the model bounds its ratios from below, every proposal is accepted
  with probability at least ``q``, so a walker takes its
  ``(S + 1)``-th proposal, ``S ~ Geometric(q)``, without a ratio call;
* **alias** nodes read their pre-built e2e tables and resolve every
  walker with two uniform draws, no distribution rebuilds at all.  Each
  walker carries the flat CSR index of its last hop, and the reverse of
  that edge addresses its table: no edge search on the step;
* custom samplers fall back to the per-group
  :meth:`~repro.framework.NodeSampler.sample_batch` API.

The rejection and alias paths read the samplers' own table arenas (see
:mod:`repro.framework.node_samplers`), one per kind, addressed per
walker with pure arithmetic: the engine holds no copy of the tables.

Determinism: for a fixed seed the output is a pure function of the start
order — the dispatch order (naive → rejection → alias → fallback, groups
in sorted key order) is fixed, so worker count never changes the corpus
(hash-pinned in the test suite).

Step-centric kernels (ThunderRW-style): the engine methods are thin
*drivers* — they regroup the frontier, address the table arenas or
materialise on-demand weights, and **pre-draw every uniform** from the chunk generator (under
:func:`~repro.hotpath.kernel_scope` for sanitizer attribution) — while
the actual array math lives in :mod:`repro.walks.kernels` behind a
pluggable backend (``numpy`` reference kernels by default, compiled
``numba`` kernels opt-in).  Because no kernel ever touches the RNG, every
backend consumes the identical draw sequence: swapping backends can
change speed but never a sampled value, and the determinism sanitizer's
draw-order digests prove it at the bit level.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..cost import SamplerKind
from ..exceptions import SamplerError, WalkError
from ..framework.interfaces import NodeSampler
from ..framework.node_samplers import (
    AliasNodeSampler,
    RejectionNodeSampler,
    SamplerSet,
    TableArena,
    joint_arena,
)
from ..graph import CSRGraph
from ..hotpath import kernel_scope
from ..models import SecondOrderModel
from ..rng import RngLike, ensure_rng
from ..sampling.alias import TABLE_FLOAT, TABLE_INT
from .corpus import WalkCorpus
from .kernels import KernelBackend, resolve_backend

# Internal dispatch buckets, processed in this fixed order each step.
_NAIVE, _REJECTION, _ALIAS, _FALLBACK = 0, 1, 2, 3
_KIND_NAMES = {_NAIVE: "naive", _REJECTION: "rejection", _ALIAS: "alias", _FALLBACK: "fallback"}
#: The bucket of each built-in sampler kind, and the kind whose table
#: arena each table bucket walks.
_KIND_BUCKETS = {
    SamplerKind.NAIVE: _NAIVE,
    SamplerKind.REJECTION: _REJECTION,
    SamplerKind.ALIAS: _ALIAS,
}
_BUCKET_KINDS = {_REJECTION: SamplerKind.REJECTION, _ALIAS: SamplerKind.ALIAS}


def _bucket_of(sampler: NodeSampler) -> int:
    """The dispatch bucket of one sampler object: its table kind, naive
    (the engine rebuilds on demand), or the per-group fallback."""
    if isinstance(sampler, RejectionNodeSampler):
        return _REJECTION
    if isinstance(sampler, AliasNodeSampler):
        return _ALIAS
    kind = getattr(sampler, "kind", None)
    if kind is not None and int(kind) == SamplerKind.NAIVE:
        return _NAIVE
    return _FALLBACK


class BatchWalkEngine:
    """Vectorised second-order walk engine over an optimizer assignment.

    Parameters
    ----------
    graph, model:
        The substrate graph and second-order model.
    samplers:
        A framework's :class:`~repro.framework.SamplerSet` (e.g.
        ``framework.walk_engine.samplers``), whose kind column and table
        arenas the engine reads as they are, or a hand-assembled per-node
        :class:`~repro.framework.NodeSampler` array.  ``None`` runs every
        node on the on-demand naive path — the original "batched-naive"
        engine, an O(1)-memory point in the paper's design space.
    max_rejection_rounds:
        Safety valve for the vectorised rejection loop.
    backend:
        Kernel backend running the step-centric array math: a registry
        name (``"numpy"``, ``"numba"``), a resolved
        :class:`~repro.walks.kernels.KernelBackend`, or ``None`` for the
        ``REPRO_KERNEL_BACKEND`` environment override / numpy default.
        Backends consume the identical pre-drawn uniform stream, so the
        choice never changes the corpus.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: SecondOrderModel,
        samplers: Sequence[NodeSampler | None] | None = None,
        *,
        max_rejection_rounds: int = 10_000,
        backend: "KernelBackend | str | None" = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.backend = resolve_backend(backend)
        self.max_rejection_rounds = int(max_rejection_rounds)
        self._n = graph.num_nodes

        if isinstance(samplers, SamplerSet):
            self.samplers: Sequence[NodeSampler | None] | None = samplers
            self._kind_of = self._set_buckets(samplers)
        else:
            self.samplers = list(samplers) if samplers is not None else None
            self._kind_of = self._list_buckets(self.samplers)
        self._global_bound = model.max_ratio_bound(graph)
        self._rejection_arena, self._rejection_base = self._arena_of(_REJECTION)
        self._alias_arena, self._alias_base = self._arena_of(_ALIAS)
        if (
            self._rejection_arena is not None
            and self._global_bound is None
            and self._rejection_arena.factors is None
        ):
            raise WalkError(
                "rejection samplers hold no acceptance factors, and the "
                "model has no closed-form ratio bound"
            )
        self._reverse: np.ndarray | None = None
        if self._alias_arena is not None or (
            self._rejection_arena is not None and self._global_bound is None
        ):
            # Table and factor addressing by the carried hop (see
            # _return_edges) reads the graph's reverse-edge index: build
            # it with the engine.
            self._reverse = graph.reverse_edges()
        # (B', r_ret / B' - 1) where the return edge folds out of the
        # rejection envelope (see _return_split), else None.
        self._fold: tuple[float, float] | None = None
        outlier = model.return_outlier(graph)
        if self._global_bound is not None and outlier is not None:
            envelope, r_return = outlier
            if r_return > envelope:
                self._fold = (envelope, r_return / envelope - 1.0)
        # The model's lower ratio bound, and q = min(1, r_min / B): every
        # proposal under the envelope B is accepted with probability at
        # least q, so a walker takes its (S + 1)-th proposal unchecked,
        # S ~ Geometric(q) (see _e2e_rejection).  q = 0 checks them all.
        self._min_ratio = model.min_ratio_bound(graph)
        self._pre_accept = 0.0
        if self._global_bound is not None and self._min_ratio is not None:
            envelope = self._fold[0] if self._fold is not None else self._global_bound
            # The product with the acceptance factor itself, so q is at
            # most every proposal's rounded min(1, r * factor).
            self._pre_accept = max(0.0, min(1.0, self._min_ratio * (1.0 / envelope)))
        # log(1 - q): the skip count's inversion divides by it.
        self._log_checked = (
            math.log1p(-self._pre_accept) if self._pre_accept < 1.0 else -math.inf
        )
        # The run's last measured acceptance per proposal, which sizes
        # the rejection rounds (see _e2e_rejection); 1 until a step of the
        # run has checked a proposal.
        self._accept_estimate = 1.0
        self._dispatch_groups = {name: 0 for name in _KIND_NAMES.values()}
        self._dispatch_walkers = {name: 0 for name in _KIND_NAMES.values()}
        self._steps = 0

    def _set_buckets(self, samplers: SamplerSet) -> np.ndarray:
        """Dispatch bucket per node of a framework's sampler set, from its
        kind column: no sampler is made.  Only user samplers
        (``extra_samplers``) are looked at one by one."""
        if len(samplers) != self._n:
            raise WalkError(f"{len(samplers)} samplers for {self._n} nodes")
        columns = samplers.columns
        kind_of = np.full(self._n, _FALLBACK, dtype=np.int8)
        for kind, bucket in _KIND_BUCKETS.items():
            kind_of[columns == kind] = bucket
        kind_of[self.graph.degrees == 0] = _NAIVE
        for v, sampler in samplers.extra.items():
            kind_of[v] = _bucket_of(sampler)
        return kind_of

    def _list_buckets(
        self, samplers: Sequence[NodeSampler | None] | None
    ) -> np.ndarray:
        """Dispatch bucket per node of a hand-assembled sampler list (all
        naive without one)."""
        kind_of = np.full(self._n, _NAIVE, dtype=np.int8)
        if samplers is None:
            return kind_of
        if len(samplers) != self._n:
            raise WalkError(f"{len(samplers)} samplers for {self._n} nodes")
        for v, sampler in enumerate(samplers):
            if sampler is not None:
                kind_of[v] = _bucket_of(sampler)
            elif self.graph.degree(v) > 0:
                raise WalkError(f"node {v} has neighbours but no sampler")
        return kind_of

    def _arena_of(
        self, bucket: int
    ) -> tuple[TableArena | None, np.ndarray | None]:
        """The table arena of the ``bucket`` samplers, and ``base``: node
        ``v``'s first slot in it at ``base[v]`` (-1 for other nodes).

        Over a framework's :class:`SamplerSet` the engine takes the set's
        arena and offsets of the bucket's kind as they are, so it holds no
        table bytes of its own.  Samplers of a hand-assembled list built
        together share one arena too; only a list whose samplers come from
        several arenas is copied into a joint one (see
        :func:`~repro.framework.node_samplers.joint_arena`).  Addressing,
        with ``d = degree(v)``:

        * alias: the n2e table at ``base[v]``, and the e2e table of walks
          arriving from the ``i``-th neighbour at ``base[v] + (i + 1) · d``
          (``i`` comes from the walker's carried hop, see
          :meth:`_arrival_offsets`);
        * rejection: the n2e proposal table at ``base[v]``, and the
          acceptance factor of arrivals from the ``i``-th neighbour at
          ``base[v] + i``.
        """
        nodes = np.flatnonzero(self._kind_of == bucket)
        if self.samplers is None or nodes.size == 0:
            return None, None
        kind = _BUCKET_KINDS[bucket]
        if isinstance(self.samplers, SamplerSet) and np.all(
            self.samplers.columns[nodes] == kind
        ):
            return self.samplers.arenas[kind], self.samplers.bases[kind]
        arena, offsets = joint_arena([self.samplers[v] for v in nodes.tolist()])
        base = np.full(self._n, -1, dtype=np.int64)
        base[nodes] = offsets
        return arena, base

    def table_arenas(self) -> dict[str, TableArena]:
        """The table arenas the engine walks, by sampler kind."""
        arenas = {
            "rejection": self._rejection_arena,
            "alias": self._alias_arena,
        }
        return {name: arena for name, arena in arenas.items() if arena is not None}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def walks(
        self,
        *,
        starts: np.ndarray | list[int] | None = None,
        num_walks: int = 1,
        length: int = 10,
        rng: RngLike = None,
    ) -> WalkCorpus:
        """``num_walks`` walks per start node (default: every non-isolated
        node), in start-major order.  Returns a :class:`WalkCorpus` with
        engine counters on ``corpus.metadata``."""
        if num_walks < 1:
            raise WalkError("num_walks must be >= 1")
        if length < 0:
            raise WalkError("length must be non-negative")
        gen = ensure_rng(rng)
        if starts is None:
            starts = np.flatnonzero(self.graph.degrees > 0)
        starts = np.asarray(starts, dtype=np.int64)
        if len(starts) and (
            starts.min() < 0 or starts.max() >= self._n
        ):
            raise WalkError("start node out of range")
        walkers = np.repeat(starts, num_walks)
        trails = self._run(walkers, length, gen)
        corpus = WalkCorpus(walks=split_trails(trails))
        corpus.metadata.update(self.stats())
        return corpus

    def walk_chunk(
        self,
        nodes: Sequence[int],
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
    ) -> list[np.ndarray]:
        """Chunk entry point for :func:`repro.walks.run_chunked_walks`:
        walks in start-major order, one list entry per walk."""
        gen = ensure_rng(rng)
        walkers = np.repeat(np.asarray(nodes, dtype=np.int64), num_walks)
        trails = self._run(walkers, length, gen)
        return split_trails(trails)

    def stats(self) -> dict:
        """Engine tag, kernel backend and :meth:`counters` (observability
        hooks)."""
        return {"engine": "batch", "backend": self.backend.name, **self.counters()}

    def counters(self) -> dict:
        """Summable event counts only (the cross-worker merge payload).

        ``dispatch`` counts served groups/walkers per sampler kind across
        all e2e steps (the naive path counts distinct edge states, the
        rejection/alias arena paths distinct current nodes).  Every
        value is a monotonically increasing integer, so per-chunk deltas
        merge associatively across worker processes (see
        :mod:`repro.walks.metrics`).
        """
        return {
            "steps": int(self._steps),
            "dispatch": {
                name: {
                    "groups": int(self._dispatch_groups[name]),
                    "walkers": int(self._dispatch_walkers[name]),
                }
                for name in _KIND_NAMES.values()
            },
        }

    def describe(self) -> str:
        """One-line dispatch summary (``graph.stats`` style)."""
        parts = [
            f"{name}={self._dispatch_walkers[name]}w/{self._dispatch_groups[name]}g"
            for name in _KIND_NAMES.values()
            if self._dispatch_groups[name]
        ]
        return f"batch engine: steps={self._steps}, " + (
            ", ".join(parts) if parts else "idle"
        )

    # ------------------------------------------------------------------
    # core stepping
    # ------------------------------------------------------------------
    def _run(
        self, walkers: np.ndarray, length: int, gen: np.random.Generator
    ) -> np.ndarray:
        n_walkers = len(walkers)
        trails = np.full((n_walkers, length + 1), -1, dtype=np.int64)
        trails[:, 0] = walkers
        if n_walkers == 0 or length == 0:
            return trails

        # Each run starts from the same rejection estimate, so a chunk's
        # corpus never depends on the chunks walked before it.
        self._accept_estimate = 1.0
        degrees = self.graph.degrees.astype(np.int64, copy=False)
        active = degrees[walkers] > 0
        current = walkers.copy()
        previous = np.full(n_walkers, -1, dtype=np.int64)
        # Flat CSR index of each walker's last hop previous -> current, or
        # -1 where a fallback sampler (which returns node ids) took it.
        edge = np.full(n_walkers, -1, dtype=np.int64)

        for t in range(1, length + 1):
            idx = np.flatnonzero(active).astype(np.int64, copy=False)
            if len(idx) == 0:
                break
            self._steps += 1
            if t == 1:
                self._step_n2e(idx, current, edge, trails, gen)
            else:
                self._step_e2e(idx, previous, current, edge, trails, t, gen)
            self.backend.advance_frontier(
                idx, trails[:, t], previous, current, active, degrees
            )
        return trails

    def _step_n2e(
        self,
        idx: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        gen: np.random.Generator,
    ) -> None:
        """First hop: n2e distributions, grouped by current node."""
        kinds = self._kind_of[current[idx]]
        for bucket in (_NAIVE, _REJECTION, _ALIAS, _FALLBACK):
            sub = idx[kinds == bucket]
            if len(sub) == 0:
                continue
            if bucket == _NAIVE:
                self._n2e_naive(sub, current, edge, trails, gen)
            elif bucket == _FALLBACK:
                self._n2e_fallback(sub, current, edge, trails, gen)
            else:
                # Rejection and alias nodes both hold an n2e alias table.
                self._n2e_alias(sub, current, edge, trails, gen, bucket)

    def _step_e2e(
        self,
        idx: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        """Later hops: e2e distributions, grouped by (previous, current)."""
        kinds = self._kind_of[current[idx]]
        for bucket in (_NAIVE, _REJECTION, _ALIAS, _FALLBACK):
            sub = idx[kinds == bucket]
            if len(sub) == 0:
                continue
            if bucket == _NAIVE:
                self._e2e_naive(sub, previous, current, edge, trails, t, gen)
            elif bucket == _REJECTION:
                self._e2e_rejection(sub, previous, current, edge, trails, t, gen)
            elif bucket == _ALIAS:
                self._e2e_alias(sub, previous, current, edge, trails, t, gen)
            else:
                self._e2e_fallback(sub, previous, current, edge, trails, t, gen)

    # ------------------------------------------------------------------
    # naive path: segmented inverse-CDF over on-demand distributions
    # ------------------------------------------------------------------
    def _n2e_naive(
        self,
        sub: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        gen: np.random.Generator,
    ) -> None:
        kb = self.backend
        vs, group = kb.regroup_pairs(current[sub])
        indptr = self.graph.indptr
        starts = indptr[vs].astype(np.int64, copy=False)
        sizes = (indptr[vs + 1] - starts).astype(np.int64)
        # n2e weights live in the graph itself: one segmented gather.
        flat = kb.gather_segments(starts, sizes, self.graph.weights)
        with kernel_scope("segmented_inverse_cdf"):
            uniforms = gen.random(len(sub))
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        self._take_hops(sub, starts[group] + picks, edge, trails, 1)
        self._count("naive", len(vs), len(sub))

    def _e2e_naive(
        self,
        sub: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        kb = self.backend
        keys = previous[sub] * self._n + current[sub]
        uk, group = kb.regroup_pairs(keys)
        us = uk // self._n
        vs = uk % self._n
        indptr = self.graph.indptr
        sizes = (indptr[vs + 1] - indptr[vs]).astype(np.int64)
        flat, _ = self.model.biased_weights_many(self.graph, us, vs)
        with kernel_scope("segmented_inverse_cdf"):
            uniforms = gen.random(len(sub))
        picks, bad = kb.segmented_inverse_cdf(flat, sizes, group, uniforms)
        if bad >= 0:
            raise WalkError(
                f"distribution at node {int(vs[bad])} has zero total mass"
            )
        self._take_hops(sub, indptr[vs][group] + picks, edge, trails, t)
        self._count("naive", len(uk), len(sub))

    def _e2e_rejection(
        self,
        sub: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        kb = self.backend
        u_arr = previous[sub]
        v_arr = current[sub]
        arena = self._rejection_arena
        base_all = self._rejection_base[v_arr]
        d_all = self.graph.degrees[v_arr].astype(np.int64, copy=False)
        starts_all = self.graph.indptr[v_arr]
        factors = self._acceptance_factors(u_arr, v_arr, edge[sub])
        split = self._return_split(u_arr, v_arr, edge[sub])

        k0 = len(sub)
        q = self._pre_accept
        # A walker's reach: its proposals up to and including the
        # (S + 1)-th, which it takes unchecked; S ~ Geometric(q), the
        # failures before the first success, by inversion.  At q = 0 every
        # proposal is checked and no skip is drawn.
        if q > 0.0:
            with kernel_scope("rejection_skips"):
                u_skip = gen.random(k0)
            reach = np.floor(np.log1p(-u_skip) / self._log_checked) + 1.0
        else:
            reach = np.full(k0, np.inf)
        # A round's entry budget: twice the proposals the walkers are
        # expected to need, ``1 / p`` each at the run's last measured
        # acceptance ``p`` (``p = 1``, so ``2 k0``, at q = 0).
        budget = 2 * k0 if q == 0.0 else 2.0 * k0 / self._accept_estimate
        result = np.empty(k0, dtype=np.int64)
        pending = np.arange(k0)
        checked = accepted_checks = 0
        # Each round gives every pending walker its whole remaining reach
        # when the reaches fit the budget, else ``min(reach, m)`` proposals
        # with ``m = ceil(budget / k)`` (``k`` pending; ``ceil(2 k0 / k)``
        # at q = 0), so it holds at most ``budget + k`` entries.  A walker
        # checks its first S proposals against ``min(1, r f)`` with accept
        # uniforms ``q + (1 - q) U``, takes its (S + 1)-th unchecked, and
        # keeps the first it accepts: the sequential sampler's law,
        # whatever the other walkers draw (see docs/performance.md,
        # "Rejection rounds").  The round *loop* is a driver concern (its
        # trip count is data-dependent); each round's array work is one
        # proposal kernel plus one acceptance kernel over the flat
        # walker-major rows.
        for _ in range(self.max_rejection_rounds):
            k = len(pending)
            if k == 0:
                break
            left = reach[pending]
            counts = left if left.sum() <= budget else np.minimum(left, -(-budget // k))
            counts = counts.astype(np.int64)
            rows = np.repeat(pending, counts)
            n = len(rows)
            with kernel_scope("flat_alias_pick"):
                u_column = gen.random(n)
                u_keep = gen.random(n)
            if split is not None:
                # The column uniform first chooses between the n2e table
                # (below the walker's share) and its return edge, then is
                # rescaled to a column uniform of the table.
                share, back = split[0][rows], split[1][rows]
                outlier = u_column >= share
                u_column = u_column / share
            picks = kb.flat_alias_pick(
                arena.prob,
                arena.alias,
                base_all[rows],
                d_all[rows],
                u_column,
                u_keep,
            )
            hops = starts_all[rows] + picks
            if split is not None:
                hops[outlier] = back[outlier]
            # Rows that reach the walker's (S + 1)-th proposal end in it:
            # pre-accepted, no ratio call.
            ends = np.cumsum(counts) - 1
            accepted = np.ones(n, dtype=bool)
            check = np.ones(n, dtype=bool)
            check[ends[counts == left]] = False
            crows = rows[check]
            chops = hops[check]
            ratios = self.model.target_ratio_bulk(
                self.graph,
                u_arr[crows],
                v_arr[crows],
                self.graph.indices[chops],
                hops=chops,
            )
            if self._min_ratio is not None and ratios.size and (
                ratios.min() < self._min_ratio
            ):
                raise SamplerError(
                    f"a ratio of {float(ratios.min())} is below the model's "
                    f"min_ratio_bound {self._min_ratio}"
                )
            with kernel_scope("acceptance_mask"):
                u_accept = gen.random(len(crows))
            u_accept = q + (1.0 - q) * u_accept
            mask = kb.acceptance_mask(ratios, factors[crows], u_accept)
            accepted[check] = mask
            checked += len(mask)
            accepted_checks += int(np.count_nonzero(mask))
            # Each walker's first accepted row (rows are walker-major).
            hit = np.flatnonzero(accepted)
            owner = np.repeat(np.arange(k), counts)[hit]
            first = np.ones(len(hit), dtype=bool)
            first[1:] = owner[1:] != owner[:-1]
            done = np.zeros(k, dtype=bool)
            done[owner[first]] = True
            result[pending[done]] = hops[hit[first]]
            reach[pending] -= counts
            pending = pending[~done]
        if pending.size:
            raise SamplerError(
                f"batch rejection exceeded {self.max_rejection_rounds} rounds"
            )
        if checked:
            # P(accept) = q + (1 - q) P(accept | checked).
            self._accept_estimate = q + (1.0 - q) * accepted_checks / checked
        self._take_hops(sub, result, edge, trails, t)
        self._count("rejection", self._distinct_nodes(v_arr), len(sub))

    def _acceptance_factors(
        self, u_arr: np.ndarray, v_arr: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """``1 / max_t r_uvt`` per walker: the model's closed-form bound
        when it has one (``B'`` where the return edge folds out, see
        :meth:`_return_split`), else the rejection arena's per-edge factors,
        addressed by the previous node's position in ``N(v)`` (see
        :meth:`_arrival_offsets`).  Arrivals from outside ``N(v)``
        (directed graphs only) ask the sampler, once per distinct edge
        state."""
        if self._fold is not None:
            return np.full(len(u_arr), 1.0 / self._fold[0])
        if self._global_bound is not None:
            return np.full(len(u_arr), 1.0 / self._global_bound)
        offsets, found = self._arrival_offsets(u_arr, v_arr, edges)
        factors = np.empty(len(u_arr), dtype=np.float64)
        positions = self._rejection_base[v_arr[found]] + offsets[found]
        factors[found] = self._rejection_arena.factors[positions]
        if not found.all():
            outside = ~found
            keys = u_arr[outside] * self._n + v_arr[outside]
            uk, group = np.unique(keys, return_inverse=True)
            per_state = np.array(
                [
                    self.samplers[int(k % self._n)].acceptance_factor(
                        int(k // self._n)
                    )
                    for k in uk
                ],
                dtype=np.float64,
            )
            factors[outside] = per_state[group]
        return factors

    def _arrival_offsets(
        self, u_arr: np.ndarray, v_arr: np.ndarray, edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Position of each walker's previous node ``u`` in ``N(v)``, plus
        a found mask: ``found`` is false where ``v -> u`` is not stored
        (one-way edges of a directed graph)."""
        back = self._return_edges(u_arr, v_arr, edges)
        return back - self.graph.indptr[v_arr], back >= 0

    def _return_edges(
        self, u_arr: np.ndarray, v_arr: np.ndarray, edges: np.ndarray
    ) -> np.ndarray:
        """Flat CSR index of each walker's return edge ``v -> u``, or -1
        where it is not stored.  With the reverse-edge index it is the
        reverse of the carried hop ``u -> v`` — one gather, no search —
        and only hops a fallback sampler took (``edge = -1``) are looked
        up with :meth:`CSRGraph.edge_ids`; without it, every walker is
        looked up in that one call."""
        if self._reverse is None:
            return self.graph.edge_ids(v_arr, u_arr)
        back = self._reverse[edges]
        unknown = np.flatnonzero(edges < 0)
        if unknown.size:
            back[unknown] = self.graph.edge_ids(v_arr[unknown], u_arr[unknown])
        return back

    def _return_split(
        self, u_arr: np.ndarray, v_arr: np.ndarray, edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per walker, the share of its n2e table in the folded proposal,
        and its return edge ``v -> u`` (see :meth:`_return_edges`);
        ``None`` where the model's return candidate is no outlier.

        The n2e table proposes ``z`` with mass ``w_vz``, accepted with
        ``min(1, r_uvz / B')``, and the return edge has the excess
        ``e = w_vu · (r_ret / B' - 1)`` on top, accepted always: so ``z``
        is taken with mass ``∝ w_vz · r_uvz``, the e2e law.  The share is
        ``W_v / (W_v + e)``; it is exactly 1 where ``v -> u`` is not
        stored, so those walkers draw as without the fold.
        """
        if self._fold is None:
            return None
        back = self._return_edges(u_arr, v_arr, edges)
        stored = back >= 0
        excess = np.zeros(len(back), dtype=np.float64)
        excess[stored] = self.graph.weights[back[stored]] * self._fold[1]
        total = self.graph.weight_sums[v_arr]
        return total / (total + excess), back

    # ------------------------------------------------------------------
    # alias path: gathered pre-built tables, two uniforms per walker
    # ------------------------------------------------------------------
    def _e2e_alias(
        self,
        sub: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        kb = self.backend
        u_arr = previous[sub]
        v_arr = current[sub]
        total = len(sub)
        groups = self._distinct_nodes(v_arr)
        # Position of the previous node within N(v) addresses its e2e
        # table in the arena; out-of-neighbourhood arrivals (possible on
        # directed traces) take the on-demand per-state path below.
        offsets, found = self._arrival_offsets(u_arr, v_arr, edge[sub])
        extra = None
        if not found.all():
            extra = sub[~found]
            sub = sub[found]
            v_arr = v_arr[found]
            offsets = offsets[found]
        if len(sub):
            d = self.graph.degrees[v_arr].astype(np.int64, copy=False)
            base = self._alias_base[v_arr] + (offsets + 1) * d
            with kernel_scope("flat_alias_pick"):
                u_column = gen.random(len(sub))
                u_keep = gen.random(len(sub))
            picks = kb.flat_alias_pick(
                self._alias_arena.prob,
                self._alias_arena.alias,
                base,
                d,
                u_column,
                u_keep,
            )
            self._take_hops(sub, self.graph.indptr[v_arr] + picks, edge, trails, t)
        if extra is not None:
            self._e2e_alias_extra(extra, previous, current, edge, trails, t, gen)
        self._count("alias", groups, total)

    def _e2e_alias_extra(
        self,
        sub: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        """Arrivals from outside ``N(v)``: gather the samplers' on-demand
        ``table_for`` tables per distinct edge state (rare, directed-only)."""
        kb = self.backend
        keys = previous[sub] * self._n + current[sub]
        uk, group = kb.regroup_pairs(keys)
        us = uk // self._n
        vs = uk % self._n
        prob_flat, alias_flat, starts_flat, sizes = self._gather_tables(
            [
                self.samplers[int(v)].table_for(int(u))
                for u, v in zip(us, vs)
            ]
        )
        with kernel_scope("gathered_alias_pick"):
            u_column = gen.random(len(sub))
            u_keep = gen.random(len(sub))
        picks = kb.gathered_alias_pick(
            prob_flat, alias_flat, starts_flat, sizes, group, u_column, u_keep
        )
        self._take_hops(sub, self.graph.indptr[vs][group] + picks, edge, trails, t)

    def _n2e_alias(
        self,
        sub: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        gen: np.random.Generator,
        bucket: int,
    ) -> None:
        kb = self.backend
        v_arr = current[sub]
        arena, base = (
            (self._rejection_arena, self._rejection_base)
            if bucket == _REJECTION
            else (self._alias_arena, self._alias_base)
        )
        with kernel_scope("flat_alias_pick"):
            u_column = gen.random(len(sub))
            u_keep = gen.random(len(sub))
        picks = kb.flat_alias_pick(
            arena.prob,
            arena.alias,
            base[v_arr],
            self.graph.degrees[v_arr].astype(np.int64, copy=False),
            u_column,
            u_keep,
        )
        self._take_hops(sub, self.graph.indptr[v_arr] + picks, edge, trails, 1)
        self._count(_KIND_NAMES[bucket], self._distinct_nodes(v_arr), len(sub))

    @staticmethod
    def _gather_tables(
        tables: "Sequence[AliasTable]",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate alias tables into flat prob/alias arrays."""
        sizes = np.array([t.num_outcomes for t in tables], dtype=np.int64)
        prob_flat = (
            np.concatenate([t.probability_table for t in tables])
            if tables
            else np.empty(0, dtype=TABLE_FLOAT)
        )
        alias_flat = (
            np.concatenate([t.alias_table for t in tables])
            if tables
            else np.empty(0, dtype=TABLE_INT)
        )
        starts_flat = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return prob_flat, alias_flat, starts_flat, sizes

    def _take_hops(
        self,
        sub: np.ndarray,
        hops: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
    ) -> None:
        """Move walkers ``sub`` along the stored edges ``hops`` (flat CSR
        indices): the edge is carried to the next step, its target node
        is the trail's column ``t``."""
        edge[sub] = hops
        trails[sub, t] = self.graph.indices[hops]

    def _distinct_nodes(self, nodes: np.ndarray) -> int:
        """Distinct-node count by scatter mask — ``O(k + |V|)``, no sort
        (counter bookkeeping must stay off the hot path's critical cost)."""
        mask = np.zeros(self._n, dtype=bool)
        mask[nodes] = True
        return int(np.count_nonzero(mask))

    # ------------------------------------------------------------------
    # fallback path: per-group NodeSampler batch API
    # ------------------------------------------------------------------
    def _n2e_fallback(
        self,
        sub: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        gen: np.random.Generator,
    ) -> None:
        edge[sub] = -1  # the samplers return node ids, not edges
        order = sub[np.argsort(current[sub], kind="stable")]
        vs, bounds = np.unique(current[order], return_index=True)
        bounds = np.append(bounds, len(order))
        for i, v in enumerate(vs):
            members = order[bounds[i] : bounds[i + 1]]
            trails[members, 1] = self.samplers[int(v)].sample_first_batch(
                len(members), gen
            )
        self._count("fallback", len(vs), len(sub))

    def _e2e_fallback(
        self,
        sub: np.ndarray,
        previous: np.ndarray,
        current: np.ndarray,
        edge: np.ndarray,
        trails: np.ndarray,
        t: int,
        gen: np.random.Generator,
    ) -> None:
        edge[sub] = -1  # the samplers return node ids, not edges
        keys = previous[sub] * self._n + current[sub]
        order = sub[np.argsort(keys, kind="stable")]
        sorted_keys = previous[order] * self._n + current[order]
        uk, bounds = np.unique(sorted_keys, return_index=True)
        bounds = np.append(bounds, len(order))
        for i, key in enumerate(uk):
            members = order[bounds[i] : bounds[i + 1]]
            u = int(key // self._n)
            v = int(key % self._n)
            trails[members, t] = self.samplers[v].sample_batch(
                u, len(members), gen
            )
        self._count("fallback", len(uk), len(sub))

    def _count(self, name: str, groups: int, walkers: int) -> None:
        self._dispatch_groups[name] += groups
        self._dispatch_walkers[name] += walkers


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def batch_walks(
    graph: CSRGraph,
    model: SecondOrderModel,
    *,
    starts: np.ndarray | list[int] | None = None,
    num_walks: int = 1,
    length: int = 10,
    rng: RngLike = None,
    samplers: Sequence[NodeSampler | None] | None = None,
    backend: "KernelBackend | str | None" = None,
) -> WalkCorpus:
    """Generate walks for all start nodes with edge-state batching.

    Without ``samplers`` this is the batched-*naive* engine (O(1)
    persistent memory, distributions rebuilt on demand — vectorised per
    step); passing a framework's sampler array makes it assignment-aware.
    ``backend`` selects the kernel backend (see
    :func:`repro.walks.kernels.resolve_backend`); every backend consumes
    the identical pre-drawn uniform stream, so it never changes the
    corpus.  Returns a :class:`WalkCorpus` in start order (deterministic
    given ``rng``; the stream differs from the scalar engine's but the
    walk distribution is identical).
    """
    engine = BatchWalkEngine(graph, model, samplers, backend=backend)
    return engine.walks(
        starts=starts, num_walks=num_walks, length=length, rng=rng
    )


def batch_second_order_pagerank(
    graph: CSRGraph,
    model: SecondOrderModel,
    query: int,
    *,
    decay: float = 0.85,
    max_length: int = 20,
    num_samples: int | None = None,
    samples_per_node: int = 4,
    rng: RngLike = None,
) -> np.ndarray:
    """Batched Monte-Carlo second-order PageRank (normalised scores).

    Statistically identical to
    :func:`repro.walks.second_order_pagerank`: a walk-with-restart's
    termination time is independent of its trajectory, so we can draw the
    geometric survival lengths up front, run fixed-length batched walks,
    and truncate each trail to its pre-drawn length.  The batching makes
    the paper's ``4|V|``-sample queries practical in pure Python.
    """
    if not 0 <= query < graph.num_nodes:
        raise WalkError(f"query node {query} out of range")
    if not 0.0 <= decay <= 1.0:
        raise WalkError(f"decay must be in [0, 1], got {decay}")
    gen = ensure_rng(rng)
    if num_samples is None:
        num_samples = samples_per_node * graph.num_nodes
    if num_samples < 1:
        raise WalkError("num_samples must be positive")

    # Survival length ~ (#successes before first failure), capped.
    if decay <= 0.0:
        lengths = np.zeros(num_samples, dtype=np.int64)
    elif decay >= 1.0:
        lengths = np.full(num_samples, max_length, dtype=np.int64)
    else:
        lengths = np.minimum(
            gen.geometric(1.0 - decay, size=num_samples) - 1, max_length
        )
    longest = int(lengths.max()) if num_samples else 0

    corpus = batch_walks(
        graph,
        model,
        starts=np.full(num_samples, query, dtype=np.int64),
        num_walks=1,
        length=longest,
        rng=gen,
    )
    scores = np.zeros(graph.num_nodes, dtype=np.float64)
    for walk, limit in zip(corpus, lengths):
        trail = walk[: int(limit) + 1]
        np.add.at(scores, trail, 1.0)
    total = scores.sum()
    if total > 0:
        scores /= total
    return scores


def split_trails(trails: np.ndarray) -> list[np.ndarray]:
    """One walk per row of ``trails``, cut at the row's first ``-1`` (the
    padding after a dead end; a row that starts with ``-1`` is kept
    whole).

    When no walk dead-ends the walks are the rows themselves, as views.
    Otherwise the kept entries are gathered in one pass into a buffer
    without padding, and the walks are views of that buffer, so no
    walk pins the padded matrix.
    """
    padding = trails < 0
    if not padding.any():
        return list(trails)
    width = trails.shape[1]
    stops = padding.argmax(axis=1)
    lengths = np.where(stops > 0, stops, width)
    walks = trails[np.arange(width) < lengths[:, None]]
    ends = np.cumsum(lengths).tolist()
    return [walks[a:b] for a, b in zip([0, *ends[:-1]], ends)]
