"""Per-worker sampler assignment for partitioned walk generation."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..bounding import BoundingConstants, compute_bounding_constants
from ..cost import CostParams, CostTable, SamplerKind, build_cost_table
from ..exceptions import OptimizerError, WalkError
from ..framework import SamplerSet, WalkEngine
from ..graph import CSRGraph
from ..models import SecondOrderModel
from ..optimizer import Assignment, lp_greedy
from ..rng import RngLike, ensure_rng
from ..sampling.alias import check_table_widths
from ..walks.corpus import WalkCorpus
from ..walks.parallel import run_chunked_walks


def hash_partition(num_nodes: int, workers: int) -> np.ndarray:
    """``partition[v] = v mod workers`` — the Pregel default."""
    if workers < 1:
        raise OptimizerError("workers must be >= 1")
    return np.arange(num_nodes, dtype=np.int64) % workers


def degree_balanced_partition(degrees: np.ndarray, workers: int) -> np.ndarray:
    """Greedy bin-packing of nodes by degree so every worker carries a
    similar share of edge endpoints (and thus of sampler memory pressure).

    Sorts nodes by decreasing degree and always assigns to the currently
    lightest worker — the classic LPT heuristic.
    """
    if workers < 1:
        raise OptimizerError("workers must be >= 1")
    degrees = np.asarray(degrees)
    partition = np.empty(len(degrees), dtype=np.int64)
    loads = np.zeros(workers, dtype=np.float64)
    for v in np.argsort(degrees)[::-1]:
        w = int(np.argmin(loads))
        partition[v] = w
        loads[w] += float(degrees[v]) + 1.0
    return partition


def contiguous_partition(degrees: np.ndarray, shards: int) -> np.ndarray:
    """Contiguous node-range partition balancing stored edges per shard.

    Unlike :func:`hash_partition` and :func:`degree_balanced_partition`
    (whose assignments interleave node ids), every shard here owns one
    contiguous node range — the invariant the out-of-core sharded CSR
    layout needs so each shard's ``indptr``/``indices``/``weights`` slices
    are themselves contiguous.  A greedy sweep closes a shard once it has
    accumulated ``total_degree / shards`` edge endpoints, while always
    leaving enough nodes for the remaining shards to be non-empty.
    """
    if shards < 1:
        raise OptimizerError("shards must be >= 1")
    degrees = np.asarray(degrees, dtype=np.int64)
    num_nodes = len(degrees)
    if shards > num_nodes:
        raise OptimizerError(
            f"cannot split {num_nodes} nodes into {shards} contiguous shards"
        )
    # Cut the cumulative endpoint count at S-1 evenly spaced levels, then
    # clamp each cut so every shard keeps at least one node.
    cum = np.cumsum(degrees + 1)
    total = float(cum[-1])
    cuts = [0]
    for s in range(1, shards):
        cut = int(np.searchsorted(cum, total * s / shards, side="left")) + 1
        cut = max(cut, cuts[-1] + 1)
        cut = min(cut, num_nodes - (shards - s))
        cuts.append(cut)
    cuts.append(num_nodes)
    sizes = np.diff(np.asarray(cuts, dtype=np.int64))
    return np.repeat(np.arange(shards, dtype=np.int64), sizes)


def partition_boundaries(partition: np.ndarray) -> np.ndarray:
    """Shard boundaries ``[b_0 .. b_S]`` from a contiguous partition vector.

    ``partition`` must label nodes with shard ids ``0..S-1`` such that each
    shard's nodes form one contiguous ascending range (the shape produced
    by :func:`contiguous_partition`).  Raises :class:`OptimizerError` for
    interleaved partitions such as :func:`hash_partition` output.
    """
    partition = np.asarray(partition, dtype=np.int64)
    num_nodes = len(partition)
    if num_nodes == 0:
        raise OptimizerError("partition is empty")
    if int(partition[0]) != 0 or np.any(np.diff(partition) < 0) or np.any(
        np.diff(partition) > 1
    ):
        raise OptimizerError(
            "partition is not contiguous: shard ids must be ascending with "
            "no gaps (use contiguous_partition for shard layouts)"
        )
    shards = int(partition[-1]) + 1
    boundaries = np.empty(shards + 1, dtype=np.int64)
    boundaries[0] = 0
    boundaries[1:] = np.searchsorted(partition, np.arange(shards), side="right")
    return boundaries


@dataclass(frozen=True)
class WorkerStats:
    """Assignment summary of one worker."""

    worker: int
    num_nodes: int
    budget: float
    used_memory: float
    modeled_time: float
    sampler_counts: dict


class PartitionedFramework:
    """Memory-aware framework with per-worker budgets (simulated cluster).

    Each worker owns a node partition and solves its own MCKP against its
    own budget (the paper's per-worker optimisation claim); the resulting
    samplers are stitched into one walk engine so walks cross partitions
    transparently — matching Pregel-style systems where every worker holds
    the graph structure but sampler state is local.

    Parameters
    ----------
    partition:
        ``partition[v]`` = worker id of node ``v`` (see
        :func:`hash_partition` / :func:`degree_balanced_partition`).
    worker_budgets:
        Memory budget per worker, in modeled bytes.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: SecondOrderModel,
        partition: np.ndarray,
        worker_budgets: list[float] | np.ndarray,
        *,
        cost_params: CostParams | None = None,
        bounding_constants: BoundingConstants | None = None,
        rng: RngLike = None,
    ) -> None:
        partition = np.asarray(partition, dtype=np.int64)
        if len(partition) != graph.num_nodes:
            raise OptimizerError(
                f"partition covers {len(partition)} nodes, graph has "
                f"{graph.num_nodes}"
            )
        workers = int(partition.max()) + 1 if len(partition) else 0
        worker_budgets = list(worker_budgets)
        if len(worker_budgets) != workers:
            raise OptimizerError(
                f"{len(worker_budgets)} budgets for {workers} workers"
            )
        self.graph = graph
        self.model = model
        self.partition = partition
        self.cost_params = cost_params or CostParams()
        check_table_widths(self.cost_params)
        self._rng = ensure_rng(rng)

        if bounding_constants is None:
            bounding_constants = compute_bounding_constants(graph, model)
        self.bounding_constants = bounding_constants
        self.cost_table: CostTable = build_cost_table(
            graph, bounding_constants, self.cost_params
        )

        self.worker_assignments: list[Assignment] = []
        kinds = np.full(graph.num_nodes, -1, dtype=np.int64)
        for worker in range(workers):
            nodes = np.flatnonzero(partition == worker)
            assignment = self._solve_worker(nodes, float(worker_budgets[worker]))
            self.worker_assignments.append(assignment)
            kinds[nodes] = assignment.samplers
        # One build per kind over every worker's nodes: one table arena
        # per kind for the whole cluster.
        self._samplers = SamplerSet.build(graph, model, kinds)
        self._engine = WalkEngine(graph, self._samplers)

    # ------------------------------------------------------------------
    def _solve_worker(self, nodes: np.ndarray, budget: float) -> Assignment:
        """Run the LP greedy on the worker's slice of the cost table."""
        sliced = CostTable(
            time=self.cost_table.time[nodes],
            memory=self.cost_table.memory[nodes],
            params=self.cost_params,
            available=self.cost_table.available[nodes],
        )
        return lp_greedy(sliced, budget, algorithm_name="worker-lp-greedy")

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of partitions (one logical worker each)."""
        return len(self.worker_assignments)

    @property
    def walk_engine(self) -> WalkEngine:
        """Cluster-wide walk engine (walks cross partitions freely)."""
        return self._engine

    def batch_engine(self, *, backend: str | None = None):
        """Assignment-aware :class:`~repro.walks.BatchWalkEngine` over the
        stitched cluster samplers.

        ``backend`` selects the step-kernel backend as in
        :meth:`repro.MemoryAwareFramework.batch_engine`.
        """
        from ..walks.batch import BatchWalkEngine

        return BatchWalkEngine(
            self.graph, self.model, self._samplers, backend=backend
        )

    def worker_stats(self) -> list[WorkerStats]:
        """Per-worker assignment summaries."""
        stats = []
        for worker, assignment in enumerate(self.worker_assignments):
            stats.append(
                WorkerStats(
                    worker=worker,
                    num_nodes=len(assignment),
                    budget=assignment.budget,
                    used_memory=assignment.used_memory,
                    modeled_time=assignment.total_time,
                    sampler_counts=assignment.counts(),
                )
            )
        return stats

    def total_modeled_time(self) -> float:
        """Cluster-wide modeled per-sample cost."""
        return float(sum(a.total_time for a in self.worker_assignments))

    def walk(self, start: int, length: int, rng: RngLike = None) -> np.ndarray:
        """One cross-partition second-order walk."""
        return self._engine.walk(
            start, length, rng if rng is not None else self._rng
        )

    def generate_walks(
        self,
        *,
        num_walks: int,
        length: int,
        workers: int | None = None,
        chunk_size: int = 64,
        rng: RngLike = None,
        fault_plan=None,
        retry=None,
        timeout: float | None = None,
        checkpoint=None,
        on_exhausted: str = "raise",
        engine: str = "scalar",
        backend: str | None = None,
    ) -> WalkCorpus:
        """Cluster-wide corpus generation under the resilience supervisor.

        Chunks are aligned to partition boundaries — a chunk never spans
        two workers, so a chunk failure (or dead letter) maps to exactly
        one simulated worker, mirroring how a Pregel-style system loses a
        task when a worker dies.  ``fault_plan``, ``retry``, ``timeout``,
        ``checkpoint``, and ``on_exhausted`` behave exactly as in
        :func:`repro.walks.parallel_walks`; seeds are drawn one per chunk
        from ``rng`` up-front, so the corpus is deterministic for a fixed
        seed regardless of the process count.  ``engine="batch"`` runs
        chunks through the vectorised assignment-aware engine
        (``backend`` as in :meth:`batch_engine`).
        """
        if num_walks < 1 or length < 0:
            raise WalkError("num_walks must be >= 1 and length >= 0")
        if chunk_size < 1:
            raise WalkError("chunk_size must be >= 1")
        if engine not in ("scalar", "batch"):
            raise WalkError(
                f"unknown engine {engine!r}; choose from ('scalar', 'batch')"
            )
        if backend is not None and engine != "batch":
            raise WalkError("kernel backends apply to engine='batch' only")
        if workers is None:
            workers = min(os.cpu_count() or 1, 16)
        chunks: list[list[int]] = []
        for worker in range(self.num_workers):
            nodes = [
                int(v)
                for v in np.flatnonzero(self.partition == worker)
                if self.graph.degree(int(v)) > 0
            ]
            chunks.extend(
                nodes[i : i + chunk_size]
                for i in range(0, len(nodes), chunk_size)
            )
        base = ensure_rng(rng)
        seeds = [int(base.integers(0, 2**63 - 1)) for _ in chunks]
        walk_engine = (
            self.batch_engine(backend=backend)
            if engine == "batch"
            else self._engine
        )
        return run_chunked_walks(
            walk_engine,
            chunks,
            seeds,
            num_walks=num_walks,
            length=length,
            workers=workers,
            fault_plan=fault_plan,
            retry=retry,
            timeout=timeout,
            checkpoint=checkpoint,
            on_exhausted=on_exhausted,
        )

    def sampler_kind(self, node: int) -> SamplerKind | None:
        """The sampler kind assigned to ``node`` (None for isolated)."""
        if self.graph.degree(node) == 0:
            return None
        return SamplerKind(int(self._samplers.columns[node]))
