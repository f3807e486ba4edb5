"""Parallel walk generation (paper §5.4) with chunk-level fault tolerance.

The C++ framework parallelises walk generation across nodes with OpenMP
(default parallelism 16).  The Python counterpart forks worker processes
that inherit the fully-built walk engine copy-on-write — no per-worker
sampler reconstruction and no pickling of the (potentially large) alias
tables — and partitions the start nodes across them.

Determinism
-----------
Every chunk's RNG seed is drawn **up-front** from the caller's RNG, one
draw per chunk in chunk order, *before* the sequential-vs-pool decision is
made.  Consequences, which the test suite pins with a corpus hash:

* the worker count never changes the output — workers only decide *where*
  a chunk runs, never which seed it gets;
* a retried chunk regenerates bit-identical walks, so transient faults
  that retry eventually masks leave no statistical fingerprint;
* a checkpoint-resumed run replays saved chunks verbatim and recomputes
  the rest with their original seeds, reproducing the uninterrupted run.

Resilience (``repro.resilience``)
---------------------------------
Dispatch runs under a :class:`~repro.resilience.ChunkSupervisor`: failures
are contained at chunk granularity, retried with exponential backoff, and
— under ``on_exhausted="dead-letter"`` — surfaced on
``WalkCorpus.failed_chunks`` instead of aborting the corpus.  A
``checkpoint`` path persists completed chunks for resumable runs, and a
seeded :class:`~repro.resilience.FaultPlan` can be installed to exercise
every recovery path deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.dsan import (
    ChunkFingerprint,
    DsanChunkResult,
    DsanReport,
    collect_report,
    dsan_enabled,
    make_chunk_rng,
    verify_reports,
)
from ..exceptions import CheckpointError, ChunkFailure, WalkError
from ..framework import WalkEngine
from ..resilience import (
    ChunkSupervisor,
    FaultPlan,
    RetryPolicy,
    WalkCheckpoint,
)
from ..resilience.supervisor import EXHAUSTION_POLICIES, as_retry_policy
from ..rng import RngLike, ensure_rng
from .corpus import WalkCorpus
from .metrics import CounterTree, diff_counters, merge_counters

# Module-level slot the forked children inherit; set immediately before the
# pool is created and cleared after.
_SHARED_ENGINE: WalkEngine | None = None


@dataclass(frozen=True)
class WalkChunkTask:
    """One unit of supervised work: a chunk of start nodes plus its seed."""

    index: int
    nodes: tuple
    num_walks: int
    length: int
    seed: int
    fault_plan: FaultPlan | None = None
    attempt: int = 0
    dsan: bool = False


@dataclass
class WalkChunkResult:
    """Everything one chunk sends back across the process boundary.

    ``fingerprint`` is present when the determinism sanitizer is active;
    ``counters`` is the engine's per-chunk counter *delta* (``None`` for
    engines without counters) — the associatively mergeable payload that
    makes dispatch totals worker-count invariant instead of dying
    with the forked child.
    """

    walks: list
    fingerprint: "ChunkFingerprint | None" = None
    counters: "CounterTree | None" = None


def _unwrap(result: object) -> tuple:
    """Split any worker result into ``(walks, fingerprint, counters)``."""
    if isinstance(result, WalkChunkResult):
        return result.walks, result.fingerprint, result.counters
    if isinstance(result, DsanChunkResult):
        return result.walks, result.fingerprint, None
    return result, None, None


def _walk_chunk(task: WalkChunkTask) -> WalkChunkResult:
    """Worker body: generate walks for one chunk of start nodes.

    Any failure — injected or genuine — crosses the process boundary as a
    :class:`ChunkFailure` carrying the chunk index and start-node range,
    on the pool path *and* the sequential fallback alike.  The walks come
    back in a :class:`WalkChunkResult` carrying the chunk's RNG
    fingerprint (when the sanitizer is active) and the engine's counter
    delta for the chunk.  Chunk-scoped engine state is reset up front
    (``reset_chunk_state``), so both payloads — and a retry's — are pure
    functions of the task.
    """
    engine = _SHARED_ENGINE
    if engine is None:  # pragma: no cover - defensive, fork guarantees it
        raise WalkError("worker has no inherited walk engine")
    try:
        if hasattr(engine, "reset_chunk_state"):
            engine.reset_chunk_state()
        before = engine.counters() if hasattr(engine, "counters") else None
        if task.fault_plan is not None:
            task.fault_plan.before_chunk(task.index, task.attempt)
        rng = make_chunk_rng(task.seed, dsan=task.dsan)
        if task.fault_plan is not None:
            task.fault_plan.perturb_rng(task.index, task.attempt, rng)
        if hasattr(engine, "walk_chunk"):
            # Batch engines advance the whole chunk frontier vectorised;
            # walk_chunk returns start-major order, same as the scalar loop.
            walks = engine.walk_chunk(
                task.nodes,
                num_walks=task.num_walks,
                length=task.length,
                rng=rng,
            )
        else:
            walks = []
            for v in task.nodes:
                for _ in range(task.num_walks):
                    walks.append(engine.walk(v, task.length, rng))
        if task.fault_plan is not None:
            walks = task.fault_plan.after_chunk(task.index, task.attempt, walks)
        counters = (
            diff_counters(engine.counters(), before)
            if before is not None
            else None
        )
        fingerprint = rng.fingerprint(task.index) if task.dsan else None
        return WalkChunkResult(walks, fingerprint, counters)
    except ChunkFailure:
        raise
    except Exception as exc:
        raise ChunkFailure(task.index, task.nodes, task.attempt + 1, exc) from exc


def _chunk_validator(
    num_nodes: int,
) -> "Callable[[WalkChunkTask, object], None]":
    """Supervisor-side result validation: catches corrupt chunk output."""

    def validate(task: WalkChunkTask, result: object) -> None:
        walks, _, _ = _unwrap(result)
        expected = len(task.nodes) * task.num_walks
        if len(walks) != expected:
            raise WalkError(
                f"chunk {task.index}: expected {expected} walks, "
                f"got {len(walks)}"
            )
        for k, walk in enumerate(walks):
            walk = np.asarray(walk)
            if len(walk) == 0 or walk.min() < 0 or walk.max() >= num_nodes:
                raise WalkError(
                    f"chunk {task.index}: corrupt walk {k} "
                    f"(node id out of range)"
                )
            start = task.nodes[k // task.num_walks]
            if int(walk[0]) != int(start):
                raise WalkError(
                    f"chunk {task.index}: walk {k} starts at {int(walk[0])}, "
                    f"expected {start}"
                )

    return validate


def _engine_tag(engine: WalkEngine) -> str:
    """Stable identifier of the engine's RNG-stream contract.

    Engines with their own stream contract (e.g. the bucketed scheduler's
    per-walker streams) declare it via an ``engine_tag`` attribute; plain
    chunk engines are ``"batch"`` and everything else ``"scalar"``.
    """
    tag = getattr(engine, "engine_tag", None)
    if tag:
        return str(tag)
    return "batch" if hasattr(engine, "walk_chunk") else "scalar"


def _engine_layout(engine: WalkEngine) -> str:
    """Shard-layout signature of an out-of-core engine (``""`` otherwise).

    Part of the checkpoint signature: two runs only replay each other's
    chunks if they walk the same graph content in the same shard geometry
    — a resume against a re-sharded or edited layout is refused.
    """
    return str(getattr(engine, "layout_signature", ""))


def _engine_backend(engine: WalkEngine) -> str:
    """Kernel-backend name of a batch engine (``""`` for scalar engines).

    Part of the checkpoint signature: backends are bit-identical *today*,
    but a future backend with its own stream contract must not silently
    resume another backend's checkpoint — refusal is the safe default.
    """
    return str(getattr(getattr(engine, "backend", None), "name", ""))


def run_chunked_walks(
    engine: WalkEngine,
    chunks: list[list[int]],
    seeds: list[int],
    *,
    num_walks: int,
    length: int,
    workers: int,
    fault_plan: FaultPlan | None = None,
    retry: "RetryPolicy | int | None" = None,
    timeout: float | None = None,
    checkpoint: "WalkCheckpoint | str | os.PathLike | None" = None,
    on_exhausted: str = "raise",
    dsan: "bool | None" = None,
    dsan_expected: "DsanReport | None" = None,
) -> WalkCorpus:
    """Supervised execution of pre-chunked walk tasks.

    The chunk/seed pairing is the caller's contract (``seeds[i]`` drives
    ``chunks[i]``); :func:`parallel_walks` derives both from one RNG, and
    :meth:`repro.distributed.PartitionedFramework.generate_walks` aligns
    chunks to partition boundaries.  Results are assembled in chunk order
    regardless of completion order, so the corpus is deterministic.

    ``dsan`` (default: the ``REPRO_DSAN`` environment variable) turns on
    the runtime determinism sanitizer: each chunk's RNG stream is
    fingerprinted and the per-chunk report lands in
    ``corpus.metadata["dsan"]``.  ``dsan_expected`` additionally verifies
    the run against a previous report, raising
    :class:`~repro.exceptions.DeterminismError` on divergence.
    """
    if on_exhausted not in EXHAUSTION_POLICIES:
        raise WalkError(
            f"on_exhausted must be one of {EXHAUSTION_POLICIES}, "
            f"got {on_exhausted!r}"
        )
    if len(chunks) != len(seeds):
        raise WalkError(f"{len(chunks)} chunks but {len(seeds)} seeds")
    policy = as_retry_policy(retry)
    dsan_active = dsan_enabled(dsan)

    tasks = [
        WalkChunkTask(
            index=i,
            nodes=tuple(int(v) for v in chunk),
            num_walks=num_walks,
            length=length,
            seed=int(seed),
            fault_plan=fault_plan,
            dsan=dsan_active,
        )
        for i, (chunk, seed) in enumerate(zip(chunks, seeds))
    ]

    # ------------------------------------------------------------------
    # checkpoint: load completed chunks, persist new ones as they finish
    # ------------------------------------------------------------------
    completed: dict[int, list[np.ndarray]] = {}
    on_success = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, WalkCheckpoint)
            else WalkCheckpoint(checkpoint)
        )
        signature = {
            "num_walks": int(num_walks),
            "length": int(length),
            "num_chunks": len(chunks),
            "num_nodes": int(engine.graph.num_nodes),
            # Scalar and batch engines consume the per-chunk RNG streams
            # differently; refuse to resume a checkpoint across engines —
            # and across kernel backends, whose stream contract is only
            # guaranteed for the backends shipped in-tree.
            "engine": _engine_tag(engine),
            "backend": _engine_backend(engine),
            "layout": _engine_layout(engine),
        }
        for index, (seed, nodes, walks) in store.load(signature).items():
            if index >= len(tasks):
                raise CheckpointError(
                    f"checkpoint chunk {index} out of range "
                    f"({len(tasks)} chunks)"
                )
            task = tasks[index]
            if seed != task.seed or tuple(nodes) != task.nodes:
                raise CheckpointError(
                    f"checkpoint chunk {index} was generated with a "
                    f"different seed or node set; refusing to resume"
                )
            completed[index] = walks
        store.start(signature)

        def on_success(task: WalkChunkTask, result: object) -> None:
            walks, _, _ = _unwrap(result)
            store.append(task.index, task.seed, task.nodes, walks)

    remaining = [task for task in tasks if task.index not in completed]

    supervisor = ChunkSupervisor(
        _walk_chunk,
        policy=policy,
        timeout=timeout,
        validator=_chunk_validator(engine.graph.num_nodes),
        on_exhausted=on_exhausted,
        on_success=on_success,
    )

    sequential = workers <= 1 or len(remaining) <= 1
    if not sequential and "fork" not in multiprocessing.get_all_start_methods():
        sequential = True  # pragma: no cover - non-POSIX platforms

    global _SHARED_ENGINE
    _SHARED_ENGINE = engine
    try:
        if sequential:
            run = supervisor.run_sequential(remaining)
        else:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=workers) as pool:
                run = supervisor.run_pool(pool, remaining)
    finally:
        _SHARED_ENGINE = None

    corpus = WalkCorpus(failed_chunks=list(run.dead_letters))
    fingerprints = []
    merged: "CounterTree | None" = None
    for task in tasks:
        chunk_walks = completed.get(task.index)
        if chunk_walks is None:
            chunk_walks, fingerprint, counters = _unwrap(
                run.results.get(task.index)
            )
            if fingerprint is not None:
                fingerprints.append(fingerprint)
            if counters is not None:
                merged = (
                    counters
                    if merged is None
                    else merge_counters(merged, counters)
                )
        if chunk_walks is None:
            continue  # dead-lettered; recorded on corpus.failed_chunks
        for walk in chunk_walks:
            corpus.add(walk)
    corpus.metadata["engine"] = _engine_tag(engine)
    if _engine_backend(engine):
        corpus.metadata["backend"] = _engine_backend(engine)
    if _engine_layout(engine):
        corpus.metadata["layout"] = _engine_layout(engine)
    corpus.metadata["num_chunks"] = len(chunks)
    corpus.metadata["workers"] = int(workers)
    if dsan_active:
        report = collect_report(
            fingerprints,
            meta={
                "engine": _engine_tag(engine),
                "num_chunks": len(chunks),
                "workers": int(workers),
                "replayed_chunks": sorted(completed),
            },
        )
        corpus.metadata["dsan"] = report.to_dict()
        if dsan_expected is not None:
            verify_reports(
                dsan_expected,
                report,
                detail=f"run with workers={int(workers)}",
            )
    if hasattr(engine, "counters"):
        # Dispatch counters, summed from the per-chunk deltas each
        # worker sent back with its walks — worker-count invariant, unlike
        # reading the parent engine object (forked children's increments
        # never come home).  All-replayed runs report a zero tree.
        if merged is None:
            zero = engine.counters()
            merged = diff_counters(zero, zero)
        corpus.metadata.update(merged)
    elif hasattr(engine, "stats"):
        corpus.metadata.update(engine.stats())
    return corpus


def parallel_walks(
    engine: WalkEngine,
    *,
    num_walks: int,
    length: int,
    workers: int | None = None,
    nodes: Sequence[int] | None = None,
    chunk_size: int = 64,
    rng: RngLike = None,
    fault_plan: FaultPlan | None = None,
    retry: "RetryPolicy | int | None" = None,
    timeout: float | None = None,
    checkpoint: "WalkCheckpoint | str | os.PathLike | None" = None,
    on_exhausted: str = "raise",
    dsan: "bool | None" = None,
    dsan_expected: "DsanReport | None" = None,
) -> WalkCorpus:
    """Generate ``num_walks`` walks per start node across worker processes.

    Parameters
    ----------
    engine:
        A fully built :class:`WalkEngine` (e.g. ``framework.walk_engine``)
        or a :class:`~repro.walks.BatchWalkEngine` (chunks are then
        generated vectorised via its ``walk_chunk`` — same chunk/seed
        contract, so retries and resume stay bit-identical, but the RNG
        stream differs from the scalar engine's).
    workers:
        Process count; defaults to ``os.cpu_count()`` capped at 16 (the
        paper's default parallelism).  ``workers <= 1`` runs inline.
        Worker count never changes the output: one seed per chunk is drawn
        from ``rng`` before dispatch, even when the run falls back to the
        sequential path.
    nodes:
        Start nodes (default: every non-isolated node).  An id outside
        the graph raises :class:`~repro.exceptions.WalkError` before any
        chunk is scheduled.
    chunk_size:
        Start nodes per work unit; determinism is per-(seed, chunk_size).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injected into the
        workers (testing the recovery machinery).
    retry:
        ``None`` (default 3-attempt policy), an attempt count, or a
        :class:`~repro.resilience.RetryPolicy`.
    timeout:
        Per-chunk wall-clock limit in seconds; a late chunk is retried.
    checkpoint:
        Path (or :class:`~repro.resilience.WalkCheckpoint`) persisting
        completed chunks; an interrupted run resumes from it
        bit-identically for the same seed and chunking.
    on_exhausted:
        ``"raise"`` — a chunk that exhausts its retries raises
        :class:`~repro.exceptions.ChunkFailure`; ``"dead-letter"`` — it is
        recorded on ``WalkCorpus.failed_chunks`` and the rest of the
        corpus is still returned.
    dsan:
        Runtime determinism sanitizer switch (default: ``REPRO_DSAN``
        env var).  Fingerprints every chunk's RNG stream into
        ``corpus.metadata["dsan"]`` without changing a single sampled
        value.
    dsan_expected:
        A :class:`~repro.analysis.dsan.DsanReport` from a previous run
        to verify against; divergence raises
        :class:`~repro.exceptions.DeterminismError`.

    Requires a ``fork``-capable platform (Linux/macOS).  Falls back to the
    sequential path when fork is unavailable.
    """
    if num_walks < 1 or length < 0:
        raise WalkError("num_walks must be >= 1 and length >= 0")
    if chunk_size < 1:
        raise WalkError("chunk_size must be >= 1")
    if nodes is None:
        nodes = [
            v for v in range(engine.graph.num_nodes) if engine.graph.degree(v) > 0
        ]
    nodes = [int(v) for v in nodes]
    if nodes and (min(nodes) < 0 or max(nodes) >= engine.graph.num_nodes):
        raise WalkError("start node out of range")
    if workers is None:
        workers = min(os.cpu_count() or 1, 16)

    base = ensure_rng(rng)
    chunks = [nodes[i : i + chunk_size] for i in range(0, len(nodes), chunk_size)]
    # One seed per chunk, drawn in chunk order *before* the dispatch-mode
    # decision: output depends only on (rng, chunk_size), never on workers.
    seeds = [int(base.integers(0, 2**63 - 1)) for _ in chunks]

    return run_chunked_walks(
        engine,
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
        dsan=dsan,
        dsan_expected=dsan_expected,
    )
