"""The benchmark's workloads: inputs made from a seed, set-up, operations
and correctness gates.

All four walk one Barabási–Albert graph (10,000 nodes, attach=5) made
from a fixed generator seed.  The cost of a walk step grows with the
degree of the node it leaves, so the hub degrees set the throughput, and
they move it by up to ±40% between generator seeds: more than a result
may move between two seeds.  The benchmark seed therefore picks what a
user picks on a given graph — start nodes, query nodes and walk streams —
and draws start and query nodes one per degree stratum, so every seed
gets the same degree profile.  Sampler budgets are fractions of the
graph's all-alias modeled bytes.  An *operation* is one call
into a public walk entry point over one block of seeded start nodes; the
blocks are cycled in order, and operation ``k`` always draws from the
same walk seed, so a traced and an untraced run of it produce the same
corpus.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    AutoregressiveModel,
    BoundingConstants,
    CostParams,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
    build_cost_table,
    diagnose_walks,
    generate_walks,
    write_sharded_layout,
)
from repro.graph import barabasi_albert_graph
from repro.walks import WalkCorpus, diff_counters, merge_counters
from repro.walks.kernels import resolve_backend
from tracing import ENGINE_SPAN, Tracer, instrumented, traced_backend

NODES, ATTACH, GRAPH_SEED = 10_000, 5, 0
SMOKE_NODES, SMOKE_BLOCK = 1_500, 250

NUM_SHARDS, MAX_RESIDENT, CHUNK_SIZE = 8, 2, 1024

#: Faithfulness gate: a concentrated corpus from low-degree starts (at or
#: below the median degree), so that many (prev, cur) contexts collect the
#: 100 samples ``diagnose_walks`` needs to compare against the exact law.
GATE_STARTS, GATE_WALKS, GATE_LENGTH = 64, 1_500, 3
GATE_MIN_CONTEXTS, GATE_MAX_NOISE = 300, 4.0

#: Span around one sharded operation; its self time is the supervised
#: runner's (chunking, validation, counter merging), not the scheduler's.
SUPERVISOR_SPAN = "resilience.supervisor"

_STREAMS = {"starts": 1, "gate": 2, "walks": 3}


@dataclass(frozen=True)
class Spec:
    """One workload: which model, budget and walk shape (the reasons are
    in ``BENCHMARK.json`` and the README)."""

    name: str
    model: str                # "node2vec" (a=0.25, b=4) or "autoregressive" (α=0.2)
    budget_frac: float        # of all-alias modeled bytes; 0 = no optimizer
    pool: int                 # start nodes, one per degree stratum (0 = every node)
    block: int                # start nodes per operation
    num_walks: int            # walks per start node
    length: int
    cache_budget: float | None = None  # None = the budget headroom
    sharded: bool = False
    warmup: int = 1           # untimed operations before measuring
    tail_pct: int = 50        # percentile of operation latency reported

    @property
    def min_ops(self) -> int:
        """Timed operations a run makes at least, past ``--seconds`` if
        need be: enough for ten samples beyond ``tail_pct``."""
        return math.ceil(10 / (1 - self.tail_pct / 100))


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "n2v-ample",
            "node2vec", 0.5, pool=0, block=2_500, num_walks=2, length=80,
        ),
        Spec(
            "n2v-tight",
            "node2vec", 0.02, pool=0, block=1_000, num_walks=1, length=80,
        ),
        Spec(
            "n2v-sharded",
            "node2vec", 0.0, pool=5_000, block=1_000, num_walks=1, length=40,
            # One chunk of up to CHUNK_SIZE walkers per operation loads a
            # shard every ~225 hops.  Chunks of 256 loaded one every ~56,
            # and the hashing of those loads made runs twice as noisy.
            sharded=True,
        ),
        Spec(
            "ar-query",
            "autoregressive", 0.02, pool=100, block=1, num_walks=1_000,
            length=20, cache_budget=8e6,
            # The cache holds states of many queries: its hit rate climbs
            # for ~30 queries before it levels off.
            warmup=40,
            # 100 queries: ten of them lie beyond the p90.
            tail_pct=90,
        ),
    )
}


def corpus_sha256(corpus: WalkCorpus) -> str:
    """Order- and length-sensitive digest of a corpus."""
    digest = hashlib.sha256()
    for walk in corpus:
        digest.update(np.int64(len(walk)).tobytes())
        digest.update(np.ascontiguousarray(walk, dtype=np.int64).tobytes())
    return digest.hexdigest()


class Workload:
    """A workload's generated inputs and the system built over them.

    ``scratch`` is a directory the sharded workload writes its layout to.
    """

    def __init__(
        self, spec: Spec, seed: int, scratch: Path, *, smoke: bool = False
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.scratch = scratch
        nodes = SMOKE_NODES if smoke else NODES
        block = min(spec.block, SMOKE_BLOCK) if smoke else spec.block
        self.graph = barabasi_albert_graph(nodes, ATTACH, rng=GRAPH_SEED)
        self.model = (
            Node2VecModel(a=0.25, b=4.0)
            if spec.model == "node2vec"
            else AutoregressiveModel(alpha=0.2)
        )
        eligible = np.flatnonzero(self.graph.degrees > 0)
        pick = self._rng("starts")
        if spec.pool:
            by_degree = eligible[np.argsort(self.graph.degrees[eligible], kind="stable")]
            strata = np.array_split(by_degree, min(spec.pool, len(eligible)))
            pool = pick.permutation([pick.choice(stratum) for stratum in strata])
        else:
            pool = pick.permutation(eligible)
        self.blocks = [pool[i : i + block] for i in range(0, len(pool), block)]
        degrees = self.graph.degrees[eligible]
        self.gate_starts = self._rng("gate").choice(
            eligible[degrees <= np.median(degrees)], size=GATE_STARTS, replace=False
        )
        unit = BoundingConstants(values=np.ones(nodes), exact=False)
        table = build_cost_table(self.graph, unit, CostParams())
        self.all_alias_bytes = float(table.memory[:, int(SamplerKind.ALIAS)].sum())
        self.budget = spec.budget_frac * self.all_alias_bytes
        self.framework: MemoryAwareFramework | None = None
        self.engine = None
        self.layout = None
        self._tracer: Tracer | None = None
        self._traced_engine = None
        self._traced_backend = None
        self._sharded_counts: dict | None = None
        self._counts_base: dict = {}

    def _rng(self, stream: str, *more: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _STREAMS[stream], *more])

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Drop everything set-up built, so the next build starts clean."""
        self.framework = self.engine = self.layout = None
        self._tracer = self._traced_engine = self._traced_backend = None
        self._sharded_counts = None
        gc.collect()

    def setup(self) -> dict[str, float]:
        """Build what the operations need; returns set-up seconds by layer.

        Framework workloads: bounding constants, cost table, optimizer,
        samplers (``MemoryAwareFramework``) and the batch engine.  The
        sharded workload: writing and reopening the shard layout.
        """
        self.release()
        started = time.perf_counter()
        if self.spec.sharded:
            self.layout = write_sharded_layout(
                self.graph, self.scratch / "layout", num_shards=NUM_SHARDS,
                overwrite=True,
            )
            return {"setup_s": time.perf_counter() - started}
        framework = MemoryAwareFramework(self.graph, self.model, self.budget)
        built = time.perf_counter()
        self.engine = framework.batch_engine(cache_budget=self.spec.cache_budget)
        done = time.perf_counter()
        self.framework = framework
        return {
            "setup_s": done - started,
            "bounding.constants_s": framework.timings.bounding_seconds,
            "optimizer.optimize_s": framework.timings.optimize_seconds,
            "framework.sampler_build_s": framework.timings.build_seconds,
            "walks.engine_init_s": done - built,
        }

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def starts(self, k: int) -> np.ndarray:
        return self.blocks[k % len(self.blocks)]

    def run_op(self, k: int, tracer: Tracer | None = None) -> WalkCorpus:
        """Operation ``k``; with a tracer, through the traced kernels and
        class wrappers (same corpus, see :func:`corpus_sha256`)."""
        spec = self.spec
        starts = self.starts(k)
        rng = self._rng("walks", k)
        if tracer is None:
            return self._walk(self.engine, None, starts, spec.num_walks, spec.length, rng)
        self._trace_with(tracer)
        with instrumented(tracer, type(self.model)):
            with tracer.span(SUPERVISOR_SPAN if spec.sharded else ENGINE_SPAN):
                corpus = self._walk(
                    self._traced_engine, self._traced_backend,
                    starts, spec.num_walks, spec.length, rng,
                )
        if spec.sharded:
            counts = {key: corpus.metadata[key] for key in ("steps", "sharded")}
            self._sharded_counts = (
                counts
                if self._sharded_counts is None
                else merge_counters(self._sharded_counts, counts)
            )
        return corpus

    def _trace_with(self, tracer: Tracer) -> None:
        """Timed kernels for ``tracer``, and for the framework workloads a
        second batch engine running them (its own cache, same budget)."""
        if self._tracer is tracer:
            return
        self._tracer = tracer
        self._traced_backend = traced_backend(tracer, resolve_backend("numpy"))
        if not self.spec.sharded:
            self._traced_engine = self.framework.batch_engine(
                cache_budget=self.spec.cache_budget, backend=self._traced_backend
            )

    def _walk(self, engine, backend, starts, num_walks, length, rng) -> WalkCorpus:
        if self.spec.sharded:
            return generate_walks(
                self.layout,
                self.model,
                num_walks=num_walks,
                length=length,
                nodes=[int(v) for v in starts],
                max_resident=MAX_RESIDENT,
                workers=1,
                chunk_size=CHUNK_SIZE,
                rng=rng,
                backend=backend,
            )
        return engine.walks(starts=starts, num_walks=num_walks, length=length, rng=rng)

    def check_op(self, k: int, corpus: WalkCorpus) -> str | None:
        """Why operation ``k``'s corpus is wrong, or ``None``: walk count,
        start nodes, full length (the graph has no sinks), node range."""
        spec = self.spec
        expected = np.repeat(self.starts(k), spec.num_walks)
        if len(corpus) != len(expected) or corpus.failed_chunks:
            return f"{len(corpus)} walks, expected {len(expected)}"
        walks = list(corpus)
        if any(len(walk) != spec.length + 1 for walk in walks):
            return "a walk stopped short"
        trails = np.stack(walks)
        if not np.array_equal(trails[:, 0], expected):
            return "walks do not start at the requested nodes"
        if trails.min() < 0 or trails.max() >= self.graph.num_nodes:
            return "node id out of range"
        return None

    def reset_traced_counters(self) -> None:
        """Count traced operations from here on only."""
        self._sharded_counts = None
        if self._traced_engine is not None:
            self._counts_base = self._traced_engine.counters()

    def traced_counters(self) -> dict:
        """Event counts summed over the traced operations since the last
        :meth:`reset_traced_counters`.

        The traced batch engine runs nothing else, so its own counters
        give the sum; each sharded operation builds a fresh scheduler,
        whose counts come back on the corpus and are summed here.
        """
        if self.spec.sharded:
            return self._sharded_counts or {}
        return diff_counters(self._traced_engine.counters(), self._counts_base)

    # ------------------------------------------------------------------
    # correctness gates (untimed)
    # ------------------------------------------------------------------
    def gates(self) -> dict[str, str | None]:
        """Gate name → failure reason (``None`` when it passes)."""
        results: dict[str, str | None] = {}
        corpus = self._walk(
            self.engine, None, self.gate_starts, GATE_WALKS, GATE_LENGTH,
            self._rng("gate", 1),
        )
        diagnosis = diagnose_walks(self.graph, self.model, corpus)
        results["faithful"] = (
            None
            if diagnosis.contexts_checked >= GATE_MIN_CONTEXTS
            and diagnosis.max_noise_ratio < GATE_MAX_NOISE
            else f"{diagnosis.contexts_checked} contexts, max noise ratio "
            f"{diagnosis.max_noise_ratio:.2f}"
        )
        if self.framework is not None:
            used = self.framework.assignment.used_memory
            results["memory"] = (
                None if used <= self.budget else f"used {used:.0f} B > {self.budget:.0f} B"
            )
        return results

    def assignment_counts(self) -> dict[str, float]:
        """Optimizer outcome: nodes per sampler kind and budget use."""
        if self.framework is None:
            return {}
        assignment = self.framework.assignment
        kinds = np.bincount(assignment.samplers, minlength=len(SamplerKind))
        counts = {
            f"optimizer.nodes_{kind.name.lower()}": float(kinds[int(kind)])
            for kind in SamplerKind
        }
        counts["optimizer.budget_used_frac"] = assignment.used_memory / self.budget
        return counts
