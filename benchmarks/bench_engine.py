"""Walk-engine trajectory benchmark: scalar vs batched-naive vs
assignment-aware batch.

Measures corpus generation throughput (walks/second) on power-law graphs
at several scales, for the three engine configurations the repository has
grown through:

1. **scalar** — the per-sample :class:`~repro.framework.WalkEngine` over
   the cost-optimised assignment (Algorithm 1, one interpreter round-trip
   per step per walk);
2. **batched-naive** — :class:`~repro.walks.BatchWalkEngine` with no
   sampler array: every node on the vectorised on-demand path;
3. **assignment-aware batch** — the same engine over the optimizer's
   sampler assignment.

Each scale also records the framework set-up the walks depend on, by
layer: exact bounding constants, the optimizer, and sampler-table
construction (``setup`` in the output, seconds).

The numpy run of the assignment-aware engine also counts its rejection
work (``rejection`` in the output): rounds, the e2e steps that ran at
least one round, proposals checked and proposals accepted.  The counts
come from a :class:`~repro.walks.kernels.KernelBackend` whose
``acceptance_mask`` and ``advance_frontier`` are wrapped: each
``acceptance_mask`` call is one rejection round, and ``advance_frontier``
closes a step.

Each scale records the table memory too (``tables`` in the output,
bytes): ``table_bytes`` is the real size of the framework's table arenas,
and ``engine_own_table_bytes`` the bytes of tables the assignment-aware
engine walks that are not one of those arenas — a copy of its own.  It
must be 0: the engine walks the samplers' buffers.

Methodology: batch engines run the full workload in frontier chunks; the
scalar engine walks start nodes under a wall-clock budget and its rate is
extrapolated from the walks it completed (flagged ``extrapolated`` in the
output — the per-walk cost is constant, so the extrapolation is safe).

The assignment-aware configuration is additionally benchmarked once per
available kernel backend (``numpy`` always; ``numba`` when the soft dep
imports), as ``assignment_aware_batch`` and
``assignment_aware_batch[numba]`` — every backend consumes the identical
pre-drawn uniform stream, so the matrix measures pure kernel speed.

Usage::

    python benchmarks/bench_engine.py                  # full trajectory
    python benchmarks/bench_engine.py --smoke --check  # CI smoke gate, writes no file
    python benchmarks/bench_engine.py --quick --check  # CI, no extrapolation, writes no file
    python benchmarks/bench_engine.py --output BENCH_walks.json

``--check`` exits non-zero if any batch configuration fails to beat the
scalar engine at any scale, if the assignment-aware engine holds table
bytes of its own, or if building the framework and its batch engine made
any per-node sampler view (``sampler_views_at_setup``; the framework
keeps its samplers as arena rows, see
:class:`~repro.framework.SamplerSet`).  ``--quick`` sizes the workload so every
engine finishes inside the budget: no rate is extrapolated, which makes
the numbers directly comparable across CI runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import platform
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import (
    CostParams,
    MemoryAwareFramework,
    Node2VecModel,
    build_cost_table,
    compute_bounding_constants,
)
from repro.cost import SamplerKind
from repro.graph.generators import barabasi_albert_graph
from repro.walks import BatchWalkEngine
from repro.walks.kernels import KernelBackend, resolve_backend

#: starts handed to one walk_chunk call; bounds frontier memory.
BATCH_CHUNK = 4096


def kernel_backends() -> list[str]:
    """Backends to bench: numpy always, numba when importable."""
    backends = ["numpy"]
    if importlib.util.find_spec("numba") is not None:
        backends.append("numba")
    return backends


def numba_version() -> "str | None":
    """Version of the optional numba dep, None when absent."""
    if importlib.util.find_spec("numba") is None:
        return None
    import numba

    return str(numba.__version__)


def counting_backend(base: KernelBackend, counts: Counter) -> KernelBackend:
    """``base`` with its rejection work counted into ``counts``.

    Each ``acceptance_mask`` call is one rejection round and checks one
    proposal per mask entry; ``advance_frontier`` closes a step, which
    counts as a rejection step when at least one round ran in it.
    """
    in_step = [False]

    def acceptance_mask(*args):
        mask = base.acceptance_mask(*args)
        counts["rounds"] += 1
        counts["proposals"] += len(mask)
        counts["accepted"] += int(np.count_nonzero(mask))
        in_step[0] = True
        return mask

    def advance_frontier(*args):
        base.advance_frontier(*args)
        if in_step[0]:
            counts["steps"] += 1
            in_step[0] = False

    return dataclasses.replace(
        base, acceptance_mask=acceptance_mask, advance_frontier=advance_frontier
    )


def rejection_summary(counts: Counter) -> dict:
    """Rounds per rejection step, proposals and acceptance from counts."""
    steps, proposals = counts["steps"], counts["proposals"]
    return {
        "rounds": int(counts["rounds"]),
        "steps": int(steps),
        "rounds_per_step": round(counts["rounds"] / steps, 2) if steps else None,
        "proposals": int(proposals),
        "acceptance": (
            round(counts["accepted"] / proposals, 4) if proposals else None
        ),
    }


def table_memory(framework, engine) -> dict:
    """Real bytes of the framework's table arenas, read from its sampler
    set (no per-node sampler is made), and of the tables ``engine`` walks
    that share no memory with them (its own copy)."""
    arenas = framework.walk_engine.samplers.arenas.values()

    def buffers(arena):
        return [b for b in (arena.prob, arena.alias, arena.factors) if b is not None]

    held = [b for arena in arenas for b in buffers(arena)]
    walked = [b for arena in engine.table_arenas().values() for b in buffers(arena)]
    return {
        "table_bytes": sum(arena.nbytes for arena in arenas),
        "engine_own_table_bytes": sum(
            b.nbytes
            for b in walked
            if not any(np.may_share_memory(b, h) for h in held)
        ),
    }


def build_graph(num_nodes: int, *, attach: int = 5, seed: int = 0):
    """Power-law benchmark substrate (preferential attachment)."""
    return barabasi_albert_graph(num_nodes, attach, rng=seed)


def _measure(chunks, *, time_budget: float) -> tuple[int, float, bool]:
    """Run walk-producing thunks until done or over budget.

    ``chunks`` yields callables returning the number of walks generated.
    Returns (walks completed, elapsed seconds, truncated?).
    """
    done = 0
    truncated = False
    started = time.perf_counter()
    for thunk in chunks:
        done += thunk()
        if time.perf_counter() - started > time_budget:
            truncated = True
            break
    return done, time.perf_counter() - started, truncated


def bench_scalar(framework, starts, num_walks, length, time_budget):
    engine = framework.walk_engine
    rng = np.random.default_rng(1)

    def thunks():
        for v in starts:
            yield lambda v=v: len(
                [engine.walk(int(v), length, rng) for _ in range(num_walks)]
            )

    return _measure(thunks(), time_budget=time_budget)


def bench_batch(engine, starts, num_walks, length, time_budget):
    rng = np.random.default_rng(1)

    def thunks():
        for i in range(0, len(starts), BATCH_CHUNK):
            chunk = starts[i : i + BATCH_CHUNK]
            yield lambda c=chunk: len(
                engine.walk_chunk(
                    c, num_walks=num_walks, length=length, rng=rng
                )
            )

    return _measure(thunks(), time_budget=time_budget)


def run_scale(num_nodes, *, num_walks, length, time_budget, seed=0):
    graph = build_graph(num_nodes, seed=seed)
    model = Node2VecModel(0.25, 4.0)  # the paper's node2vec setting
    starts = np.flatnonzero(graph.degrees > 0)
    total_walks = len(starts) * num_walks

    # Budget: half of the all-alias footprint, so the optimizer must mix
    # sampler kinds — the regime the assignment-aware dispatch targets.
    # Priced off the cost table; nothing is materialised for the sizing.
    started = time.perf_counter()
    constants = compute_bounding_constants(graph, model)
    bounding_s = time.perf_counter() - started
    table = build_cost_table(graph, constants, CostParams())
    budget = 0.5 * float(table.memory[:, int(SamplerKind.ALIAS)].sum())
    framework = MemoryAwareFramework(
        graph, model, budget=budget, bounding_constants=constants, rng=0
    )
    # The framework path makes no per-node sampler: the engine reads the
    # sampler set's kind column and arenas.  Counted before the scalar
    # engine walks, which makes each sampler it reaches.
    framework.batch_engine()
    sampler_views = framework.walk_engine.samplers.views_built
    # Framework set-up by layer (bounding constants are computed above and
    # handed in, so the framework's own bounding timer reads zero).
    setup = {
        "bounding_s": round(bounding_s, 3),
        "optimize_s": round(framework.timings.optimize_seconds, 3),
        "sampler_build_s": round(framework.timings.build_seconds, 3),
    }
    setup["total_s"] = round(sum(setup.values()), 3)

    configs = {}
    done, secs, trunc = bench_scalar(
        framework, starts, num_walks, length, time_budget
    )
    configs["scalar"] = (done, secs, trunc, None)

    naive_engine = BatchWalkEngine(graph, model)
    done, secs, trunc = bench_batch(
        naive_engine, starts, num_walks, length, time_budget
    )
    configs["batched_naive"] = (done, secs, trunc, "numpy")

    rejection_counts: Counter = Counter()
    for backend in kernel_backends():
        resolved = resolve_backend(backend)
        if backend == "numpy":
            resolved = counting_backend(resolved, rejection_counts)
        aware_engine = framework.batch_engine(backend=resolved)
        # One tiny untimed chunk first: a compiled backend JITs (or loads
        # its on-disk cache) on first call, and that cost is setup, not
        # steady-state throughput.
        aware_engine.walk_chunk(
            starts[:8], num_walks=1, length=4, rng=np.random.default_rng(0)
        )
        rejection_counts.clear()
        done, secs, trunc = bench_batch(
            aware_engine, starts, num_walks, length, time_budget
        )
        key = (
            "assignment_aware_batch"
            if backend == "numpy"
            else f"assignment_aware_batch[{backend}]"
        )
        configs[key] = (done, secs, trunc, backend)

    engines = {}
    for name, (done, secs, trunc, backend) in configs.items():
        engines[name] = {
            "walks_per_sec": round(done / secs, 2) if secs > 0 else None,
            "walks_timed": int(done),
            "seconds": round(secs, 3),
            "extrapolated": bool(trunc),
        }
        if backend is not None:
            engines[name]["backend"] = backend
    counts = framework.assignment.counts()
    scalar_rate = engines["scalar"]["walks_per_sec"]
    aware_rate = engines["assignment_aware_batch"]["walks_per_sec"]
    result = {
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "total_walks": int(total_walks),
        "budget_bytes": round(budget, 0),
        "assignment": {str(k): int(v) for k, v in counts.items()},
        "setup": setup,
        "tables": {
            **table_memory(framework, framework.batch_engine()),
            "sampler_views_at_setup": int(sampler_views),
        },
        "engines": engines,
        "rejection": rejection_summary(rejection_counts),
        "speedup_batch_vs_scalar": (
            round(aware_rate / scalar_rate, 2) if scalar_rate else None
        ),
    }
    numba_entry = engines.get("assignment_aware_batch[numba]")
    if numba_entry is not None and aware_rate:
        result["speedup_numba_vs_numpy"] = round(
            numba_entry["walks_per_sec"] / aware_rate, 2
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small single-scale run for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "small single-scale run sized to finish inside the budget: "
            "no engine is truncated, no rate is extrapolated"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every batch config beats scalar",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "result JSON path (default: BENCH_walks.json for the full "
            "run; --quick and --smoke write only when this is given)"
        ),
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="per-engine wall-clock budget in seconds per scale",
    )
    args = parser.parse_args(argv)

    if args.quick:
        # Sized so even the scalar engine completes the workload: every
        # `extrapolated` flag comes out False and runs compare cleanly.
        scales = [1_000]
        num_walks, length = 1, 10
        time_budget = args.time_budget or 600.0
    elif args.smoke:
        scales = [2_000]
        num_walks, length = 2, 20
        time_budget = args.time_budget or 10.0
    else:
        scales = [5_000, 20_000, 50_000]
        num_walks, length = 10, 80  # the paper's node2vec workload
        time_budget = args.time_budget or 45.0

    results = []
    for num_nodes in scales:
        print(f"[bench_engine] scale {num_nodes} nodes ...", flush=True)
        entry = run_scale(
            num_nodes,
            num_walks=num_walks,
            length=length,
            time_budget=time_budget,
        )
        for name, stats in entry["engines"].items():
            print(
                f"  {name:>24}: {stats['walks_per_sec']:>10} walks/s"
                f"{'  (extrapolated)' if stats['extrapolated'] else ''}"
            )
        print(f"  speedup (aware batch / scalar): {entry['speedup_batch_vs_scalar']}")
        rejection = entry["rejection"]
        print(
            f"  rejection: {rejection['rounds_per_step']} rounds/step over "
            f"{rejection['steps']} steps, {rejection['proposals']} proposals, "
            f"acceptance {rejection['acceptance']}"
        )
        setup = entry["setup"]
        print(
            f"  set-up: bounding {setup['bounding_s']} s, optimize "
            f"{setup['optimize_s']} s, sampler build {setup['sampler_build_s']} s"
        )
        tables = entry["tables"]
        print(
            f"  tables: {tables['table_bytes']} bytes in the samplers' arenas, "
            f"{tables['engine_own_table_bytes']} bytes the engine's own, "
            f"{tables['sampler_views_at_setup']} sampler views made at set-up"
        )
        results.append(entry)

    report = {
        "benchmark": "walk-engine-trajectory",
        "mode": "quick" if args.quick else ("smoke" if args.smoke else "full"),
        "workload": {
            "graph": "barabasi-albert power law (attach=5)",
            "model": "node2vec a=0.25 b=4.0",
            "num_walks_per_node": num_walks,
            "length": length,
        },
        "methodology": (
            "walks/sec over start-major corpus generation; engines over "
            "their time budget are truncated and the rate extrapolated "
            "(per-walk cost is constant)"
        ),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba": numba_version(),
            "kernel_backends": kernel_backends(),
        },
        "results": results,
    }
    output = args.output or (
        None if args.quick or args.smoke else "BENCH_walks.json"
    )
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"[bench_engine] wrote {output}")

    if args.check:
        failures = []
        for entry in results:
            scalar = entry["engines"]["scalar"]["walks_per_sec"]
            for name, stats in entry["engines"].items():
                if not name.startswith("assignment_aware_batch"):
                    continue
                rate = stats["walks_per_sec"]
                if scalar is None or rate is None or rate <= scalar:
                    failures.append(
                        f"{entry['num_nodes']} nodes: {name} {rate} "
                        f"<= scalar {scalar}"
                    )
            own = entry["tables"]["engine_own_table_bytes"]
            if own != 0:
                failures.append(
                    f"{entry['num_nodes']} nodes: the engine holds {own} "
                    "table bytes of its own"
                )
            views = entry["tables"]["sampler_views_at_setup"]
            if views != 0:
                failures.append(
                    f"{entry['num_nodes']} nodes: building the framework and "
                    f"its batch engine made {views} per-node sampler views"
                )
        if failures:
            print("[bench_engine] CHECK FAILED:", "; ".join(failures))
            return 1
        print(
            "[bench_engine] check passed: every batch config beats scalar "
            "at every scale, the engine walks the samplers' tables, and "
            "set-up made no per-node sampler"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
