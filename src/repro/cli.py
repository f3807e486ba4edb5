"""Command-line interface.

Two call styles:

* experiment reproduction (the original interface)::

      python -m repro.cli table4
      python -m repro.cli figure7 --scale 0.5 --seed 7
      python -m repro.cli all

* library subcommands on real edge lists::

      python -m repro.cli info youtube
      python -m repro.cli optimize graph.txt --budget 5e8 --model node2vec \\
          --param a=0.25 --param b=4
      python -m repro.cli walk graph.txt --budget 5e8 --num-walks 10 \\
          --length 80 --output walks.txt

* out-of-core sharded layouts::

      python -m repro.cli shard build graph.txt --output shards/ --num-shards 8
      python -m repro.cli shard inspect shards/ --verify
      python -m repro.cli walk graph.txt --budget 5e8 --shards shards/ \\
          --resident-shards 2               # bucketed bi-block scheduler

* developer tooling::

      python -m repro.cli lint --check      # reprolint invariant linter
      python -m repro.cli lint --flow       # + interprocedural FLOW passes
      python -m repro.cli dsan-report graph.txt --budget 5e8 \\
          --workers 1,2,4                   # runtime determinism sanitizer
      python -m repro.cli msan-report graph.txt --budget 5e8 \\
          --output msan.json                # runtime memory sanitizer
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import available_experiments, run_experiment


# ----------------------------------------------------------------------
# experiment mode (backward-compatible single positional)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Parser for the experiment-reproduction mode."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Memory-Aware Framework "
            "for Efficient Second-Order Random Walk on Large Graphs' "
            "(SIGMOD 2020) on scaled synthetic stand-ins."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=available_experiments() + ["all"],
        help="which table/figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="stand-in graph scale factor (default 1.0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: library default, deterministic)",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also export every table as CSV into this directory",
    )
    return parser


def _run_experiments(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    names = available_experiments() if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.perf_counter()
        report = run_experiment(name, scale=args.scale, rng=args.seed)
        elapsed = time.perf_counter() - started
        print(report.render())
        if args.output_dir:
            paths = report.to_csv(args.output_dir)
            print(f"[{len(paths)} CSV file(s) written to {args.output_dir}]")
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    return 0


# ----------------------------------------------------------------------
# library subcommands
# ----------------------------------------------------------------------
def _parse_params(pairs: list[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SystemExit(f"--param value must be numeric, got {pair!r}") from None
    return params


def build_tool_parser() -> argparse.ArgumentParser:
    """Parser for the info/optimize/walk subcommands."""
    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="dataset statistics (paper + stand-in)")
    info.add_argument("dataset", help="paper dataset name, e.g. youtube")
    info.add_argument("--scale", type=float, default=1.0)
    info.add_argument("--seed", type=int, default=None)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("edgelist", help="whitespace edge-list file")
    common.add_argument("--budget", type=float, required=True, help="bytes")
    common.add_argument("--model", default="node2vec")
    common.add_argument(
        "--param", action="append", default=[], help="model hyper-parameter key=value"
    )
    common.add_argument(
        "--optimizer", default="lp", choices=["lp", "deg-inc", "deg-dec"]
    )
    common.add_argument("--seed", type=int, default=None)
    common.add_argument(
        "--physical-memory",
        type=float,
        default=None,
        help="simulated physical memory in bytes (enables the OOM gate)",
    )
    common.add_argument(
        "--oom-policy",
        default="raise",
        choices=["raise", "degrade"],
        help=(
            "on OOM: 'raise' aborts, 'degrade' downgrades samplers "
            "(alias->rejection->naive) until the footprint fits"
        ),
    )

    sub.add_parser(
        "optimize",
        parents=[common],
        help="run the cost-based optimizer and print the assignment profile",
    )

    walk = sub.add_parser(
        "walk", parents=[common], help="generate second-order random walks"
    )
    walk.add_argument("--num-walks", type=int, default=10)
    walk.add_argument("--length", type=int, default=80)
    walk.add_argument("--output", default=None, help="write walks to this file")
    walk.add_argument(
        "--engine",
        default="scalar",
        choices=["scalar", "batch"],
        help=(
            "walk engine: 'scalar' samples one step at a time, 'batch' "
            "advances all walks vectorised with assignment-aware dispatch "
            "(same distribution, different RNG stream)"
        ),
    )
    walk.add_argument(
        "--kernel-backend",
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the batch engine's step arithmetic "
            "('numpy' default, 'numba' if installed; also via "
            "REPRO_KERNEL_BACKEND).  Backends consume identical pre-drawn "
            "uniforms, so the corpus is bit-identical either way"
        ),
    )
    walk.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for chunked generation (default: inline)",
    )
    walk.add_argument("--chunk-size", type=int, default=64)
    walk.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL chunk checkpoint; an interrupted run resumes from it",
    )
    walk.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="attempts per chunk before it is given up (default 3)",
    )
    walk.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-chunk wall-clock limit in seconds; late chunks retry",
    )
    walk.add_argument(
        "--dead-letter",
        action="store_true",
        help=(
            "keep going when a chunk exhausts its retries and report the "
            "dead-lettered chunks, instead of aborting the whole corpus"
        ),
    )
    walk.add_argument(
        "--dsan",
        action="store_true",
        help=(
            "enable the runtime determinism sanitizer: fingerprint every "
            "chunk's RNG stream (equivalent to REPRO_DSAN=1; sampled "
            "values are unchanged)"
        ),
    )
    walk.add_argument(
        "--dsan-report",
        default=None,
        metavar="PATH",
        help="write the per-chunk RNG fingerprint report as JSON to PATH",
    )
    walk.add_argument(
        "--shards",
        default=None,
        metavar="DIR",
        help=(
            "run out-of-core through the bucketed bi-block scheduler over "
            "the sharded CSR layout in DIR (built on demand from EDGELIST "
            "with --num-shards if DIR holds no manifest).  --budget then "
            "bounds resident shard bytes instead of sampler memory"
        ),
    )
    walk.add_argument(
        "--resident-shards",
        type=int,
        default=None,
        metavar="K",
        help="pin at most K shards in memory at once (with --shards)",
    )
    walk.add_argument(
        "--num-shards",
        type=int,
        default=4,
        help="shard count when --shards builds a new layout (default 4)",
    )
    walk.add_argument(
        "--shard-policy",
        default="bucketed",
        choices=["bucketed", "lockstep"],
        help=(
            "walk scheduling policy with --shards: 'bucketed' parks walks "
            "per shard and steps the fullest bucket first, 'lockstep' "
            "faults shards on demand every global step (same corpus, "
            "more shard loads)"
        ),
    )

    dsan = sub.add_parser(
        "dsan-report",
        parents=[common],
        help=(
            "run the same walk workload under the determinism sanitizer "
            "at several worker counts and verify the per-chunk RNG "
            "fingerprints are identical"
        ),
    )
    dsan.add_argument("--num-walks", type=int, default=2)
    dsan.add_argument("--length", type=int, default=20)
    dsan.add_argument(
        "--engine", default="batch", choices=["scalar", "batch"]
    )
    dsan.add_argument(
        "--kernel-backend",
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the batch engine (the fingerprints must "
            "match the numpy backend's bit-for-bit — this is the "
            "cross-backend equivalence gate)"
        ),
    )
    dsan.add_argument("--chunk-size", type=int, default=64)
    dsan.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts to cross-check (default 1,2,4)",
    )
    dsan.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the reference (first worker count) report JSON to PATH",
    )
    dsan.add_argument(
        "--compare",
        default=None,
        metavar="PATH",
        help="also verify against a previously saved report",
    )

    msan = sub.add_parser(
        "msan-report",
        parents=[common],
        help=(
            "run a representative workload (sampler builds, batch walks, "
            "a sharded-layout residency sweep) under the memory "
            "sanitizer and verify every structure's real allocation "
            "bytes against the cost-model byte formulas"
        ),
    )
    msan.add_argument("--num-walks", type=int, default=4)
    msan.add_argument("--length", type=int, default=20)
    msan.add_argument(
        "--num-shards",
        type=int,
        default=4,
        help="shard count for the temporary residency sweep (default 4)",
    )
    msan.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the conformance report JSON to PATH",
    )

    shard = sub.add_parser(
        "shard",
        help="build or inspect an out-of-core sharded CSR layout directory",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_build = shard_sub.add_parser(
        "build", help="split an edge list into a sharded layout on disk"
    )
    shard_build.add_argument("edgelist", help="whitespace edge-list file")
    shard_build.add_argument(
        "--output", required=True, metavar="DIR", help="layout directory to create"
    )
    shard_build.add_argument(
        "--num-shards",
        type=int,
        default=4,
        help="contiguous edge-balanced shards to cut (default 4)",
    )
    shard_build.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing layout at --output",
    )
    shard_inspect = shard_sub.add_parser(
        "inspect", help="print the manifest summary of an existing layout"
    )
    shard_inspect.add_argument("layout", help="sharded layout directory")
    shard_inspect.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every shard file against the manifest",
    )

    crawl = sub.add_parser(
        "crawl",
        help=(
            "crawl-mode walks and estimators over a simulated remote "
            "neighbour API (rate limiting, faults, circuit breaking)"
        ),
    )
    crawl.add_argument("edgelist", help="hidden ground-truth edge-list file")
    crawl.add_argument(
        "--estimator",
        default="walks",
        choices=["walks", "degree", "pagerank"],
        help="what to crawl: a walk corpus, or a degree/PageRank estimate",
    )
    crawl.add_argument(
        "--model",
        default=None,
        help="second-order model for walks (default: first-order)",
    )
    crawl.add_argument(
        "--param", action="append", default=[], help="model hyper-parameter key=value"
    )
    crawl.add_argument("--num-walks", type=int, default=10)
    crawl.add_argument("--length", type=int, default=20)
    crawl.add_argument(
        "--num-samples", type=int, default=500, help="estimator sample count"
    )
    crawl.add_argument("--query", type=int, default=0, help="PageRank query node")
    crawl.add_argument(
        "--cache-budget",
        type=float,
        default=1e6,
        help="bytes for the neighbourhood history cache (0 disables reuse)",
    )
    crawl.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="server-side requests/second (429s above it)",
    )
    crawl.add_argument(
        "--client-rate",
        type=float,
        default=None,
        help="client-side token-bucket rate (stay under the server's)",
    )
    crawl.add_argument(
        "--latency-rate",
        type=float,
        default=0.0,
        help="fraction of nodes with seeded latency spikes",
    )
    crawl.add_argument(
        "--flaky-rate",
        type=float,
        default=0.0,
        help="fraction of nodes whose first fetch fails transiently",
    )
    crawl.add_argument(
        "--outage",
        action="append",
        default=[],
        metavar="START:END",
        help="outage window in virtual seconds (repeatable)",
    )
    crawl.add_argument("--fault-seed", type=int, default=0)
    crawl.add_argument("--seed", type=int, default=None)
    crawl.add_argument(
        "--deadline", type=float, default=None, help="per-fetch budget, seconds"
    )
    crawl.add_argument(
        "--output", default=None, help="write the corpus / estimate JSON here"
    )

    return parser


def _build_framework(args):
    from .framework import MemoryAwareFramework
    from .graph import load_edge_list
    from .models import get_model

    params = _parse_params(args.param)  # validate before any file IO
    graph = load_edge_list(args.edgelist)
    model = get_model(args.model, **params)
    return MemoryAwareFramework(
        graph,
        model,
        budget=args.budget,
        optimizer=args.optimizer,
        physical_memory=args.physical_memory,
        oom_policy=args.oom_policy,
        rng=args.seed,
    )


def _run_crawl(args) -> int:
    """The ``crawl`` subcommand: estimator runs over a simulated API.

    Always runs on a virtual clock, so a given configuration is a
    deterministic simulation — injected latency and rate limiting shape
    the (virtual) timeline, never the estimate.
    """
    import json

    import numpy as np

    from .graph import load_edge_list
    from .models import get_model
    from .remote import (
        CircuitBreaker,
        InjectedFaultTransport,
        RemoteGraph,
        ResilientClient,
        TokenBucket,
        VirtualClock,
        crawl_walks,
        estimate_average_degree,
        estimate_pagerank,
    )
    from .resilience import FaultKind, FaultPlan

    graph = load_edge_list(args.edgelist)
    model = (
        get_model(args.model, **_parse_params(args.param))
        if args.model is not None
        else None
    )
    outages = []
    for window in args.outage:
        start, _, end = window.partition(":")
        try:
            outages.append((float(start), float(end)))
        except ValueError:
            print(f"bad --outage window {window!r} (want START:END)", file=sys.stderr)
            return 2
    plans = []
    if args.latency_rate > 0:
        plans.append(
            FaultPlan(
                kind=FaultKind.LATENCY, rate=args.latency_rate, seed=args.fault_seed
            )
        )
    if args.flaky_rate > 0:
        plans.append(
            FaultPlan(
                kind=FaultKind.FLAKY,
                rate=args.flaky_rate,
                seed=args.fault_seed + 1,
                failures_per_chunk=1,
            )
        )
    clock = VirtualClock()
    transport = InjectedFaultTransport(
        graph,
        clock=clock,
        plans=plans,
        rate_limit=args.rate_limit,
        outages=outages,
    )
    client = ResilientClient(
        transport,
        limiter=TokenBucket(args.client_rate, clock=clock),
        breaker=CircuitBreaker(reset_timeout=5.0, clock=clock),
        deadline=args.deadline,
        clock=clock,
    )
    rgraph = RemoteGraph(client, cache=args.cache_budget)

    if args.estimator == "walks":
        corpus = crawl_walks(
            rgraph,
            num_walks=args.num_walks,
            length=args.length,
            model=model,
            rng=args.seed,
        )
        meta = corpus.metadata["crawl"]
        print(
            f"crawled {len(corpus)} walks, {corpus.total_steps} steps, "
            f"{meta['truncated_walks']} truncated, "
            f"{meta['stale_hits']} stale step(s)"
        )
        if args.output:
            corpus.save(args.output)
            print(f"written to {args.output}")
        result = {"kind": "walks", **{k: v for k, v in meta.items() if k != "client"}}
    elif args.estimator == "degree":
        estimate = estimate_average_degree(
            rgraph,
            num_samples=args.num_samples,
            rng=args.seed,
            snapshot_every=max(1, args.num_samples // 10),
        )
        print(
            f"average degree ≈ {estimate.average_degree:.3f} "
            f"({estimate.num_samples} samples, {estimate.api_calls} API calls, "
            f"{estimate.circuit_waits} circuit wait(s))"
        )
        result = {
            "kind": "degree",
            "estimate": estimate.average_degree,
            "api_calls": estimate.api_calls,
            "circuit_waits": estimate.circuit_waits,
            "curve": [list(point) for point in estimate.curve],
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2)
            print(f"written to {args.output}")
    else:  # pagerank
        estimate = estimate_pagerank(
            rgraph,
            args.query,
            num_samples=args.num_samples,
            rng=args.seed,
        )
        top = np.argsort(estimate.scores)[::-1][:5]
        ranked = ", ".join(
            f"{int(v)}:{estimate.scores[v]:.4f}" for v in top
        )
        print(
            f"pagerank({args.query}) top-5: {ranked} "
            f"({estimate.api_calls} API calls, "
            f"{estimate.truncated_walks} truncated walk(s))"
        )
        result = {
            "kind": "pagerank",
            "query": args.query,
            "scores": estimate.scores.tolist(),
            "api_calls": estimate.api_calls,
            "truncated_walks": estimate.truncated_walks,
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=2)
            print(f"written to {args.output}")
    print(rgraph.describe())
    print(
        f"virtual time {clock.now:.3f}s, breaker opens: "
        f"{client.breaker.opens}, rate-limit retries: {client.rate_limit_retries}"
    )
    return 0


def _run_shard(args) -> int:
    """The ``shard build`` / ``shard inspect`` subcommands."""
    from pathlib import Path

    from .framework import format_bytes
    from .graph import ShardedCSRGraph, load_edge_list, write_sharded_layout

    if args.shard_command == "build":
        graph = load_edge_list(args.edgelist)
        layout = write_sharded_layout(
            graph,
            Path(args.output),
            num_shards=args.num_shards,
            overwrite=args.overwrite,
        )
        print(
            f"wrote {layout.num_shards} shard(s) to {args.output}: "
            f"|V|={layout.num_nodes:,} |E|={layout.num_edges:,} "
            f"{format_bytes(layout.total_bytes)} on disk"
        )
    else:  # inspect
        layout = ShardedCSRGraph.open(Path(args.layout))
        print(
            f"{args.layout}: {layout.num_shards} shard(s), "
            f"|V|={layout.num_nodes:,} |E|={layout.num_edges:,} "
            f"{format_bytes(layout.total_bytes)} on disk, "
            f"signature {layout.layout_signature[:16]}"
        )
        for index in range(layout.num_shards):
            spec = layout.shard_spec(index)
            print(
                f"  shard {spec.index}: nodes [{spec.start}, {spec.stop}) "
                f"edges {spec.num_edges:,} {format_bytes(spec.nbytes)}"
            )
        if args.verify:
            layout.verify()
            print(f"verified: all {layout.num_shards} shard(s) match the manifest")
    return 0


def _run_sharded_walk(args) -> int:
    """``walk --shards``: out-of-core corpus via the bucketed scheduler."""
    from pathlib import Path

    from .framework.outofcore import generate_walks
    from .graph import load_edge_list
    from .graph.sharded import MANIFEST_NAME, ShardedCSRGraph, write_sharded_layout
    from .models import get_model

    params = _parse_params(args.param)
    model = get_model(args.model, **params)
    root = Path(args.shards)
    if (root / MANIFEST_NAME).exists():
        layout = ShardedCSRGraph.open(root)
    else:
        layout = write_sharded_layout(
            load_edge_list(args.edgelist), root, num_shards=args.num_shards
        )
        print(f"built {layout.num_shards}-shard layout at {args.shards}")
    corpus = generate_walks(
        layout,
        model,
        num_walks=args.num_walks,
        length=args.length,
        budget=args.budget,
        max_resident=args.resident_shards,
        backend=args.kernel_backend,
        policy=args.shard_policy,
        workers=args.workers if args.workers is not None else 1,
        chunk_size=args.chunk_size,
        rng=args.seed,
        retry=args.max_retries,
        timeout=args.chunk_timeout,
        checkpoint=args.checkpoint,
        on_exhausted="dead-letter" if args.dead_letter else "raise",
        dsan=True if (args.dsan or args.dsan_report) else None,
    )
    print(
        f"generated {len(corpus)} walks, {corpus.total_steps} steps, "
        f"avg length {corpus.average_length:.1f}"
    )
    sharded = corpus.metadata.get("sharded", {})
    if sharded:
        print(
            f"shards: {sharded['shard_loads']} load(s), "
            f"{sharded['shard_evictions']} eviction(s), "
            f"{sharded['shard_bytes_read']:,} byte(s) read, "
            f"{sharded['crossings']} crossing(s)"
        )
    for letter in corpus.failed_chunks:
        print(f"DEAD-LETTER: {letter.describe()}", file=sys.stderr)
    if "dsan" in corpus.metadata:
        from .analysis.dsan import DsanReport

        report = DsanReport.from_dict(corpus.metadata["dsan"])
        print(
            f"dsan: {len(report)} chunk fingerprint(s), "
            f"{report.total_draws} RNG draw(s)"
        )
        if args.dsan_report:
            report.save(args.dsan_report)
            print(f"dsan report written to {args.dsan_report}")
    if args.output:
        corpus.save(args.output)
        print(f"written to {args.output}")
    return 0 if corpus.is_complete else 3


def _run_tool(argv: list[str]) -> int:
    args = build_tool_parser().parse_args(argv)

    if args.command == "crawl":
        return _run_crawl(args)

    if args.command == "shard":
        return _run_shard(args)

    if args.command == "walk" and args.shards is not None:
        return _run_sharded_walk(args)

    if args.command == "msan-report":
        # The framework build itself is part of the sanitized workload,
        # so dispatch happens before _build_framework below.
        return _run_msan_report(args)

    if args.command == "info":
        from .datasets import load_dataset, paper_graph_info
        from .graph import compute_stats

        info = paper_graph_info(args.dataset)
        print(
            f"{info.name}: |V|={info.num_nodes:,} |E|={info.num_edges:,} "
            f"d_avg={info.average_degree} M_g={info.memory_bytes / 1e6:.0f}MB (paper Table 2)"
        )
        standin = load_dataset(args.dataset, scale=args.scale, rng=args.seed)
        print(f"stand-in ({args.scale}x): {compute_stats(standin).describe()}")
        return 0

    framework = _build_framework(args)
    print(framework.assignment.describe())

    if args.command == "dsan-report":
        return _run_dsan_report(args, framework)

    if args.command == "optimize":
        from .analysis import profile_assignment

        profile = profile_assignment(
            framework.graph, framework.assignment, framework.cost_table
        )
        print(profile.render())
        return 0

    # walk
    from .walks import WalkCorpus

    if framework.degradation_log is not None:
        print(framework.degradation_log.describe())

    supervised = (
        args.workers is not None
        or args.checkpoint is not None
        or args.chunk_timeout is not None
        or args.dead_letter
    )
    if args.engine == "batch":
        engine = framework.batch_engine(backend=args.kernel_backend)
    else:
        engine = framework.walk_engine

    if args.dsan or args.dsan_report:
        supervised = True
    if supervised:
        from .walks import parallel_walks

        corpus = parallel_walks(
            engine,
            num_walks=args.num_walks,
            length=args.length,
            workers=args.workers if args.workers is not None else 1,
            chunk_size=args.chunk_size,
            rng=args.seed,
            retry=args.max_retries,
            timeout=args.chunk_timeout,
            checkpoint=args.checkpoint,
            on_exhausted="dead-letter" if args.dead_letter else "raise",
            dsan=True if (args.dsan or args.dsan_report) else None,
        )
    elif args.engine == "batch":
        corpus = engine.walks(
            num_walks=args.num_walks, length=args.length, rng=args.seed
        )
    else:
        walks = framework.generate_walks(
            num_walks=args.num_walks, length=args.length, rng=args.seed
        )
        corpus = WalkCorpus.from_walks(walks)
    print(
        f"generated {len(corpus)} walks, {corpus.total_steps} steps, "
        f"avg length {corpus.average_length:.1f}"
    )
    if args.engine == "batch":
        print(engine.describe())
    for letter in corpus.failed_chunks:
        print(f"DEAD-LETTER: {letter.describe()}", file=sys.stderr)
    if "dsan" in corpus.metadata:
        from .analysis.dsan import DsanReport

        report = DsanReport.from_dict(corpus.metadata["dsan"])
        print(
            f"dsan: {len(report)} chunk fingerprint(s), "
            f"{report.total_draws} RNG draw(s)"
        )
        if args.dsan_report:
            report.save(args.dsan_report)
            print(f"dsan report written to {args.dsan_report}")
    if args.output:
        corpus.save(args.output)
        print(f"written to {args.output}")
    return 0 if corpus.is_complete else 3


def _run_dsan_report(args, framework) -> int:
    """Cross-worker determinism check: same workload, w ∈ --workers.

    Exit codes: 0 all fingerprints identical, 4 divergence detected,
    2 bad arguments.
    """
    from .analysis.dsan import DsanReport, diff_reports
    from .walks import parallel_walks

    try:
        worker_counts = [
            int(w) for w in str(args.workers).split(",") if w.strip()
        ]
    except ValueError:
        print(f"--workers expects a comma-separated int list, got "
              f"{args.workers!r}", file=sys.stderr)
        return 2
    if not worker_counts:
        print("--workers must name at least one worker count", file=sys.stderr)
        return 2

    if args.engine == "batch":
        engine = framework.batch_engine(backend=args.kernel_backend)
    else:
        engine = framework.walk_engine

    reports: dict[int, "DsanReport"] = {}
    for workers in worker_counts:
        corpus = parallel_walks(
            engine,
            num_walks=args.num_walks,
            length=args.length,
            workers=workers,
            chunk_size=args.chunk_size,
            rng=args.seed,
            dsan=True,
        )
        report = DsanReport.from_dict(corpus.metadata["dsan"])
        reports[workers] = report
        kernels: dict[str, int] = {}
        for fp in report.fingerprints.values():
            for kernel, draws in fp.kernels:
                kernels[kernel] = kernels.get(kernel, 0) + draws
        per_kernel = ", ".join(
            f"{k}={v}" for k, v in sorted(kernels.items())
        )
        print(
            f"workers={workers}: {len(report)} chunk(s), "
            f"{report.total_draws} draw(s) [{per_kernel}]"
        )

    reference_workers = worker_counts[0]
    reference = reports[reference_workers]
    divergences: list[str] = []
    for workers in worker_counts[1:]:
        for line in diff_reports(reference, reports[workers]):
            divergences.append(
                f"workers={reference_workers} vs workers={workers}: {line}"
            )
    if args.compare:
        saved = DsanReport.load(args.compare)
        for line in diff_reports(saved, reference):
            divergences.append(f"{args.compare} vs this run: {line}")

    if args.output:
        reference.save(args.output)
        print(f"dsan report written to {args.output}")

    if divergences:
        for line in divergences:
            print(f"DSAN DIVERGENCE: {line}", file=sys.stderr)
        return 4
    print(
        f"dsan: per-chunk RNG fingerprints identical across "
        f"workers={{{','.join(map(str, worker_counts))}}}"
    )
    return 0


def _run_msan_report(args) -> int:
    """Runtime byte-conformance check against the cost-model formulas.

    Runs a workload covering every traced structure — the framework
    build materialises alias/rejection/naive sampler state, batch walks
    run over it, and a temporary sharded layout is swept through the
    residency manager — inside an
    :func:`~repro.analysis.msan.msan_trace` scope, then verifies each
    recorded allocation's real bytes against :mod:`repro.cost.model`.

    Exit codes: 0 conformant, 4 divergence (or an empty trace).
    """
    import json as _json
    import tempfile
    from pathlib import Path

    from .analysis.msan import build_report, msan_trace

    with msan_trace() as tracer:
        framework = _build_framework(args)
        print(framework.assignment.describe())
        engine = framework.batch_engine()
        corpus = engine.walks(
            num_walks=args.num_walks, length=args.length, rng=args.seed
        )
        print(
            f"generated {len(corpus)} walks, {corpus.total_steps} steps "
            "(batch engine)"
        )
        from .graph import load_edge_list
        from .graph.sharded import ShardResidencyManager, write_sharded_layout

        with tempfile.TemporaryDirectory(prefix="repro-msan-") as tmp:
            layout = write_sharded_layout(
                load_edge_list(args.edgelist), tmp, num_shards=args.num_shards
            )
            manager = ShardResidencyManager(layout)
            for index in range(layout.num_shards):
                manager.acquire(index)
            print(
                f"swept {layout.num_shards} shard(s) through the "
                "residency manager"
            )

    report = build_report(tracer)
    for structure, bucket in report.by_structure.items():
        print(
            f"  {structure}: {bucket['builds']} build(s), "
            f"{bucket['bytes']} byte(s)"
        )
    if args.output:
        Path(args.output).write_text(
            _json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"msan report written to {args.output}")

    if not report.ok:
        if not report.divergences:
            print("MSAN: no structure builds were traced", file=sys.stderr)
        for line in report.divergences:
            print(f"MSAN DIVERGENCE: {line}", file=sys.stderr)
        return 4
    print(
        f"msan: {report.records} allocation(s) across "
        f"{len(report.by_structure)} structure(s) conform to the "
        "cost model"
    )
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    experiment_names = set(available_experiments()) | {"all"}
    if argv and argv[0] in experiment_names:
        return _run_experiments(argv)
    if argv and argv[0] == "lint":
        from .analysis.lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] in (
        "info",
        "optimize",
        "walk",
        "dsan-report",
        "msan-report",
        "crawl",
        "shard",
    ):
        return _run_tool(argv)
    # Fall through to the experiment parser for its help/error message.
    return _run_experiments(argv)


if __name__ == "__main__":
    sys.exit(main())
