"""End-to-end and per-layer benchmark of the memory-aware walk framework.

One run measures one workload in this process::

    python3 benchmarks/suite/run.py --workload n2v-ample --seed 1 \
        --seconds 10 --trace 0

It sets the system up several times (the median is ``setup_s``), runs
untimed warm-up operations, then runs operations for ``--seconds`` seconds
(and at least the workload's ``min_ops``) and checks every corpus it gets
back, then runs the untimed correctness gates.  It prints each metric by
name with its unit, writes its details to ``benchmarks/suite/out/``, and
ends with one JSON line::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every operation twice, untraced and traced in
alternating order, and reports the per-layer metrics (plus a Chrome
trace).  The exit code is 0 only when every operation and gate passed.

Without ``--workload`` every workload runs in a fresh subprocess, one at
a time.  ``run.py compare --parent DIR --change DIR`` compares two source
trees (see ``compare.py``).  ``--root`` picks the source tree whose
``src/`` is measured (default: the checkout holding this file).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare import last_json_line, main as compare_main, run_once

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
OUT = HERE / "out"

MIN_SETUPS, MAX_SETUPS, SETUP_FLOOR_S = 3, 200, 1.0
SMOKE_OPS = 2


def load_spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload in this process (default: all, each "
                        "in a subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=CHECKOUT,
                        help="source tree to measure (holds src/repro)")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph and one set-up: a self-test, not a measurement")
    parser.add_argument("--out", type=Path, help="all-workloads mode: combined JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def end_to_end(
    setups: list[dict], times: list[float], hops: list[int], peak_rss_kb: int
) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "hops_per_s": statistics.median(h / t for h, t in zip(hops, times)),
        "ops": len(times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def per_layer(
    wl, tracer, plain_times: list[float], setups: list[dict], overhead: float
) -> dict:
    from repro.walks.kernels import resolve_backend
    from tracing import ENGINE_SPAN, kernel_names
    from workloads import SUPERVISOR_SPAN

    ops = len(plain_times)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    metrics = {
        name: statistics.median(s.get(name, 0.0) for s in setups)
        for name in (
            "bounding.constants_s",
            "optimizer.optimize_s",
            "framework.sampler_build_s",
            "walks.engine_init_s",
        )
    }
    metrics.update(
        {
            "optimizer.nodes_naive": 0.0,
            "optimizer.nodes_rejection": 0.0,
            "optimizer.nodes_alias": 0.0,
            "optimizer.budget_used_frac": 0.0,
            **wl.assignment_counts(),
        }
    )
    for kernel in kernel_names(resolve_backend("numpy")):
        metrics[f"kernels.{kernel}_s"] = self_s[f"kernels.{kernel}"] / ops
        metrics[f"kernels.{kernel}_calls"] = calls[f"kernels.{kernel}"] / ops
    for span in (
        "models.biased_weights_many",
        "models.target_ratio_bulk",
        "graph.has_edge_pairs",
        "graph.edge_positions",
    ):
        metrics[f"{span}_s"] = self_s[span] / ops
        metrics[f"{span}_calls"] = calls[span] / ops
        metrics[f"{span}_pairs"] = counts[span + ".pairs"] / ops
    checks, steps = counts["rejection.checks"], counts["rejection.steps"]
    metrics["walks.rejection_acceptance"] = (
        counts["rejection.accepted"] / checks if checks else 0.0
    )
    metrics["walks.rejection_rounds_per_step"] = (
        calls["kernels.acceptance_mask"] / steps if steps else 0.0
    )
    tree = wl.traced_counters()
    dispatch = tree.get("dispatch", {})
    for kind in ("naive", "rejection", "alias"):
        metrics[f"walks.dispatch.{kind}_walkers"] = (
            dispatch.get(kind, {}).get("walkers", 0) / ops
        )
    cache = tree.get("cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    metrics["walks.cache_hits"] = hits / ops
    metrics["walks.cache_misses"] = misses / ops
    metrics["walks.cache_evictions"] = cache.get("evictions", 0) / ops
    metrics["walks.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    sharded = tree.get("sharded", {})
    metrics["sharded.acquire_s"] = self_s["sharded.acquire"] / ops
    metrics["sharded.acquire_calls"] = calls["sharded.acquire"] / ops
    for key in ("shard_loads", "shard_bytes_read", "bucket_visits"):
        metrics[f"sharded.{key}"] = sharded.get(key, 0) / ops
    metrics["sharded.crossings_per_hop"] = (
        sharded.get("crossings", 0) / tree["steps"] if sharded else 0.0
    )
    metrics["resilience.supervisor_s"] = self_s[SUPERVISOR_SPAN] / ops
    metrics["walks.driver_self_s"] = self_s[ENGINE_SPAN] / ops
    # Untraced latency.  It has no bound: on a shared host, slow spells
    # move this tail more than the program does (see the README).
    metrics["walks.op_ms_tail"] = float(np.percentile(plain_times, wl.spec.tail_pct)) * 1e3
    metrics["trace.overhead_frac"] = overhead
    return metrics


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    src = args.root.resolve() / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import SPECS, Workload, corpus_sha256

    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    attempted = 0

    def check(k: int, corpus) -> None:
        nonlocal attempted
        attempted += 1
        problem = wl.check_op(k, corpus)
        if problem:
            failures.append(f"op {k}: {problem}")

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = Workload(SPECS[args.workload], args.seed, Path(scratch), smoke=args.smoke)
        setups: list[dict] = []
        min_setups = 1 if args.smoke else MIN_SETUPS
        while len(setups) < min_setups or (
            sum(s["setup_s"] for s in setups) < SETUP_FLOOR_S
            and len(setups) < MAX_SETUPS
        ):
            setups.append(wl.setup())
        tracer = Tracer() if args.trace else None
        warmup = 1 if args.smoke else wl.spec.warmup
        for k in range(warmup):  # lazy indexes and caches fill
            check(k, wl.run_op(k))
            if tracer is not None:
                check(k, wl.run_op(k, tracer))
        if tracer is not None:
            tracer.reset()
            wl.reset_traced_counters()

        ops: list[dict] = []
        min_ops = SMOKE_OPS if args.smoke else wl.spec.min_ops
        deadline = time.perf_counter() + args.seconds
        k = warmup
        while k < warmup + min_ops or time.perf_counter() < deadline:
            record: dict = {"op": k}
            sides = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
            for side in sides if tracer is not None else ("plain",):
                if side == "traced":
                    tracer.op = k
                started = time.perf_counter()
                corpus = wl.run_op(k, tracer if side == "traced" else None)
                record[f"{side}_s"] = time.perf_counter() - started
                record["hops"] = corpus.total_steps
                check(k, corpus)
                if tracer is not None:
                    record[f"{side}_sha256"] = corpus_sha256(corpus)
                del corpus
            if tracer is not None:
                attempted += 1
                if record["plain_sha256"] != record["traced_sha256"]:
                    failures.append(f"op {k}: tracing changed the corpus")
            ops.append(record)
            k += 1
        # Before the gates: their corpus is not part of the workload.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        gates = wl.gates()
        attempted += len(gates)
        failures += [f"gate {name}: {why}" for name, why in gates.items() if why]

        if tracer is None:
            computed = end_to_end(
                setups, [op["plain_s"] for op in ops], [op["hops"] for op in ops],
                peak_rss_kb,
            )
        else:
            overhead = statistics.median(op["traced_s"] / op["plain_s"] for op in ops) - 1
            computed = per_layer(wl, tracer, [op["plain_s"] for op in ops], setups, overhead)
            tracer.write_chrome_trace(OUT / f"{stem}.chrome.json")
        wl.release()

    metrics = {m["name"]: {"value": computed.pop(m["name"]), "unit": m["unit"]}
               for m in declared}
    if computed:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(computed)}")
    print(f"{args.workload}  seed {args.seed}  {len(setups)} set-ups  {len(ops)} operations"
          + (f"  walks.op_ms_tail = p{wl.spec.tail_pct}" if args.trace else ""))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details = {"args": {k: str(v) for k, v in vars(args).items()},
               "setups": setups, "ops": ops, "gates": gates, "failures": failures,
               **result}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace, spec: dict) -> int:
    results, status = {}, 0
    for workload in spec["workloads"]:
        proc = run_once(
            Path(__file__).resolve(), args.root, workload["name"], args.seed,
            args.seconds, args.trace, args.smoke,
        )
        print(proc.stdout, end="", flush=True)
        results[workload["name"]] = last_json_line(proc.stdout)
        status = status or proc.returncode
    OUT.mkdir(exist_ok=True)
    out = args.out or OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "results": results}, indent=1) + "\n")
    return status


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], Path(__file__).resolve(), spec)
    args = parse_args(argv, spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
