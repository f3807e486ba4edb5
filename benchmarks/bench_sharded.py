"""Out-of-core scheduler benchmark: bucketed bi-block vs lockstep faulting.

Measures walk throughput (walks/second: the median of 5 runs of each
cell, with min and max; the runs must agree on every counter and on the
corpus) and shard I/O (shard loads per thousand steps, bytes read) for
the :class:`~repro.walks.BucketedWalkScheduler` over an on-disk sharded
CSR layout, sweeping the resident-shard cap for both scheduling
policies:

1. **bucketed** — walks park in the bucket of the shard holding their
   frontier node; the scheduler advances the most-populated bucket one
   hop at a time, faulting a shard only when the fullest bucket sits on
   one that is not resident (GraSorw's bi-block idea: I/O scales with
   bucket visits, not steps);
2. **lockstep** — the naive comparator: one global step per round,
   faulting whatever shards that round's frontier touches.

Both policies produce the **bit-identical** corpus (per-walker RNG
streams make the output order-invariant), so the sweep isolates pure
scheduling efficiency.  An in-memory run through the same scheduler over
a :class:`~repro.graph.VirtualShardLayout` anchors the hash and the
zero-I/O throughput ceiling.

Usage::

    python benchmarks/bench_sharded.py                   # full sweep
    python benchmarks/bench_sharded.py --quick --check   # CI smoke gate, writes no file
    python benchmarks/bench_sharded.py --output BENCH_sharded.json

``--check`` exits non-zero unless (a) every configuration's corpus hash
equals the in-memory reference, and (b) at every resident-shard cap
below the shard count, bucketed scheduling issues strictly fewer shard
loads than lockstep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Node2VecModel
from repro.graph import write_sharded_layout
from repro.graph.generators import barabasi_albert_graph
from repro.walks import BucketedWalkScheduler


def corpus_sha(corpus) -> str:
    """Order-sensitive digest of every trail in the corpus."""
    payload = "\n".join(" ".join(map(str, w.tolist())) for w in corpus)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Timed runs of every cell.  Walks/s is reported as the median of the
#: runs with their min and max: one run per cell cannot rank the
#: policies on a shared machine.
REPEATS = 5


def timed_runs(make_engine, *, num_walks, length, seed):
    """Walk a fresh engine :data:`REPEATS` times.

    Returns ``(rate, counters, sha, walks)``: the walks/s summary, then
    the counters, corpus hash and walk count every run agreed on.  Runs
    that disagree on counters or corpus raise — they would mean the cell
    is not deterministic, and then no rate of it means anything.
    """
    rates = []
    outcomes = set()
    for _ in range(REPEATS):
        engine = make_engine()
        started = time.perf_counter()
        corpus = engine.walks(num_walks=num_walks, length=length, rng=seed)
        rates.append(len(corpus) / (time.perf_counter() - started))
        outcomes.add(
            (json.dumps(engine.counters(), sort_keys=True), corpus_sha(corpus))
        )
    if len(outcomes) != 1:
        raise RuntimeError(
            f"{REPEATS} runs of one cell disagree on counters or corpus"
        )
    ((counters, sha),) = outcomes
    rate = {
        "walks_per_sec": round(statistics.median(rates), 2),
        "walks_per_sec_min": round(min(rates), 2),
        "walks_per_sec_max": round(max(rates), 2),
    }
    return rate, json.loads(counters), sha, len(corpus)


def run_config(layout, model, *, policy, max_resident, num_walks, length, seed):
    """Benchmark one (policy, residency-cap) cell; returns (row, sha)."""
    rate, counters, sha, walks = timed_runs(
        lambda: BucketedWalkScheduler(
            layout, model, policy=policy, max_resident=max_resident
        ),
        num_walks=num_walks,
        length=length,
        seed=seed,
    )
    sharded = counters["sharded"]
    steps = max(1, counters["steps"])
    row = {
        "policy": policy,
        "max_resident": max_resident,
        "walks": walks,
        **rate,
        "steps": int(counters["steps"]),
        "shard_loads": int(sharded["shard_loads"]),
        "loads_per_kstep": round(1000.0 * sharded["shard_loads"] / steps, 3),
        "shard_evictions": int(sharded["shard_evictions"]),
        "shard_bytes_read": int(sharded["shard_bytes_read"]),
        "crossings": int(sharded["crossings"]),
    }
    return row, sha


def run_sweep(*, num_nodes, num_shards, residents, num_walks, length, seed=0):
    """The full benchmark matrix for one graph size."""
    graph = barabasi_albert_graph(num_nodes, 4, rng=seed)
    model = Node2VecModel(0.25, 4.0)  # the paper's node2vec setting

    # In-memory reference: same scheduler, virtual single shard — the
    # hash anchor and the no-I/O throughput ceiling.
    reference, _, reference_sha, _ = timed_runs(
        lambda: BucketedWalkScheduler(graph, model),
        num_walks=num_walks,
        length=length,
        seed=seed,
    )

    with tempfile.TemporaryDirectory(prefix="bench_sharded_") as tmp:
        layout = write_sharded_layout(
            graph, Path(tmp) / "layout", num_shards=num_shards
        )
        rows = []
        hashes = {}
        for max_resident in residents:
            for policy in ("bucketed", "lockstep"):
                row, sha = run_config(
                    layout,
                    model,
                    policy=policy,
                    max_resident=max_resident,
                    num_walks=num_walks,
                    length=length,
                    seed=seed,
                )
                row["identical_to_reference"] = sha == reference_sha
                rows.append(row)
                hashes[(policy, max_resident)] = sha
        total_bytes = int(layout.total_bytes)

    return {
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "num_shards": int(num_shards),
        "layout_bytes": total_bytes,
        "num_walks": int(num_walks),
        "length": int(length),
        "repeats": REPEATS,
        "reference": {**reference, "sha256": reference_sha},
        "configs": rows,
    }


def check_result(result) -> list[str]:
    """Regression gates; returns human-readable failure strings."""
    failures = []
    for row in result["configs"]:
        if not row["identical_to_reference"]:
            failures.append(
                f"corpus mismatch: policy={row['policy']} "
                f"max_resident={row['max_resident']} diverged from the "
                "in-memory reference"
            )
    by_cell = {
        (row["policy"], row["max_resident"]): row for row in result["configs"]
    }
    for (policy, max_resident), row in by_cell.items():
        if policy != "bucketed" or max_resident >= result["num_shards"]:
            continue
        lockstep = by_cell.get(("lockstep", max_resident))
        if lockstep and row["shard_loads"] >= lockstep["shard_loads"]:
            failures.append(
                f"no I/O advantage at max_resident={max_resident}: bucketed "
                f"{row['shard_loads']} load(s) vs lockstep "
                f"{lockstep['shard_loads']}"
            )
    return failures


def _rate(row) -> str:
    """``median (min-max)`` walks/s of one row."""
    return (
        f"{row['walks_per_sec']:.0f} "
        f"({row['walks_per_sec_min']:.0f}-{row['walks_per_sec_max']:.0f})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small single-graph sweep for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero unless every config matches the in-memory "
            "corpus and bucketed beats lockstep on shard loads"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "result JSON path (default: BENCH_sharded.json for the full "
            "sweep; --quick writes only when this is given)"
        ),
    )
    args = parser.parse_args(argv)

    if args.quick:
        sweep = dict(
            num_nodes=1_500, num_shards=8, residents=[1, 2, 4],
            num_walks=1, length=20,
        )
    else:
        sweep = dict(
            num_nodes=10_000, num_shards=16, residents=[1, 2, 4, 8, 16],
            num_walks=2, length=40,
        )

    result = run_sweep(**sweep)
    result["python"] = platform.python_version()
    result["mode"] = "quick" if args.quick else "full"

    print(
        f"graph: {result['num_nodes']:,} nodes, {result['num_edges']:,} "
        f"edges, {result['num_shards']} shards "
        f"({result['layout_bytes']:,} bytes on disk)"
    )
    print(
        f"{'policy':<10} {'resident':>8} {'walks/s (min-max)':>24} {'loads':>7} "
        f"{'loads/kstep':>12} {'bytes read':>12}"
    )
    for row in result["configs"]:
        print(
            f"{row['policy']:<10} {row['max_resident']:>8} "
            f"{_rate(row):>24} {row['shard_loads']:>7} "
            f"{row['loads_per_kstep']:>12} {row['shard_bytes_read']:>12,}"
        )
    print(f"in-memory reference: {_rate(result['reference'])} walks/s")

    output = args.output or (None if args.quick else "BENCH_sharded.json")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
        print(f"written to {output}")

    if args.check:
        failures = check_result(result)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            "checks passed: all corpora bit-identical to the in-memory "
            "reference; bucketed < lockstep shard loads at every "
            "constrained residency cap"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
