"""Crawl-mode benchmark: estimator accuracy versus API calls.

Crawl-mode cost is measured in *API calls*, not seconds: a remote
neighbour API bills every request, rate-limits bursts, and fails — so
the relevant trajectory is how fast the estimate converges per call and
how much the neighbourhood history cache bends that curve.  The whole
benchmark runs on a :class:`~repro.remote.VirtualClock`: injected
latency, rate limiting, and outages shape a deterministic virtual
timeline, so the numbers are exactly reproducible run to run.

Scenarios:

1. **accuracy-vs-calls** — average-degree and personalised-PageRank
   estimators against the hidden ground truth, at three history-cache
   budgets (none / tight / ample), each reporting its error curve as a
   function of billable calls;
2. **resilience** — the same degree estimate crawled through latency
   spikes, flaky nodes, and server rate limiting, under two *different*
   injected timing plans — verifying the estimate is byte-identical
   (determinism contract) and counting what the resilience machinery
   absorbed;
3. **breaker-recovery** — an outage window drives the circuit breaker
   through open → half-open → closed while the estimator waits it out;
   the transition log lands in the report.

Usage::

    python benchmarks/bench_crawl.py                   # full run
    python benchmarks/bench_crawl.py --quick --check   # CI smoke gate, writes no file
    python benchmarks/bench_crawl.py --output BENCH_crawl.json

``--check`` exits non-zero unless the estimators converge, the history
cache reduces API calls, the determinism contract holds byte-for-byte,
and the breaker demonstrably opens and recovers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    CircuitBreaker,
    CircuitState,
    InjectedFaultTransport,
    RemoteGraph,
    ResilientClient,
    RetryPolicy,
    TokenBucket,
    VirtualClock,
    estimate_average_degree,
    estimate_pagerank,
)
from repro.graph import barabasi_albert_graph  # noqa: E402
from repro.resilience import FaultKind, FaultPlan  # noqa: E402


def make_stack(graph, *, cache_bytes, plans=(), rate_limit=None,
               limiter_rate=None, outages=(), breaker=None):
    """One crawl stack over ``graph`` on a fresh virtual clock."""
    clock = VirtualClock()
    transport = InjectedFaultTransport(
        graph,
        clock=clock,
        plans=plans,
        rate_limit=rate_limit,
        outages=outages,
    )
    client = ResilientClient(
        transport,
        policy=RetryPolicy(seed=3),
        limiter=TokenBucket(limiter_rate, clock=clock),
        breaker=breaker
        if breaker is not None
        else CircuitBreaker(clock=clock),
        clock=clock,
    )
    return clock, client, RemoteGraph(client, cache=cache_bytes)


def true_average_degree(graph):
    return float(
        np.mean([graph.degree(v) for v in range(graph.num_nodes)])
    )


def exact_restart_distribution(graph, query, decay=0.85, rounds=200):
    """Exact visit distribution of decay-terminated restart walks."""
    n = graph.num_nodes
    transition = np.zeros((n, n))
    for u in range(n):
        ids = graph.neighbors(u)
        w = graph.neighbor_weights(u)
        if len(ids) and w.sum() > 0:
            transition[u, ids] = w / w.sum()
    step = np.zeros(n)
    step[query] = 1.0
    visits = step.copy()
    for _ in range(rounds):
        step = decay * step @ transition
        visits += step
        if step.sum() < 1e-12:
            break
    return visits / visits.sum()


# ----------------------------------------------------------------------
# scenario 1: accuracy vs API calls, by cache budget
# ----------------------------------------------------------------------
def run_accuracy(graph, *, degree_samples, pr_samples, cache_budgets):
    truth_deg = true_average_degree(graph)
    truth_pr = exact_restart_distribution(graph, query=0)
    out = []
    for label, cache_bytes in cache_budgets:
        _, client, rgraph = make_stack(graph, cache_bytes=cache_bytes)
        deg = estimate_average_degree(
            rgraph,
            num_samples=degree_samples,
            rng=12,
            snapshot_every=max(1, degree_samples // 10),
        )
        pr = estimate_pagerank(
            rgraph,
            0,
            num_samples=pr_samples,
            max_length=40,
            rng=13,
            snapshot_every=max(1, pr_samples // 10),
        )
        degree_curve = [
            {
                "api_calls": calls,
                "estimate": round(value, 4),
                "rel_error": round(abs(value - truth_deg) / truth_deg, 4),
            }
            for calls, value in deg.curve
        ]
        pagerank_curve = [
            {
                "api_calls": calls,
                "l1_error": round(float(np.abs(snap - truth_pr).sum()), 4),
            }
            for calls, snap in pr.curve
        ]
        out.append(
            {
                "cache": label,
                "cache_bytes": cache_bytes,
                "api_calls": rgraph.api_calls,
                "cache_stats": rgraph.cache.stats(),
                "degree": {
                    "true": round(truth_deg, 4),
                    "estimate": round(deg.average_degree, 4),
                    "rel_error": degree_curve[-1]["rel_error"],
                    "curve": degree_curve,
                },
                "pagerank": {
                    "l1_error": pagerank_curve[-1]["l1_error"],
                    "curve": pagerank_curve,
                },
            }
        )
    return out


# ----------------------------------------------------------------------
# scenario 2: resilience + byte-determinism under different timings
# ----------------------------------------------------------------------
def run_resilience(graph, *, degree_samples):
    def one(latency_seed, latency_scale, limiter_rate):
        plans = [
            FaultPlan(
                kind=FaultKind.LATENCY,
                rate=0.4,
                seed=latency_seed,
                latency_seconds=latency_scale,
            ),
            FaultPlan(
                kind=FaultKind.FLAKY, rate=0.1, seed=99, failures_per_chunk=1
            ),
        ]
        clock, client, rgraph = make_stack(
            graph,
            cache_bytes=1 << 20,
            plans=plans,
            rate_limit=50.0,
            limiter_rate=limiter_rate,
        )
        result = estimate_average_degree(
            rgraph, num_samples=degree_samples, rng=12
        )
        return clock, client, result

    clock_a, client_a, run_a = one(1, 0.05, 40.0)
    clock_b, client_b, run_b = one(2, 0.5, 9.0)
    identical = run_a.average_degree == run_b.average_degree
    return {
        "timing_a": {
            "virtual_seconds": round(clock_a.now, 3),
            "retries": client_a.retries,
            "transient_failures": client_a.transient_failures,
            "limiter_waits": client_a.limiter.stats()["waits"],
        },
        "timing_b": {
            "virtual_seconds": round(clock_b.now, 3),
            "retries": client_b.retries,
            "transient_failures": client_b.transient_failures,
            "limiter_waits": client_b.limiter.stats()["waits"],
        },
        "estimate": round(run_a.average_degree, 6),
        "byte_identical_across_timings": bool(identical),
    }


# ----------------------------------------------------------------------
# scenario 3: circuit-breaker recovery through an outage
# ----------------------------------------------------------------------
def run_breaker_recovery(graph, *, degree_samples):
    clock = VirtualClock()
    transport = InjectedFaultTransport(
        graph, clock=clock, outages=[(0.0, 10.0)]
    )
    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout=2.0, clock=clock
    )
    client = ResilientClient(
        transport,
        policy=RetryPolicy(seed=3, max_attempts=2, base_delay=0.01),
        breaker=breaker,
        clock=clock,
    )
    rgraph = RemoteGraph(client, cache=1 << 20)
    result = estimate_average_degree(rgraph, num_samples=degree_samples, rng=5)
    moves = [(a, b) for a, b, _ in breaker.transitions]
    return {
        "outage_seconds": 10.0,
        "opens": breaker.opens,
        "transitions": [
            {"from": a, "to": b, "at": round(t, 4)}
            for a, b, t in breaker.transitions
        ],
        "recovered": breaker.state is CircuitState.CLOSED,
        "half_open_probe_failures": moves.count(("half_open", "open")),
        "circuit_waits": result.circuit_waits,
        "estimate": round(result.average_degree, 4),
        "virtual_seconds": round(clock.now, 3),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph and sample counts for CI (seconds)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero unless estimators converge, the cache cuts "
            "API calls, timing-independence holds, and the breaker "
            "recovers"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "result JSON path (default: BENCH_crawl.json for the full "
            "run; --quick writes only when this is given)"
        ),
    )
    args = parser.parse_args(argv)

    if args.quick:
        num_nodes, degree_samples, pr_samples = 150, 800, 800
    else:
        num_nodes, degree_samples, pr_samples = 500, 4000, 4000
    graph = barabasi_albert_graph(num_nodes, 3, rng=7)
    row_bytes = 2 * 8 * max(
        graph.degree(v) for v in range(graph.num_nodes)
    )
    cache_budgets = [
        ("none", 0),
        ("tight", 4 * row_bytes),
        ("ample", 1 << 22),
    ]

    print(f"[bench_crawl] graph: {num_nodes} nodes, accuracy sweep ...", flush=True)
    accuracy = run_accuracy(
        graph,
        degree_samples=degree_samples,
        pr_samples=pr_samples,
        cache_budgets=cache_budgets,
    )
    for entry in accuracy:
        print(
            f"  cache={entry['cache']:>5}: {entry['api_calls']:>7} API calls, "
            f"degree rel_err={entry['degree']['rel_error']:.4f}, "
            f"pagerank l1={entry['pagerank']['l1_error']:.4f}"
        )

    print("[bench_crawl] resilience / determinism ...", flush=True)
    resilience = run_resilience(graph, degree_samples=degree_samples // 2)
    print(
        f"  timings {resilience['timing_a']['virtual_seconds']}s vs "
        f"{resilience['timing_b']['virtual_seconds']}s, byte-identical: "
        f"{resilience['byte_identical_across_timings']}"
    )

    print("[bench_crawl] breaker recovery ...", flush=True)
    recovery = run_breaker_recovery(graph, degree_samples=degree_samples // 4)
    print(
        f"  opens={recovery['opens']}, probe failures="
        f"{recovery['half_open_probe_failures']}, recovered={recovery['recovered']}"
    )

    report = {
        "benchmark": "crawl-accuracy-vs-api-calls",
        "mode": "quick" if args.quick else "full",
        "workload": {
            "graph": f"barabasi-albert power law ({num_nodes} nodes, attach=3)",
            "degree_samples": degree_samples,
            "pagerank_samples": pr_samples,
        },
        "methodology": (
            "estimators crawl a simulated remote API on a virtual clock; "
            "error is measured against the hidden ground truth as a "
            "function of billable API calls, per history-cache budget"
        ),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "accuracy": accuracy,
        "resilience": resilience,
        "breaker_recovery": recovery,
    }
    output = args.output or (None if args.quick else "BENCH_crawl.json")
    if output:
        Path(output).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"[bench_crawl] wrote {output}")

    if args.check:
        failures = []
        final = {e["cache"]: e for e in accuracy}
        if final["ample"]["degree"]["rel_error"] > 0.2:
            failures.append(
                f"degree estimate did not converge: rel_error "
                f"{final['ample']['degree']['rel_error']}"
            )
        if final["ample"]["pagerank"]["l1_error"] > 0.3:
            failures.append(
                f"pagerank estimate did not converge: l1 "
                f"{final['ample']['pagerank']['l1_error']}"
            )
        if not final["ample"]["api_calls"] < final["none"]["api_calls"]:
            failures.append(
                f"history cache did not cut API calls: "
                f"{final['ample']['api_calls']} vs {final['none']['api_calls']}"
            )
        if not resilience["byte_identical_across_timings"]:
            failures.append("estimate changed under different injected timings")
        if recovery["opens"] < 1 or not recovery["recovered"]:
            failures.append(
                f"breaker did not open and recover: opens={recovery['opens']}, "
                f"recovered={recovery['recovered']}"
            )
        if failures:
            print("[bench_crawl] CHECK FAILED:", "; ".join(failures))
            return 1
        print(
            "[bench_crawl] check passed: estimators converge, cache cuts "
            "calls, timing-independent, breaker recovers"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
