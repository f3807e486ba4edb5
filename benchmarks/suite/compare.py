"""Parent-versus-change comparison under the benchmark's regression rules.

Runs this benchmark's ``run.py`` against two source trees in alternating
pairs (parent first in even pairs, change first in odd ones), at one seed
and one run length, and gives each workload a verdict:

* **improved** — at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither), and the medians differ by more than
  the parent's own spread (the distance between its quartiles);
* **regressed** — the change's median is worse than the parent's by more
  than the metric's tolerance, or more operations failed than at the
  parent;
* **unresolved** — the parent's spread is wider than the tolerance, and
  not every change run beats every parent run;
* **unchanged** — otherwise.

A metric's tolerance is its ``bound`` from ``BENCHMARK.json`` times the
parent's median, but at least its absolute floor (:data:`ABS_FLOOR`).  A
workload's row takes the worst of its metrics' verdicts (regressed,
unresolved, improved, unchanged, in that order).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9
ROW_ORDER = ("regressed", "unresolved", "improved", "unchanged")

#: Smallest change, in the metric's unit, that can count as a regression:
#: ``n2v-sharded`` sets up in milliseconds, where a share of the median is
#: below what a user can notice.
ABS_FLOOR = {"setup_s": 0.05}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    floor: float = 0.0,
) -> dict:
    """Verdict for one metric over aligned pairs of runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = p3 - p1
    tolerance = max(bound * abs(pmed), floor)
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (
        len(parent) >= MIN_PAIRS_FOR_GAIN
        and wins >= WIN_SHARE * len(parent)
        and sign * (cmed - pmed) > spread
    ):
        verdict = "improved"
    elif all_better:
        verdict = "unchanged"
    elif sign * (pmed - cmed) > tolerance:
        verdict = "regressed"
    elif spread > tolerance:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": {"q1": p1, "median": pmed, "q3": p3},
        "change": {"q1": c1, "median": cmed, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "worse_by": worse_by,
        "verdict": verdict,
    }


def workload_verdict(runs: dict, metrics: list[dict]) -> dict:
    """Per-metric verdicts and the row verdict for one workload.

    ``runs`` maps ``"parent"``/``"change"`` to aligned lists of the
    benchmark's result objects.
    """
    rows = {}
    for metric in metrics:
        name = metric["name"]
        rows[name] = metric_verdict(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
            metric["bound"],
            ABS_FLOOR.get(name, 0.0),
        )
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    verdicts = {row["verdict"] for row in rows.values()}
    if failed["change"] > failed["parent"]:
        verdicts.add("regressed")
    row = next(v for v in ROW_ORDER if v in verdicts)
    return {"verdict": row, "failed": failed, "metrics": rows}


def last_json_line(stdout: str) -> dict | None:
    """A run's result object, or ``None`` if it printed none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run_once(
    run_py: Path, root: Path, workload: str, seed: int, seconds: float,
    trace: int = 0, smoke: bool = False,
) -> subprocess.CompletedProcess:
    """One benchmark run of ``workload`` on the tree at ``root``, in a
    fresh subprocess; its standard output is captured."""
    return subprocess.run(
        [
            sys.executable, str(run_py), "--root", str(root),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ] + (["--smoke"] if smoke else []),
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )


def main(argv: list[str], run_py: Path, spec: dict) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two source trees in alternating pairs of runs.",
    )
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout root of the parent commit (holds src/)")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout root of the change (holds src/)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to compare (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_GAIN)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write the runs and verdicts here")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # A claim is named in the issue before measuring, never by this tool.
    report: dict = {"claim": None, "seed": args.seed, "seconds": args.seconds,
                    "workloads": {}}
    for workload in args.workload or names:
        runs: dict = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                proc = run_once(run_py, sides[side], workload, args.seed, args.seconds)
                result = last_json_line(proc.stdout)
                if result is None:
                    raise SystemExit(
                        f"{workload} on {sides[side]}: no result (exit {proc.returncode})"
                    )
                runs[side].append(result)
        result = workload_verdict(runs, spec["end_to_end"])
        report["workloads"][workload] = {**result, "runs": runs}
        print(f"{workload}: {result['verdict']}")
        for name, row in result["metrics"].items():
            p, c = row["parent"], row["change"]
            print(
                f"  {name:<14} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                f"  wins {row['wins']}/{row['pairs']}  {row['verdict']}"
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0
