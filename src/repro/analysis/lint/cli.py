"""Command-line front end for ``reprolint``.

Reached three ways, all sharing :func:`lint_main`:

* ``repro lint [paths...]`` — subcommand of the main CLI;
* ``python -m repro.analysis`` — direct module entry point;
* the CI ``lint`` job — ``repro lint --check`` (``--check`` is the
  default behaviour made explicit, so the job reads as intent).

Exit codes: 0 clean (modulo baseline), 1 new findings or stale baseline
entries under ``--check``, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import Baseline
from .engine import RULE_REGISTRY, LintConfigError
from .runner import changed_files, default_baseline_path, run_lint


def build_lint_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    """Argument parser for the ``lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "reprolint: AST-based invariant linter for the repro codebase "
            "(determinism, memory accounting, hot-path purity)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the src/repro tree)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero on any new finding or stale baseline entry "
            "(the default exit policy, stated explicitly for CI)"
        ),
    )
    parser.add_argument(
        "--output-format",
        "--format",
        dest="output_format",
        choices=["text", "json", "github", "sarif"],
        default="text",
        help=(
            "report format (default text): 'json' prints the structured "
            "LintResult payload, 'github' prints GitHub Actions "
            "::error/::warning workflow annotations so findings surface "
            "inline on pull requests, 'sarif' prints a SARIF 2.1.0 log "
            "suitable for GitHub code scanning upload"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            "(default: reprolint-baseline.json at the repo root)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to cover all current findings "
            "(existing justifications are preserved)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        help=(
            "comma-separated rule ids to run (default: all per-file "
            "rules; naming a FLOW-* id implies --flow)"
        ),
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "also run the interprocedural FLOW-RNG/FLOW-MEM/FLOW-MUT "
            "passes over the whole program (call graph + dataflow)"
        ),
    )
    parser.add_argument(
        "--kcc",
        action="store_true",
        help=(
            "also run the kernel contract checker (KCC101-KCC105): "
            "backend signature parity, dtype/shape abstract "
            "interpretation of kernel bodies, and static uniform-draw "
            "accounting of kernel_scope blocks"
        ),
    )
    parser.add_argument(
        "--contracts-json",
        default=None,
        metavar="PATH",
        help=(
            "additionally write the machine-readable kernel contract "
            "(kernel-contracts.json) derived from the linted tree to "
            "PATH — the signature a new kernel backend must satisfy"
        ),
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="origin/main",
        default=None,
        metavar="REF",
        help=(
            "lint only files differing from REF (default origin/main); "
            "with --flow the call graph still covers the whole tree, "
            "but only findings in changed files are reported"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings matched by the baseline",
    )
    return parser


def _default_paths() -> list[str]:
    """The ``src/repro`` tree this module is installed from."""
    from pathlib import Path

    package_root = Path(__file__).resolve().parents[2]
    return [str(package_root)]


def _github_annotation(finding) -> str:
    """One GitHub Actions workflow command for ``finding``.

    ``::error file=...,line=...,col=...,title=RULE::message`` — the
    runner turns these into inline annotations on the pull request.
    Message text is %-escaped per the workflow-command grammar.
    """
    level = "error" if finding.severity == "error" else "warning"
    message = finding.message
    if finding.symbol:
        message = f"{message} [{finding.symbol}]"
    message = (
        message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.rule}::{message}"
    )


def _write_contracts(paths, output) -> None:
    """Derive the kernel contract from ``paths`` and write it to disk."""
    from pathlib import Path

    from ..kcc import collect_contracts, render_contracts_json

    payload = collect_contracts(paths)
    Path(output).write_text(render_contracts_json(payload), encoding="utf-8")
    print(f"kernel contracts written: {output} ({len(payload['kernels'])} kernel(s))")


def _rule_catalogue() -> list:
    """Every registered rule across the per-file, FLOW and KCC passes."""
    from ..flow.rules import FLOW_RULE_REGISTRY
    from ..kcc.rules import KCC_RULE_REGISTRY

    return (
        list(RULE_REGISTRY.values())
        + list(FLOW_RULE_REGISTRY.values())
        + list(KCC_RULE_REGISTRY.values())
    )


def _sarif_log(result) -> dict:
    """SARIF 2.1.0 log for GitHub code scanning upload.

    Only *new* findings become results — baselined findings are the
    repository's accepted debt and would otherwise re-alert on every
    scan.  Rule metadata covers the full catalogue so code scanning can
    render help text even for rules with no current results.
    """
    rules = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {
                "level": "error" if rule.severity == "error" else "warning",
            },
        }
        for rule in sorted(_rule_catalogue(), key=lambda r: r.id)
    ]
    results = []
    for finding in result.new_findings:
        message = finding.message
        if finding.symbol:
            message = f"{message} [{finding.symbol}]"
        results.append(
            {
                "ruleId": finding.rule,
                "level": (
                    "error" if finding.severity == "error" else "warning"
                ),
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": max(1, finding.col),
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": (
                            "https://github.com/repro/repro"
                            "/blob/main/docs/static_analysis.md"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def lint_main(argv: "list[str] | None" = None) -> int:
    """Run the linter; returns the process exit code."""
    args = build_lint_parser().parse_args(argv)

    if args.list_rules:
        for rule in sorted(_rule_catalogue(), key=lambda r: r.id):
            print(f"{rule.id}  {rule.name:24s} [{rule.severity}] {rule.description}")
        return 0

    paths = args.paths or _default_paths()
    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    baseline_path = args.baseline or default_baseline_path()

    try:
        restrict = (
            changed_files(args.changed) if args.changed is not None else None
        )
        baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
        result, fingerprinted = run_lint(
            paths,
            rules=rules,
            baseline=baseline,
            flow=args.flow,
            kcc=args.kcc,
            restrict_to=restrict,
        )
        if args.contracts_json:
            _write_contracts(paths, args.contracts_json)
    except LintConfigError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        updated = Baseline.from_findings(fingerprinted, previous=baseline)
        updated.save(baseline_path)
        print(f"baseline written: {baseline_path} ({len(updated)} entr(y/ies))")
        return 0

    if args.output_format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.output_format == "sarif":
        print(json.dumps(_sarif_log(result), indent=2))
    elif args.output_format == "github":
        for finding in result.new_findings:
            print(_github_annotation(finding))
        for fingerprint in result.stale_baseline:
            entry = baseline.entries[fingerprint]
            print(
                "::error title=reprolint::stale baseline entry "
                f"{fingerprint} ({entry.rule} in {entry.path}): finding "
                "no longer occurs - remove it or run --update-baseline"
            )
        print(result.summary())
    else:
        for finding in result.new_findings:
            print(finding.render())
        if args.show_baselined:
            for finding in result.baselined:
                print(f"[baselined] {finding.render()}")
        for fingerprint in result.stale_baseline:
            entry = baseline.entries[fingerprint]
            print(
                f"stale baseline entry {fingerprint} "
                f"({entry.rule} in {entry.path}): finding no longer "
                "occurs — remove it or run --update-baseline"
            )
        print(result.summary())

    failed = bool(result.new_findings) or bool(result.stale_baseline)
    return 1 if failed else 0
