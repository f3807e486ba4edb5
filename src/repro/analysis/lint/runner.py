"""File discovery, rule execution, and result assembly for ``reprolint``.

:func:`run_lint` is the programmatic entry point the CLI, the CI job,
and the self-check test all share: given paths and a baseline it returns
a :class:`LintResult` splitting findings into *new* (fail the build) and
*baselined* (grandfathered, listed only on request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import Baseline, fingerprint_findings
from .engine import (
    Finding,
    LintConfigError,
    Rule,
    SourceFile,
    check_file,
    iter_rules,
    parse_source_file,
)

#: directories never linted even when nested under a requested path.
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build", "dist"}


def discover_files(paths: Sequence["Path | str"]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    seen.setdefault(sub.resolve(), None)
        elif path.is_file():
            seen.setdefault(path.resolve(), None)
        else:
            raise LintConfigError(f"no such file or directory: {path}")
    return sorted(seen)


@dataclass
class LintResult:
    """Outcome of one lint run over a set of files."""

    files: list[str] = field(default_factory=list)
    new_findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean modulo the baseline — the ``--check`` gate."""
        return not self.new_findings

    def summary(self) -> str:
        """One-line human summary for the end of the report."""
        return (
            f"{len(self.files)} file(s) checked: "
            f"{len(self.new_findings)} new finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.stale_baseline)} stale baseline entr(y/ies)"
        )

    def to_dict(self) -> dict:
        """JSON payload for ``--format json``."""
        return {
            "files_checked": len(self.files),
            "ok": self.ok,
            "new_findings": [f.to_dict() for f in self.new_findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": list(self.stale_baseline),
        }


def _partition_rule_ids(
    rules: "Iterable[str] | None",
    flow: bool,
    kcc: bool = False,
) -> tuple[
    "list[str] | None",
    "list[str] | None",
    bool,
    "list[str] | None",
    bool,
]:
    """Split requested rule ids into (per-file, flow, kcc) selections.

    ``None`` means "all rules of that kind".  Explicitly requesting a
    ``FLOW-*`` id enables the flow pass even without ``flow=True``, and
    a ``KCC*`` id the kernel-contract pass without ``kcc=True``.
    """
    from ..flow.rules import FLOW_RULE_REGISTRY
    from ..kcc.rules import KCC_RULE_REGISTRY

    if rules is None:
        return (
            None,
            (None if flow else []),
            flow,
            (None if kcc else []),
            kcc,
        )
    file_ids: list[str] = []
    flow_ids: list[str] = []
    kcc_ids: list[str] = []
    for rid in rules:
        if rid in FLOW_RULE_REGISTRY:
            flow_ids.append(rid)
        elif rid in KCC_RULE_REGISTRY:
            kcc_ids.append(rid)
        else:
            file_ids.append(rid)  # unknown ids rejected by iter_rules
    run_flow = flow or bool(flow_ids)
    run_kcc = kcc or bool(kcc_ids)
    return (
        file_ids,
        None if (flow and not flow_ids) else flow_ids,
        run_flow,
        None if (kcc and not kcc_ids) else kcc_ids,
        run_kcc,
    )


def run_lint(
    paths: Sequence["Path | str"],
    *,
    rules: Iterable[str] | None = None,
    baseline: "Baseline | Path | str | None" = None,
    root: "Path | None" = None,
    flow: bool = False,
    kcc: bool = False,
    restrict_to: "Iterable[str] | None" = None,
) -> tuple[LintResult, "list[tuple[Finding, str]]"]:
    """Lint ``paths`` and split findings against ``baseline``.

    ``flow=True`` additionally builds the whole-program call graph over
    *all* discovered files and runs the interprocedural FLOW passes;
    ``kcc=True`` runs the kernel-contract checker (KCC101–KCC105) the
    same way.  ``restrict_to`` (display paths, e.g. from ``--changed``)
    limits which files are rule-checked and reported — the whole-program
    passes still see everything so cross-file reasoning stays sound,
    but only findings in restricted files are reported.

    Returns the :class:`LintResult` plus the full fingerprinted finding
    list (the raw material for ``--update-baseline``).
    """
    rule_list = list(rules) if rules is not None else None
    (
        file_ids,
        flow_ids,
        run_flow,
        kcc_ids,
        run_kcc,
    ) = _partition_rule_ids(rule_list, flow, kcc)
    selected: list[Rule] = iter_rules(file_ids)
    if not isinstance(baseline, Baseline):
        baseline = Baseline.load(baseline)
    if root is None:
        # Repo-relative display paths keep baseline fingerprints stable
        # across checkouts; files outside the root fall back to absolute.
        root = default_baseline_path().parent
    restricted = set(restrict_to) if restrict_to is not None else None

    sources: dict[str, SourceFile] = {}
    findings: list[Finding] = []
    files: list[str] = []
    for path in discover_files(paths):
        src = parse_source_file(path, root=root)
        sources[src.display_path] = src
        if restricted is not None and src.display_path not in restricted:
            continue
        files.append(src.display_path)
        findings.extend(check_file(src, selected))

    if run_flow:
        from ..flow import build_program, check_program
        from ..flow.rules import iter_flow_rules

        program = build_program(sources)
        flow_findings = check_program(program, iter_flow_rules(flow_ids))
        if restricted is not None:
            flow_findings = [
                f for f in flow_findings if f.path in restricted
            ]
        findings.extend(flow_findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if run_kcc:
        from ..kcc import build_kcc_program, check_kcc_program, iter_kcc_rules

        kcc_program = build_kcc_program(sources)
        kcc_findings = check_kcc_program(kcc_program, iter_kcc_rules(kcc_ids))
        if restricted is not None:
            kcc_findings = [f for f in kcc_findings if f.path in restricted]
        findings.extend(kcc_findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    fingerprinted = fingerprint_findings(findings, sources)
    # A not-yet-migrated version-1 baseline still matches through the
    # legacy hashing scheme; ``--update-baseline`` rewrites it to v2.
    legacy = (
        fingerprint_findings(findings, sources, version=1)
        if baseline.version == 1
        else fingerprinted
    )
    result = LintResult(files=files)
    matched: set[str] = set()
    for (finding, fingerprint), (_, old_print) in zip(fingerprinted, legacy):
        if fingerprint in baseline:
            matched.add(fingerprint)
            result.baselined.append(finding)
        elif old_print in baseline:
            matched.add(old_print)
            result.baselined.append(finding)
        else:
            result.new_findings.append(finding)
    from ..flow.rules import FLOW_RULE_REGISTRY
    from ..kcc.rules import KCC_RULE_REGISTRY

    checked = set(files)

    def judgeable(entry: "object") -> bool:
        # Only entries for files/rules we actually ran can be judged
        # stale; a partial lint (single file, --changed, no
        # --flow/--kcc) must not report the rest of the baseline
        # as obsolete.
        rule = getattr(entry, "rule", "")
        path = getattr(entry, "path", "")
        if rule in FLOW_RULE_REGISTRY:
            return run_flow and restricted is None and path in sources
        if rule in KCC_RULE_REGISTRY:
            return run_kcc and restricted is None and path in sources
        return path in checked

    result.stale_baseline = sorted(
        fp
        for fp, entry in baseline.entries.items()
        if fp not in matched and judgeable(entry)
    )
    return result, fingerprinted


def changed_files(
    ref: str = "origin/main", root: "Path | None" = None
) -> set[str]:
    """Repo-relative ``.py`` paths differing from ``ref`` (plus untracked).

    Backs ``repro lint --changed``: the CI lint job and pre-commit use
    lint only what a branch actually touched instead of rescanning the
    whole tree.  Raises :class:`LintConfigError` when ``git`` fails
    (unknown ref, not a repository) so the CLI exits 2 rather than
    silently linting nothing.
    """
    import subprocess

    if root is None:
        root = default_baseline_path().parent
    out: set[str] = set()
    commands = [
        ["git", "diff", "--name-only", "--diff-filter=d", ref, "--", "*.py"],
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
    ]
    for cmd in commands:
        try:
            proc = subprocess.run(
                cmd,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            )
        except FileNotFoundError as exc:
            raise LintConfigError(f"--changed requires git: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise LintConfigError(f"git timed out: {exc}") from exc
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or "").strip() or f"exit code {exc.returncode}"
            raise LintConfigError(
                f"git diff against {ref!r} failed: {detail}"
            ) from exc
        out.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return out


def default_baseline_path(root: "Path | str | None" = None) -> Path:
    """``reprolint-baseline.json`` at the repository root.

    The root is located by walking up from this file to the directory
    holding ``pyproject.toml`` — robust to both editable installs and
    ``PYTHONPATH=src`` execution.  Falls back to the current directory.
    """
    if root is not None:
        return Path(root) / "reprolint-baseline.json"
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "reprolint-baseline.json"
    return Path("reprolint-baseline.json")
