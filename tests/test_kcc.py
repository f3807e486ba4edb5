"""Tests for the kernel contract checker (``repro.analysis.kcc``).

Three layers, mirroring the pass split:

* **contract extraction** — the real ``src/repro`` tree yields the seven
  shipped kernels with the right roles, dims, sentinels and uniform
  arities, serialised into the committed ``kernel-contracts.json``;
* **rules** — each planted fixture class fires (backend parity drift,
  silent dtype widening/narrowing, float fancy indexing, shape-dim
  mixing, degree-scaled allocation, in-kernel raise, uniform over/under-
  draw, unscoped uniforms) and each good twin stays silent;
* **conformance** — the static per-kernel uniform-draw bounds agree with
  the DSan runtime per-kernel draw attribution on a real sanitized walk.
"""

import json
from pathlib import Path

import pytest

from repro import Node2VecModel
from repro.analysis.dsan import DsanReport
from repro.analysis.kcc import (
    KCC_RULE_REGISTRY,
    collect_contracts,
    collect_program,
    render_contracts_json,
    static_draw_table,
)
from repro.analysis.lint import Baseline, lint_main, run_lint
from repro.graph import barabasi_albert_graph
from repro.walks import BatchWalkEngine, parallel_walks

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

SHIPPED_KERNELS = {
    "regroup_pairs",
    "gather_segments",
    "segmented_inverse_cdf",
    "flat_alias_pick",
    "gathered_alias_pick",
    "acceptance_mask",
    "advance_frontier",
}


def kcc_findings(files, rules=None):
    """Lint fixture ``files`` with the kcc pass and no baseline."""
    result, _ = run_lint(
        [FIXTURES / name for name in files],
        rules=rules,
        baseline=Baseline(),
        root=FIXTURES,
        kcc=True,
    )
    return result.new_findings


# ----------------------------------------------------------------------
# contract extraction over the real tree
# ----------------------------------------------------------------------
class TestContractExtraction:
    @pytest.fixture(scope="class")
    def program(self):
        return collect_program()

    def test_all_shipped_kernels_extracted(self, program):
        assert set(program.contracts) == SHIPPED_KERNELS
        assert program.reference is not None
        assert set(program.backends) == {"numba"}

    def test_uniform_arities(self, program):
        arities = {
            name: len(contract.uniform_params)
            for name, contract in program.contracts.items()
        }
        assert arities == {
            "regroup_pairs": 0,
            "gather_segments": 0,
            "segmented_inverse_cdf": 1,
            "flat_alias_pick": 2,
            "gathered_alias_pick": 2,
            "acceptance_mask": 1,
            "advance_frontier": 0,
        }

    def test_xp_first_and_dtypes_known(self, program):
        for contract in program.contracts.values():
            assert contract.params[0].role == "xp"
            for param in contract.params[1:]:
                assert param.dtype in (
                    "bool", "int32", "int64", "float32", "float64"
                ), (
                    contract.name,
                    param.name,
                )
                assert param.dim, (contract.name, param.name)

    def test_sentinel_and_mutation_metadata(self, program):
        assert program.contracts["segmented_inverse_cdf"].sentinel
        assert set(program.contracts["advance_frontier"].mutates) == {
            "previous",
            "current",
            "active",
        }
        assert program.contracts["advance_frontier"].returns == "None"

    def test_static_draw_table(self):
        table = static_draw_table()
        assert table["segmented_inverse_cdf"] == 1
        assert table["flat_alias_pick"] == 2
        assert table["gathered_alias_pick"] == 2
        assert table["acceptance_mask"] == 1
        assert table["walker_streams"] == 1
        assert table["regroup_pairs"] == 0

    def test_every_scope_names_a_known_kernel_or_pseudo_scope(self, program):
        table = static_draw_table()
        for site in program.scopes:
            assert site.scope in table


# ----------------------------------------------------------------------
# the committed contract JSON
# ----------------------------------------------------------------------
class TestContractsJson:
    def test_committed_contracts_json_is_fresh(self):
        committed = (REPO_ROOT / "kernel-contracts.json").read_text(
            encoding="utf-8"
        )
        regenerated = render_contracts_json(collect_contracts())
        assert committed == regenerated, (
            "kernel-contracts.json is stale; regenerate with "
            "`repro lint --kcc --contracts-json kernel-contracts.json`"
        )

    def test_payload_shape(self):
        payload = json.loads(
            (REPO_ROOT / "kernel-contracts.json").read_text(encoding="utf-8")
        )
        assert payload["version"] == 1
        assert {k["name"] for k in payload["kernels"]} == SHIPPED_KERNELS
        assert payload["draws_per_call"]["flat_alias_pick"] == 2
        scoped = {s["scope"] for s in payload["scopes"]}
        assert "segmented_inverse_cdf" in scoped

    def test_cli_writes_contracts_json(self, tmp_path, capsys):
        target = tmp_path / "contracts.json"
        argv = [
            str(REPO_ROOT / "src" / "repro"),
            "--no-baseline",
            "--rules",
            "KCC101",
            "--contracts-json",
            str(target),
        ]
        assert lint_main(argv) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert {k["name"] for k in payload["kernels"]} == SHIPPED_KERNELS
        assert "kernel contracts written" in capsys.readouterr().out


# ----------------------------------------------------------------------
# per-rule detection on planted fixtures
# ----------------------------------------------------------------------
class TestKernelParityRule:
    def test_bad_backend_fires_every_drift_class(self):
        findings = kcc_findings(
            ["kcc_parity_ref.py", "kcc_parity_bad.py"], rules=["KCC101"]
        )
        assert len(findings) == 5
        assert all(f.rule == "KCC101" for f in findings)
        assert all(f.path.endswith("kcc_parity_bad.py") for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "missing kernel 'pick_columns'" in messages
        assert "KERNEL_NAMES drift" in messages
        assert "parameter drift" in messages
        assert "annotation drift" in messages
        assert "return annotation drift" in messages

    def test_conformant_backend_is_clean(self):
        assert kcc_findings(["kcc_parity_ref.py", "kcc_parity_good.py"]) == []

    def test_real_backends_hold_parity(self):
        result, _ = run_lint(
            [REPO_ROOT / "src" / "repro" / "walks" / "kernels"],
            rules=["KCC101"],
            baseline=Baseline(),
            kcc=True,
        )
        assert result.new_findings == []


class TestKernelDtypeRule:
    def test_bad_kernels_fire_every_category(self):
        findings = kcc_findings(["kcc_dtype_bad.py"], rules=["KCC102"])
        assert len(findings) == 4
        categories = {f.message.split("]")[0].lstrip("[") for f in findings}
        assert categories == {"implicit-cast", "float-index", "shape-mismatch"}

    def test_explicit_casts_are_clean(self):
        assert kcc_findings(["kcc_dtype_good.py"]) == []


class TestKernelAllocAndRaiseRules:
    def test_degree_allocation_and_raise_fire(self):
        findings = kcc_findings(
            ["kcc_alloc_bad.py"], rules=["KCC103", "KCC104"]
        )
        rules = sorted(f.rule for f in findings)
        assert rules == ["KCC103", "KCC104"]
        alloc = next(f for f in findings if f.rule == "KCC103")
        assert "degrees" in alloc.message

    def test_inline_suppression_works_for_kcc(self, tmp_path):
        source = (FIXTURES / "kcc_alloc_bad.py").read_text(encoding="utf-8")
        source = source.replace(
            "raise ValueError(\"empty segment\")  # finding: KCC104",
            "raise ValueError(\"empty segment\")  # reprolint: disable=KCC104",
        )
        fixture = tmp_path / "kcc_alloc_suppressed.py"
        fixture.write_text(source, encoding="utf-8")
        result, _ = run_lint(
            [fixture],
            rules=["KCC104"],
            baseline=Baseline(),
            root=tmp_path,
            kcc=True,
        )
        assert result.new_findings == []


class TestUniformAccountingRule:
    def test_bad_driver_fires_every_accounting_class(self):
        findings = kcc_findings(
            ["kcc_parity_ref.py", "kcc_uniform_bad.py"], rules=["KCC105"]
        )
        assert len(findings) == 4
        assert all(f.path.endswith("kcc_uniform_bad.py") for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "over-draws" in messages
        assert "under-draws" in messages
        assert "drawn outside any kernel_scope" in messages
        assert "no chunk-generator draws" in messages

    def test_scoped_driver_is_clean(self):
        assert kcc_findings(["kcc_parity_ref.py", "kcc_uniform_good.py"]) == []


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestKccCli:
    def test_kcc_rules_listed(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in KCC_RULE_REGISTRY:
            assert rule_id in out

    def test_check_fails_on_planted_fixture(self):
        argv = [
            str(FIXTURES / "kcc_alloc_bad.py"),
            "--no-baseline",
            "--check",
            "--rules",
            "KCC103,KCC104",
        ]
        assert lint_main(argv) == 1

    def test_naming_a_kcc_rule_implies_the_pass(self):
        # No --kcc flag: selecting KCC ids alone must still run the pass.
        findings = kcc_findings(["kcc_alloc_bad.py"], rules=["KCC103"])
        assert len(findings) == 1

    def test_kcc_clean_on_shipped_tree(self):
        argv = [
            str(REPO_ROOT / "src" / "repro"),
            "--no-baseline",
            "--check",
            "--rules",
            ",".join(sorted(KCC_RULE_REGISTRY)),
        ]
        assert lint_main(argv) == 0

    def test_github_output_format(self, capsys):
        argv = [
            str(FIXTURES / "kcc_alloc_bad.py"),
            "--no-baseline",
            "--check",
            "--rules",
            "KCC103",
            "--output-format",
            "github",
        ]
        assert lint_main(argv) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=KCC103" in out
        assert ",line=" in out and ",col=" in out

    def test_github_output_format_clean_run(self, capsys):
        argv = [
            str(FIXTURES / "kcc_parity_ref.py"),
            "--no-baseline",
            "--check",
            "--output-format",
            "github",
        ]
        assert lint_main(argv) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "0 new finding(s)" in out


# ----------------------------------------------------------------------
# static bounds vs DSan runtime attribution
# ----------------------------------------------------------------------
class TestDsanConformance:
    def test_static_draw_bounds_match_runtime_attribution(self):
        graph = barabasi_albert_graph(40, 3, rng=5)
        engine = BatchWalkEngine(graph, Node2VecModel(0.5, 2.0))
        corpus = parallel_walks(
            engine,
            num_walks=2,
            length=10,
            workers=1,
            chunk_size=8,
            rng=7,
            dsan=True,
        )
        report = DsanReport.from_dict(corpus.metadata["dsan"])
        static = static_draw_table()

        runtime: dict[str, int] = {}
        for fingerprint in report.fingerprints.values():
            for name, count in fingerprint.kernels:
                runtime[name] = runtime.get(name, 0) + count
        attributed = {
            name: count for name, count in runtime.items() if name != "<chunk>"
        }
        assert attributed, "no kernel-attributed draws recorded"

        # Every runtime attribution scope must be statically known, and
        # its draw count an exact multiple of the static per-call bound.
        for name, count in attributed.items():
            assert name in static, f"runtime scope {name!r} not in static table"
            per_call = static[name]
            assert per_call > 0, (
                f"runtime draws under {name!r} but static bound is zero"
            )
            assert count % per_call == 0, (
                f"{name}: {count} runtime draws not a multiple of the "
                f"static {per_call}/call bound"
            )
