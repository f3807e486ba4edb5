"""Tests for the memory-cost contract checker (``repro.analysis.mcc``).

Three layers, mirroring the pass split:

* **contract extraction** — the real ``src/repro`` tree yields the
  seven registered structures, each with its allocation polynomial
  matching the analytical cost-model formula, serialised into the
  committed ``memory-contracts.json``;
* **rules** — each planted fixture fires (model drift, itemsize drift,
  unaccounted scaled allocation, allocate-before-charge, guessed cache
  entry sizes, shard arithmetic drift) and each good twin stays silent;
* **integration** — the MCC pass rides the shared lint machinery:
  inline suppressions, rule selection implying the pass, MEM001/FLOW-MEM
  dedup, SARIF output, and a clean shipped tree.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import Baseline, lint_main, run_lint
from repro.analysis.mcc import (
    MCC_RULE_REGISTRY,
    STRUCTURE_SPECS,
    collect_memory_contracts,
    collect_mcc_program,
    parse_poly,
    render_memory_contracts_json,
)

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

REGISTERED_STRUCTURES = {
    "alias_table",
    "rejection_sampler",
    "rejection_state",
    "alias_state",
    "naive_state",
    "resident_shard",
}


def mcc_findings(files, rules=None):
    """Lint fixture ``files`` with the mcc pass and no baseline."""
    result, _ = run_lint(
        [FIXTURES / name for name in files],
        rules=rules,
        baseline=Baseline(),
        root=FIXTURES,
        mcc=True,
    )
    return result.new_findings


# ----------------------------------------------------------------------
# contract extraction over the real tree
# ----------------------------------------------------------------------
class TestContractExtraction:
    @pytest.fixture(scope="class")
    def program(self):
        return collect_mcc_program()

    def test_all_registered_structures_extracted(self, program):
        assert set(program.structures) == REGISTERED_STRUCTURES
        assert {spec.name for spec in STRUCTURE_SPECS} == (
            REGISTERED_STRUCTURES
        )

    def test_every_contract_matches_its_model(self, program):
        for name, contract in program.structures.items():
            assert contract.match is True, (
                name,
                contract.problems,
            )
            assert not contract.problems, (name, contract.problems)

    def test_known_polynomials(self, program):
        rendered = {
            name: contract.to_dict()["allocation"]
            for name, contract in program.structures.items()
        }
        assert rendered["alias_table"] == "d*b_f + d*b_i"
        assert rendered["rejection_sampler"] == "2*d*b_f + d*b_i"
        assert rendered["rejection_state"] == "2*d*b_f + d*b_i"
        assert rendered["alias_state"] == (
            "d**2*b_f + d**2*b_i + d*b_f + d*b_i"
        )
        assert rendered["resident_shard"] == "8*n_s + 16*E_s + 8"

    def test_naive_state_has_no_persistent_allocation(self, program):
        contract = program.structures["naive_state"]
        assert contract.spec.expect_empty
        assert not contract.allocation
        # The model still prices the amortised scratch share.
        assert contract.model == parse_poly("d_max*b_f/N")

    def test_rejection_bounded_variant(self, program):
        contract = program.structures["rejection_state"]
        assert contract.variants["bounded"] == parse_poly("d*b_f + d*b_i")

    def test_allocation_sites_recorded(self, program):
        sites = program.structures["alias_table"].sites
        assert sites, "alias_table extracted no allocation sites"
        assert {site.kind for site in sites} == {"ndarray"}
        assert all(
            site.path.endswith("sampling/alias.py") for site in sites
        )


# ----------------------------------------------------------------------
# the committed contract JSON
# ----------------------------------------------------------------------
class TestMemoryContractsJson:
    def test_committed_contracts_json_is_fresh(self):
        committed = (REPO_ROOT / "memory-contracts.json").read_text(
            encoding="utf-8"
        )
        regenerated = render_memory_contracts_json(
            collect_memory_contracts()
        )
        assert committed == regenerated, (
            "memory-contracts.json is stale; regenerate with `repro lint "
            "--memory-contracts-json memory-contracts.json`"
        )

    def test_payload_shape(self):
        payload = json.loads(
            (REPO_ROOT / "memory-contracts.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["version"] == 1
        assert payload["itemsize"] == {"b_f": 8, "b_i": 8}
        structures = {s["name"]: s for s in payload["structures"]}
        assert set(structures) == REGISTERED_STRUCTURES
        assert all(s["match"] for s in structures.values())
        assert "bounded" in structures["rejection_state"]["variants"]
        assert structures["alias_table"]["terms"]

    def test_cli_writes_memory_contracts_json(self, tmp_path, capsys):
        target = tmp_path / "contracts.json"
        argv = [
            str(REPO_ROOT / "src" / "repro"),
            "--no-baseline",
            "--rules",
            "MCC201",
            "--memory-contracts-json",
            str(target),
        ]
        assert lint_main(argv) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert {s["name"] for s in payload["structures"]} == (
            REGISTERED_STRUCTURES
        )
        assert "memory contracts written" in capsys.readouterr().out


# ----------------------------------------------------------------------
# per-rule detection on planted fixtures
# ----------------------------------------------------------------------
class TestCostModelDriftRule:
    def test_extra_persistent_allocation_is_drift(self):
        findings = mcc_findings(["mcc_drift_bad.py"], rules=["MCC201"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "MCC201"
        assert "2*d*b_f + d*b_i" in finding.message
        assert "d*b_f + d*b_i" in finding.message

    def test_matching_builder_is_clean(self):
        assert mcc_findings(["mcc_drift_good.py"], rules=["MCC201"]) == []

    def test_itemsize_drift_fires(self):
        findings = mcc_findings(["mcc_itemsize_bad.py"], rules=["MCC201"])
        assert len(findings) == 1
        assert "float32" in findings[0].message
        assert "b_f=8" in findings[0].message


class TestUnaccountedAllocationRule:
    def test_uncharged_scaled_allocations_fire(self):
        findings = mcc_findings(
            ["mcc_unaccounted_bad.py"], rules=["MCC202"]
        )
        assert len(findings) == 2
        assert all(f.rule == "MCC202" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "`empty`" in messages
        assert "`zeros`" in messages

    def test_cache_put_and_budget_guard_are_clean(self):
        assert (
            mcc_findings(
                ["mcc_unaccounted_good.py"], rules=["MCC202", "MCC203"]
            )
            == []
        )


class TestChargeOrderRule:
    def test_allocate_before_charge_fires(self):
        findings = mcc_findings(["mcc_order_bad.py"], rules=["MCC203"])
        assert len(findings) == 2
        assert all("before the budget charge" in f.message for f in findings)

    def test_charge_first_is_clean(self):
        assert mcc_findings(["mcc_order_good.py"], rules=["MCC203"]) == []


class TestCacheEntryBytesRule:
    def test_guessed_sizes_and_external_mutation_fire(self):
        findings = mcc_findings(["mcc_cache_bad.py"], rules=["MCC204"])
        assert len(findings) == 4
        messages = "\n".join(f.message for f in findings)
        assert "GuessingCache.entry_bytes" in messages
        assert "FlatRateCache.entry_bytes" in messages
        assert "`_used` mutated" in messages
        assert "`_peak` mutated" in messages

    def test_nbytes_derived_sizes_are_clean(self):
        assert mcc_findings(["mcc_cache_good.py"], rules=["MCC204"]) == []


class TestShardArithmeticRule:
    def test_every_shard_drift_class_fires(self):
        findings = mcc_findings(["mcc_shard_bad.py"], rules=["MCC205"])
        assert len(findings) == 4
        messages = "\n".join(f.message for f in findings)
        assert "shard_nbytes computes" in messages
        assert "memmap shape element" in messages
        assert "_resident_bytes" in messages
        assert 'manifest "bytes"' in messages

    def test_conformant_shard_arithmetic_is_clean(self):
        assert mcc_findings(["mcc_shard_good.py"], rules=["MCC205"]) == []


# ----------------------------------------------------------------------
# shared-machinery integration
# ----------------------------------------------------------------------
class TestMccIntegration:
    def test_inline_suppression_works_for_mcc(self, tmp_path):
        source = (FIXTURES / "mcc_unaccounted_bad.py").read_text(
            encoding="utf-8"
        )
        source = source.replace(
            "np.empty(degree, dtype=np.float64)  # finding: MCC202",
            "np.empty(degree, dtype=np.float64)  # reprolint: disable=MCC202",
        )
        fixture = tmp_path / "mcc_unaccounted_suppressed.py"
        fixture.write_text(source, encoding="utf-8")
        result, _ = run_lint(
            [fixture],
            rules=["MCC202"],
            baseline=Baseline(),
            root=tmp_path,
            mcc=True,
        )
        assert [f.line for f in result.new_findings] == [25]

    def test_mcc_subsumes_mem001_at_same_site(self):
        # Without the mcc pass the coarse MEM001 heuristic fires; with it
        # the path-sensitive MCC202 wins and MEM001 is dropped per site.
        result, _ = run_lint(
            [FIXTURES / "mcc_unaccounted_bad.py"],
            rules=["MEM001"],
            baseline=Baseline(),
            root=FIXTURES,
        )
        mem_lines = [f.line for f in result.new_findings]
        assert mem_lines == [15]

        result, _ = run_lint(
            [FIXTURES / "mcc_unaccounted_bad.py"],
            rules=["MEM001", "MCC202"],
            baseline=Baseline(),
            root=FIXTURES,
            mcc=True,
        )
        by_rule = sorted((f.rule, f.line) for f in result.new_findings)
        assert by_rule == [("MCC202", 15), ("MCC202", 25)]

    def test_naming_a_mcc_rule_implies_the_pass(self):
        # No --mcc flag: selecting MCC ids alone must still run the pass.
        findings = mcc_findings(["mcc_order_bad.py"], rules=["MCC203"])
        assert len(findings) == 2


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestMccCli:
    def test_mcc_rules_listed(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in MCC_RULE_REGISTRY:
            assert rule_id in out

    def test_check_fails_on_planted_fixture(self):
        argv = [
            str(FIXTURES / "mcc_shard_bad.py"),
            "--no-baseline",
            "--check",
            "--rules",
            "MCC205",
        ]
        assert lint_main(argv) == 1

    def test_mcc_clean_on_shipped_tree(self):
        argv = [
            str(REPO_ROOT / "src" / "repro"),
            "--no-baseline",
            "--check",
            "--rules",
            ",".join(sorted(MCC_RULE_REGISTRY)),
        ]
        assert lint_main(argv) == 0

    def test_sarif_output_format(self, capsys):
        argv = [
            str(FIXTURES / "mcc_shard_bad.py"),
            "--no-baseline",
            "--check",
            "--rules",
            "MCC205",
            "--output-format",
            "sarif",
        ]
        assert lint_main(argv) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert MCC_RULE_REGISTRY.keys() <= rule_ids
        results = run["results"]
        assert len(results) == 4
        assert all(r["ruleId"] == "MCC205" for r in results)
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "mcc_shard_bad.py"
        )
        assert location["region"]["startLine"] >= 1

    def test_sarif_output_format_clean_run(self, capsys):
        argv = [
            str(FIXTURES / "mcc_shard_good.py"),
            "--no-baseline",
            "--check",
            "--rules",
            "MCC205",
            "--output-format",
            "sarif",
        ]
        assert lint_main(argv) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []
