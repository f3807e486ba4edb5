"""Tests for the runtime memory-conformance sanitizer (``repro.analysis.msan``).

The dynamic half of the memory-cost contract checker: every
instrumented structure build (alias tables, rejection/alias per-node
sampler state, resident shards) must
report real ``nbytes`` that evaluate *exactly* to the committed
``memory-contracts.json`` terms at the observed dims.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import MemoryAwareFramework, Node2VecModel
from repro.analysis.msan import (
    MemRecord,
    build_report,
    check_records,
    expected_bytes,
    msan_enabled,
    msan_trace,
    verify_records,
)
from repro.exceptions import MemoryConformanceError
from repro.framework.memory import MemoryMeter
from repro.framework.node_samplers import (
    AliasNodeSampler,
    NaiveNodeSampler,
    RejectionNodeSampler,
)
from repro.graph import barabasi_albert_graph, load_edge_list
from repro.graph.sharded import ShardResidencyManager, write_sharded_layout
from repro.sampling.alias import AliasTable

REPO_ROOT = Path(__file__).resolve().parents[1]

CONTRACTS = json.loads(
    (REPO_ROOT / "memory-contracts.json").read_text(encoding="utf-8")
)


@pytest.fixture()
def graph():
    return barabasi_albert_graph(30, 3, rng=11)


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_env_parsing(self, monkeypatch):
        for off in ("", "0", "false", "no", "FALSE", " No "):
            monkeypatch.setenv("REPRO_MSAN", off)
            assert msan_enabled() is False
        for on in ("1", "true", "yes", "anything"):
            monkeypatch.setenv("REPRO_MSAN", on)
            assert msan_enabled() is True
        assert msan_enabled(True) is True
        assert msan_enabled(False) is False

    def test_disabled_traces_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_MSAN", raising=False)
        import repro.analysis.msan as msan

        monkeypatch.setattr(msan, "_TRACER", None)
        AliasTable(np.ones(5))
        assert msan.global_tracer() is None

    def test_scoped_tracer_restores_previous(self):
        import repro.analysis.msan as msan

        with msan_trace() as outer:
            with msan_trace() as inner:
                AliasTable(np.ones(4))
            assert msan.global_tracer() is outer
            assert len(inner.records) == 1
            assert outer.records == []

    def test_env_tracer_checks_eagerly(self, monkeypatch):
        # The environment-activated tracer is fatal at the build site:
        # a divergent record raises immediately, a conformant one does
        # not — REPRO_MSAN=1 pytest needs no report step to fail.
        import repro.analysis.msan as msan

        monkeypatch.setenv("REPRO_MSAN", "1")
        monkeypatch.setattr(msan, "_TRACER", None)
        try:
            msan.trace_alloc("alias_table", 160, d=10.0)  # conformant
            with pytest.raises(MemoryConformanceError):
                msan.trace_alloc("alias_table", 161, d=10.0)
            tracer = msan.global_tracer()
            assert tracer is not None and tracer.check
            assert len(tracer.records) == 1  # the divergent event died
        finally:
            monkeypatch.setattr(msan, "_TRACER", None)


# ----------------------------------------------------------------------
# per-structure conformance against the committed contracts
# ----------------------------------------------------------------------
class TestStructureConformance:
    def test_alias_table_bytes_match_contract(self):
        with msan_trace() as tracer:
            AliasTable(np.ones(13))
        (record,) = tracer.records
        assert record.structure == "alias_table"
        assert record.nbytes == 13 * 8 + 13 * 8
        assert verify_records(tracer.records, CONTRACTS) == []

    def test_rejection_exact_factors_match_contract(self, graph):
        model = Node2VecModel(0.5, 2.0)
        node = 0
        degree = graph.degree(node)
        with msan_trace() as tracer:
            RejectionNodeSampler(
                graph, model, node, factors=np.ones(degree)
            )
        records = [
            r for r in tracer.records if r.structure == "rejection_state"
        ]
        (record,) = records
        assert record.variant is None
        assert record.nbytes == expected_bytes(record, CONTRACTS)
        assert verify_records(tracer.records, CONTRACTS) == []

    def test_rejection_bounded_variant_matches_contract(self, graph):
        # node2vec has a closed-form max_ratio_bound: the factors array
        # is never materialised and the bounded variant terms apply.
        model = Node2VecModel(0.5, 2.0)
        with msan_trace() as tracer:
            RejectionNodeSampler(graph, model, 1)
        records = [
            r for r in tracer.records if r.structure == "rejection_state"
        ]
        (record,) = records
        assert record.variant == "bounded"
        degree = graph.degree(1)
        assert record.nbytes == 16 * degree  # proposal tables only
        assert verify_records(tracer.records, CONTRACTS) == []

    def test_alias_state_matches_contract(self, graph):
        model = Node2VecModel(0.5, 2.0)
        with msan_trace() as tracer:
            AliasNodeSampler(graph, model, 2)
        records = [
            r for r in tracer.records if r.structure == "alias_state"
        ]
        (record,) = records
        degree = graph.degree(2)
        assert dict(record.dims) == {"d": float(degree)}
        assert verify_records(tracer.records, CONTRACTS) == []

    def test_naive_sampler_traces_nothing(self, graph):
        model = Node2VecModel(0.5, 2.0)
        with msan_trace() as tracer:
            NaiveNodeSampler(graph, model, 3)
        assert tracer.records == []

    def test_resident_shards_match_contract(self, graph, tmp_path):
        layout = write_sharded_layout(graph, tmp_path, num_shards=3)
        manager = ShardResidencyManager(layout)
        with msan_trace() as tracer:
            for index in range(layout.num_shards):
                manager.acquire(index)
        records = [
            r for r in tracer.records if r.structure == "resident_shard"
        ]
        assert len(records) == 3
        assert sum(dict(r.dims)["E_s"] for r in records) == graph.num_edges
        assert verify_records(records, CONTRACTS) == []

    def test_batch_walk_workload_is_fully_conformant(self, graph):
        # A budget tight enough to mix rejection and alias samplers.
        with msan_trace() as tracer:
            framework = MemoryAwareFramework(
                graph, Node2VecModel(0.5, 2.0), budget=4_000, rng=0
            )
            framework.batch_engine().walks(num_walks=4, length=12, rng=3)
        assert tracer.records
        report = build_report(tracer, CONTRACTS)
        assert report.ok, report.divergences
        assert {"rejection_state", "alias_state"} <= set(report.by_structure)


# ----------------------------------------------------------------------
# divergence detection and reporting
# ----------------------------------------------------------------------
class TestDivergenceDetection:
    def test_byte_drift_is_reported_exactly(self):
        record = MemRecord(
            structure="alias_table",
            nbytes=10 * 16 + 1,  # one byte over the contract
            dims=(("d", 10.0),),
        )
        divergences = verify_records([record], CONTRACTS)
        assert len(divergences) == 1
        assert "alias_table" in divergences[0]
        assert "161" in divergences[0]
        assert "160" in divergences[0]

    def test_unknown_structure_is_a_divergence(self):
        record = MemRecord(
            structure="mystery_buffer", nbytes=8, dims=(("d", 1.0),)
        )
        assert verify_records([record], CONTRACTS) == [
            "mystery_buffer: no contract terms for structure"
        ]

    def test_unknown_variant_is_a_divergence(self):
        record = MemRecord(
            structure="alias_table",
            nbytes=160,
            dims=(("d", 10.0),),
            variant="compressed",
        )
        (divergence,) = verify_records([record], CONTRACTS)
        assert "variant 'compressed'" in divergence

    def test_check_records_raises_loudly(self):
        record = MemRecord(
            structure="alias_table", nbytes=1, dims=(("d", 10.0),)
        )
        with pytest.raises(MemoryConformanceError) as excinfo:
            check_records([record], CONTRACTS)
        assert "memory sanitizer" in str(excinfo.value)
        check_records([], CONTRACTS)  # no records, nothing to flag

    def test_report_round_trip(self):
        with msan_trace() as tracer:
            AliasTable(np.ones(6))
        report = build_report(tracer, CONTRACTS)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["records"] == 1
        assert payload["by_structure"]["alias_table"]["builds"] == 1
        assert MemRecord.from_dict(
            tracer.records[0].to_dict()
        ) == tracer.records[0]

    def test_derived_contracts_fallback(self):
        # verify_records(None payload) re-derives from source: the live
        # tree must agree with itself.
        with msan_trace() as tracer:
            AliasTable(np.ones(9))
        assert verify_records(tracer.records) == []


# ----------------------------------------------------------------------
# the modeled-side twin: MemoryMeter ledger
# ----------------------------------------------------------------------
class TestMeterLedger:
    def test_ledger_tracks_net_charges_per_label(self):
        meter = MemoryMeter()
        meter.charge(100.0, "alias")
        meter.charge(50.0, "alias")
        meter.charge(30.0, "cache")
        assert meter.ledger == {"alias": 150.0, "cache": 30.0}
        meter.release(150.0, "alias")
        assert meter.ledger == {"cache": 30.0}
        meter.reset()
        assert meter.ledger == {}
        assert meter.peak_bytes == 180.0

    def test_unlabelled_charges_stay_off_ledger(self):
        meter = MemoryMeter()
        meter.charge(64.0)
        assert meter.ledger == {}
        assert meter.used_bytes == 64.0


# ----------------------------------------------------------------------
# msan-report CLI
# ----------------------------------------------------------------------
class TestMsanReportCli:
    @pytest.fixture()
    def edgelist(self, tmp_path, graph):
        path = tmp_path / "graph.txt"
        lines = []
        for node in range(graph.num_nodes):
            for other in graph.neighbors(node):
                if node < other:
                    lines.append(f"{node} {other}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_conformant_run_exits_zero(self, edgelist, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "msan.json"
        code = main(
            [
                "msan-report",
                str(edgelist),
                "--budget",
                "2e3",
                "--num-shards",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "conform to the memory contracts" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["divergences"] == []
        assert "resident_shard" in payload["by_structure"]

    def test_missing_contracts_file_is_an_argument_error(self, edgelist):
        from repro.cli import main

        code = main(
            [
                "msan-report",
                str(edgelist),
                "--budget",
                "2e3",
                "--contracts",
                "/nonexistent/contracts.json",
            ]
        )
        assert code == 2

    def test_divergent_contracts_exit_four(
        self, edgelist, tmp_path, capsys
    ):
        tampered = json.loads(json.dumps(CONTRACTS))
        for structure in tampered["structures"]:
            if structure["name"] == "alias_table":
                structure["terms"] = [
                    {"coeff": 1.0, "monomial": {"d": 1, "b_f": 1}}
                ]
        contracts = tmp_path / "tampered.json"
        contracts.write_text(json.dumps(tampered), encoding="utf-8")
        from repro.cli import main

        code = main(
            [
                "msan-report",
                str(edgelist),
                "--budget",
                "2e3",
                "--contracts",
                str(contracts),
            ]
        )
        assert code == 4
        assert "MSAN DIVERGENCE" in capsys.readouterr().err
