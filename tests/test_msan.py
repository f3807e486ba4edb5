"""Tests for the runtime memory-conformance sanitizer (``repro.analysis.msan``).

Every instrumented structure build (alias tables, rejection/alias
per-node sampler state, resident shards) must report real ``nbytes``
equal *exactly* to its :mod:`repro.cost.model` byte formula at the
observed dims: sampler tables at the widths the optimizer charges
(``CostParams()``), resident shards at their arrays' itemsizes.  MSan
trusts each builder's reported ``nbytes``; the ``tracemalloc`` tests
below check the bytes a build actually retains, which catches an array
a builder keeps but does not report.
"""

import gc
import json
import tracemalloc

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
from repro.cost.model import (
    SamplerKind,
    alias_memory,
    alias_table_memory,
    rejection_memory,
    resident_shard_memory,
)
from repro.cost.params import CostParams
from repro.exceptions import MemoryConformanceError
from repro.framework.memory import MemoryMeter
from repro.framework.node_samplers import (
    AliasNodeSampler,
    NaiveNodeSampler,
    RejectionNodeSampler,
    build_arena,
)
from repro.graph import barabasi_albert_graph
from repro.graph.sharded import (
    ShardResidencyManager,
    VirtualShardLayout,
    write_sharded_layout,
)
from repro.remote import NeighborhoodCache
from repro.sampling.alias import AliasTable


#: The widths the optimizer charges, which the table builders allocate at.
WIDTHS = CostParams()


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
        conformant = int(alias_table_memory(WIDTHS, 10))
        try:
            msan.trace_alloc("alias_table", conformant, d=10.0)
            with pytest.raises(MemoryConformanceError):
                msan.trace_alloc("alias_table", conformant + 1, d=10.0)
            tracer = msan.global_tracer()
            assert tracer is not None and tracer.check
            assert len(tracer.records) == 1  # the divergent event died
        finally:
            monkeypatch.setattr(msan, "_TRACER", None)


# ----------------------------------------------------------------------
# per-structure conformance against the cost model
# ----------------------------------------------------------------------
class TestStructureConformance:
    def test_alias_table_bytes_match_contract(self):
        with msan_trace() as tracer:
            AliasTable(np.ones(13))
        (record,) = tracer.records
        assert record.structure == "alias_table"
        assert record.nbytes == 13 * 4 + 13 * 4
        assert verify_records(tracer.records) == []

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
        assert record.nbytes == expected_bytes(record)
        assert verify_records(tracer.records) == []

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
        assert record.nbytes == 8 * degree  # proposal tables only
        assert verify_records(tracer.records) == []

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
        assert verify_records(tracer.records) == []

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
        # Shards keep their files' int64/float64 and are priced at them.
        assert all(
            dict(r.dims)["b_i"] == 8 and dict(r.dims)["b_f"] == 8
            for r in records
        )
        assert verify_records(records) == []

    def test_batch_walk_workload_is_fully_conformant(self, graph):
        # A budget tight enough to mix rejection and alias samplers.
        with msan_trace() as tracer:
            framework = MemoryAwareFramework(
                graph, Node2VecModel(0.5, 2.0), budget=4_000, rng=0
            )
            framework.batch_engine().walks(num_walks=4, length=12, rng=3)
        assert tracer.records
        report = build_report(tracer)
        assert report.ok, report.divergences
        assert {"rejection_state", "alias_state"} <= set(report.by_structure)


# ----------------------------------------------------------------------
# divergence detection and reporting
# ----------------------------------------------------------------------
class TestDivergenceDetection:
    def test_byte_drift_is_reported_exactly(self):
        record = MemRecord(
            structure="alias_table",
            nbytes=10 * 8 + 1,  # one byte over the cost model
            dims=(("d", 10.0),),
        )
        divergences = verify_records([record])
        assert len(divergences) == 1
        assert "alias_table" in divergences[0]
        assert "81" in divergences[0]
        assert "80" in divergences[0]

    def test_unknown_structure_is_a_divergence(self):
        record = MemRecord(
            structure="mystery_buffer", nbytes=8, dims=(("d", 1.0),)
        )
        assert verify_records([record]) == [
            "mystery_buffer: no cost-model formula for structure"
        ]

    def test_unknown_variant_is_a_divergence(self):
        record = MemRecord(
            structure="alias_table",
            nbytes=160,
            dims=(("d", 10.0),),
            variant="compressed",
        )
        (divergence,) = verify_records([record])
        assert "variant 'compressed'" in divergence

    def test_check_records_raises_loudly(self):
        record = MemRecord(
            structure="alias_table", nbytes=1, dims=(("d", 10.0),)
        )
        with pytest.raises(MemoryConformanceError) as excinfo:
            check_records([record])
        assert "memory sanitizer" in str(excinfo.value)
        check_records([])  # no records, nothing to flag

    def test_report_round_trip(self):
        with msan_trace() as tracer:
            AliasTable(np.ones(6))
        report = build_report(tracer)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["records"] == 1
        assert payload["by_structure"]["alias_table"]["builds"] == 1
        assert MemRecord.from_dict(
            tracer.records[0].to_dict()
        ) == tracer.records[0]

    def test_float64_table_is_a_divergence(self):
        # A table built at 8-byte floats under the 4-byte-width formula.
        prob = np.ones(10, dtype=np.float64)
        alias = np.zeros(10, dtype=np.int32)
        record = MemRecord(
            structure="alias_table",
            nbytes=prob.nbytes + alias.nbytes,
            dims=(("d", 10.0),),
        )
        (divergence,) = verify_records([record])
        assert "allocated 120 bytes, cost model says 80" in divergence


# ----------------------------------------------------------------------
# retained bytes: what MSan's trust in the builders' nbytes cannot see
# ----------------------------------------------------------------------
def retained_array_bytes(build):
    """Bytes of numpy array data that ``build()``'s result keeps alive.

    Counted in numpy's own ``tracemalloc`` domain, so interpreter and
    shape-cache noise stays out and the count is exact.  Two untraced
    warm-up builds first fill any lazy graph/model caches.
    """
    build()
    build()
    gc.collect()
    only_arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_arrays)
        kept = build()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_arrays)
    finally:
        tracemalloc.stop()
    del kept
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


class TestRetainedBytes:
    """A build retains exactly the bytes its cost-model formula prices.

    MSan compares the formulas with the ``nbytes`` each builder reports;
    a persistent array the builder keeps but does not report (or a table
    at the wrong width) shows up here instead.
    """

    @pytest.fixture(scope="class")
    def hubs(self):
        graph = barabasi_albert_graph(2_000, 5, rng=1)
        nodes = np.argsort(-graph.degrees, kind="stable")[:20]
        return graph, nodes, graph.degrees[nodes].astype(int).tolist()

    @pytest.mark.parametrize("degree", [1_000, 20_000])
    def test_alias_table(self, degree):
        weights = np.random.default_rng(0).random(degree) + 0.1
        retained = retained_array_bytes(lambda: AliasTable(weights))
        assert retained == alias_table_memory(WIDTHS, degree)

    def test_alias_arena(self, hubs):
        graph, nodes, degrees = hubs
        model = Node2VecModel(0.5, 2.0)
        retained = retained_array_bytes(
            lambda: build_arena(SamplerKind.ALIAS, graph, model, nodes)[0]
        )
        assert retained == sum(alias_memory(WIDTHS, d) for d in degrees)

    def test_bounded_rejection_arena(self, hubs):
        graph, nodes, degrees = hubs
        model = Node2VecModel(0.5, 2.0)
        retained = retained_array_bytes(
            lambda: build_arena(SamplerKind.REJECTION, graph, model, nodes)[0]
        )
        assert retained == sum(
            alias_table_memory(WIDTHS, d) for d in degrees
        )

    def test_exact_factors_rejection_arena(self, hubs):
        graph, nodes, degrees = hubs
        model = Node2VecModel(0.5, 2.0)
        factors = np.ones(sum(degrees))
        retained = retained_array_bytes(
            lambda: build_arena(
                SamplerKind.REJECTION, graph, model, nodes, factors=factors
            )[0]
        )
        assert retained == sum(
            rejection_memory(WIDTHS, d) for d in degrees
        )


class TestShardByteArithmetic:
    """Every byte count on the residency path is the resident-shard
    formula at the shard arrays' own widths: the layouts'
    ``shard_nbytes``, the arrays a load maps, and the manager's
    ``resident_bytes``."""

    @pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "virtual"])
    def test_shard_bytes_follow_the_cost_model(self, graph, tmp_path, on_disk):
        if on_disk:
            layout = write_sharded_layout(graph, tmp_path, num_shards=3)
        else:
            layout = VirtualShardLayout(graph, num_shards=3)
        manager = ShardResidencyManager(layout)
        resident = 0
        for index in range(layout.num_shards):
            spec = layout.shard_spec(index)
            shard = manager.acquire(index)
            widths = CostParams(
                float_bytes=shard.weights.itemsize,
                int_bytes=shard.indices.itemsize,
            )
            formula = resident_shard_memory(
                widths, spec.stop - spec.start, spec.num_edges
            )
            assert layout.shard_nbytes(index) == formula
            mapped = (
                shard.indptr.nbytes + shard.indices.nbytes + shard.weights.nbytes
            )
            assert mapped == formula
            resident += formula
            assert manager.resident_bytes == resident
        assert layout.total_bytes == resident


class TestCacheEntryBytes:
    """Cache entries are charged their payloads' real bytes, never a
    size guessed from element counts."""

    def test_mixed_dtype_payload_is_charged_its_nbytes(self):
        ids = np.arange(5, dtype=np.int32)
        weights = np.linspace(0.5, 1.0, 5, dtype=np.float16)
        assert NeighborhoodCache.entry_bytes((ids, weights)) == 5 * 4 + 5 * 2

    def test_used_bytes_tracks_retained_payloads(self):
        def payload(size, id_dtype, weight_dtype):
            return (
                np.arange(size, dtype=id_dtype),
                np.ones(size, dtype=weight_dtype),
            )

        cache = NeighborhoodCache(200)
        payloads = {
            0: payload(10, np.int64, np.float64),  # 160 bytes
            1: payload(6, np.int32, np.float32),  # 48 bytes: evicts 0
            2: payload(9, np.int16, np.float16),  # 36 bytes
        }
        for key, value in payloads.items():
            assert cache.put(key, value)
        kept = [key for key in payloads if key in cache]
        assert kept == [1, 2]
        assert cache.used_bytes == sum(
            payloads[key][0].nbytes + payloads[key][1].nbytes for key in kept
        )
        assert cache.peak_bytes == 160


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
        assert "conform to the cost model" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["divergences"] == []
        assert "resident_shard" in payload["by_structure"]

    def test_divergent_contracts_exit_four(
        self, edgelist, monkeypatch, capsys
    ):
        # Build the arenas' probabilities at 8 bytes: the tables then
        # diverge from the 4-byte widths the cost model charges.
        monkeypatch.setattr(
            "repro.framework.node_samplers.TABLE_FLOAT", np.dtype(np.float64)
        )
        from repro.cli import main

        code = main(
            [
                "msan-report",
                str(edgelist),
                "--budget",
                "2e3",
            ]
        )
        assert code == 4
        assert "MSAN DIVERGENCE" in capsys.readouterr().err
