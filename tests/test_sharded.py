"""Tests for the out-of-core sharded CSR backend and bucketed scheduler.

The load-bearing contract: a corpus generated through the bucketed
bi-block scheduler is **bit-identical** whether the graph lives on disk
as memory-mapped shards or in memory, for every worker count, shard
geometry, residency budget, scheduling policy, and kernel backend — and
the shard I/O counters are themselves worker-count invariant.
"""

import hashlib
import importlib.util
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import generate_walks
from repro.analysis import diagnose_walks
from repro.analysis.dsan import DsanReport, diff_reports
from repro.distributed.partition import contiguous_partition, partition_boundaries
from repro.exceptions import (
    BudgetError,
    CheckpointError,
    ChunkFailure,
    EmptyGraphError,
    OptimizerError,
    ShardLayoutError,
    WalkError,
)
from repro.framework import MemoryBudget
from repro.graph import (
    CSRGraph,
    ShardResidencyManager,
    ShardedCSRGraph,
    VirtualShardLayout,
    barabasi_albert_graph,
    from_edges,
    load_sharded_csr,
    powerlaw_cluster_graph,
    save_sharded_csr,
    write_sharded_layout,
)
from repro.models import AutoregressiveModel, Node2VecModel
from repro.resilience import FaultPlan
from repro.walks import BucketedWalkScheduler, scheduled_walks
from repro.walks.scheduler import _CarriedRows, _ShardView


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 3, 0.4, rng=7)


@pytest.fixture(scope="module")
def model():
    return Node2VecModel(0.5, 2.0)


@pytest.fixture(scope="module")
def layout(graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("shards") / "layout"
    return write_sharded_layout(graph, root, num_shards=5)


def corpus_sha(corpus) -> str:
    payload = "\n".join(" ".join(map(str, w.tolist())) for w in corpus)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Both kernel backends; the numba leg skips where the soft dep is absent.
BACKENDS = [
    "numpy",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            importlib.util.find_spec("numba") is None,
            reason="numba not installed",
        ),
    ),
]

#: One corpus, pinned: graph/model/layout as in the fixtures above,
#: num_walks=2, length=12, rng=11, chunk_size=48.  Every equality test
#: below must land on this exact digest.
PINNED = "aab3efec16d2127e110fa5e17068c458d4065d88fef1601150d2424c13266b85"

WALK_KWARGS = dict(num_walks=2, length=12, rng=11, chunk_size=48)


# ----------------------------------------------------------------------
# layout round-trip
# ----------------------------------------------------------------------
class TestLayoutRoundTrip:
    def test_materialize_equals_source(self, graph, layout):
        rebuilt = layout.materialize()
        np.testing.assert_array_equal(rebuilt.indptr, graph.indptr)
        np.testing.assert_array_equal(rebuilt.indices, graph.indices)
        np.testing.assert_array_equal(rebuilt.weights, graph.weights)

    def test_shard_by_shard_slices_match(self, graph, layout):
        for index in range(layout.num_shards):
            spec = layout.shard_spec(index)
            data = layout.read_shard(index)
            np.testing.assert_array_equal(
                data.indices, graph.indices[spec.edge_offset:spec.edge_offset + spec.num_edges]
            )
            np.testing.assert_array_equal(
                data.indptr,
                graph.indptr[spec.start:spec.stop + 1] - spec.edge_offset,
            )

    def test_io_helpers_round_trip(self, graph, tmp_path):
        saved = save_sharded_csr(graph, tmp_path / "l", num_shards=3)
        assert saved.num_shards == 3
        rebuilt = load_sharded_csr(tmp_path / "l")
        np.testing.assert_array_equal(rebuilt.indices, graph.indices)

    def test_on_disk_bytes_match_storage_bytes(self, graph, layout):
        extra_boundary_entries = 8 * (layout.num_shards - 1)
        assert layout.total_bytes == graph.storage_bytes() + extra_boundary_entries

    def test_existing_layout_needs_overwrite(self, graph, layout):
        with pytest.raises(ShardLayoutError, match="overwrite"):
            write_sharded_layout(graph, layout.path, num_shards=2)
        replaced = write_sharded_layout(
            graph, layout.path, num_shards=5, overwrite=True
        )
        assert replaced.num_shards == 5

    def test_empty_graph_rejected(self, tmp_path):
        empty = CSRGraph(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        with pytest.raises(EmptyGraphError):
            write_sharded_layout(empty, tmp_path / "e")

    def test_verify_passes_on_intact_layout(self, layout):
        layout.verify()

    def test_layout_signature_is_stable_and_geometry_sensitive(
        self, graph, layout, tmp_path
    ):
        reopened = ShardedCSRGraph.open(layout.path)
        assert reopened.layout_signature == layout.layout_signature
        other = write_sharded_layout(graph, tmp_path / "g3", num_shards=3)
        assert other.layout_signature != layout.layout_signature


# ----------------------------------------------------------------------
# corruption: typed errors, never numpy IndexError
# ----------------------------------------------------------------------
class TestCorruption:
    def _copy_layout(self, graph, tmp_path):
        return write_sharded_layout(graph, tmp_path / "c", num_shards=4)

    @staticmethod
    def _shard_file(layout, shard, role):
        (match,) = [f for f in layout.shard_spec(shard).files if f.role == role]
        return match.path

    def test_truncated_shard_file_fails_open(self, graph, tmp_path):
        layout = self._copy_layout(graph, tmp_path)
        victim = self._shard_file(layout, 1, "indices")
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(ShardLayoutError, match="bytes"):
            ShardedCSRGraph.open(layout.path)

    def test_missing_shard_file_fails_open(self, graph, tmp_path):
        layout = self._copy_layout(graph, tmp_path)
        self._shard_file(layout, 2, "weights").unlink()
        with pytest.raises(ShardLayoutError, match="missing"):
            ShardedCSRGraph.open(layout.path)

    def test_bit_flip_fails_hash_verification(self, graph, tmp_path):
        layout = self._copy_layout(graph, tmp_path)
        victim = self._shard_file(layout, 0, "indices")
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        reopened = ShardedCSRGraph.open(layout.path)  # sizes still match
        with pytest.raises(ShardLayoutError, match="hash"):
            reopened.verify()
        manager = ShardResidencyManager(reopened)
        with pytest.raises(ShardLayoutError, match="hash"):
            manager.acquire(0)

    def test_corrupt_manifest_fails_open(self, graph, tmp_path):
        layout = self._copy_layout(graph, tmp_path)
        manifest = layout.path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["num_edges"] += 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ShardLayoutError):
            ShardedCSRGraph.open(layout.path)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_contiguous_partition_covers_all_nodes(self):
        degrees = np.array([9, 1, 1, 1, 9, 1, 1, 1, 9, 1], dtype=np.int64)
        part = contiguous_partition(degrees, 3)
        assert len(part) == 10
        assert np.all(np.diff(part) >= 0)  # contiguous
        assert set(part.tolist()) == {0, 1, 2}  # every shard non-empty

    def test_boundaries_round_trip(self):
        part = np.array([0, 0, 1, 1, 1, 2], dtype=np.int64)
        bounds = partition_boundaries(part)
        np.testing.assert_array_equal(bounds, [0, 2, 5, 6])

    def test_interleaved_partition_rejected(self):
        with pytest.raises(OptimizerError):
            partition_boundaries(np.array([0, 1, 0, 1], dtype=np.int64))

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(OptimizerError):
            contiguous_partition(np.ones(3, dtype=np.int64), 4)


# ----------------------------------------------------------------------
# residency manager: the budget is an invariant, not a hint
# ----------------------------------------------------------------------
class TestResidency:
    def test_eviction_never_exceeds_budget(self, layout):
        max_shard = max(layout.shard_nbytes(i) for i in range(layout.num_shards))
        budget = max_shard * 2.5
        manager = ShardResidencyManager(layout, budget=budget, max_resident=3)
        rng = np.random.default_rng(0)
        for index in rng.integers(0, layout.num_shards, size=200):
            manager.acquire(int(index))
            assert manager.resident_bytes <= budget
            assert len(manager.resident_shards) <= 3
        counters = manager.counters()
        assert counters["shard_loads"] == counters["shard_evictions"] + len(
            manager.resident_shards
        )
        assert counters["shard_bytes_read"] > 0

    def test_oversized_shard_raises_budget_error(self, layout):
        manager = ShardResidencyManager(layout, budget=16)
        with pytest.raises(BudgetError, match="residency budget"):
            manager.acquire(0)

    def test_memory_budget_object_accepted(self, layout):
        budget = MemoryBudget(layout.total_bytes)
        manager = ShardResidencyManager(layout, budget=budget)
        manager.acquire(0)
        assert manager.resident_bytes == layout.shard_nbytes(0)

    def test_lru_order_and_evict_all(self, layout):
        manager = ShardResidencyManager(layout, max_resident=2)
        manager.acquire(0)
        manager.acquire(1)
        manager.acquire(0)  # refresh 0: 1 is now LRU
        manager.acquire(2)
        assert manager.resident_shards == (0, 2)
        manager.evict_all()
        assert manager.resident_shards == ()
        assert manager.resident_bytes == 0

    def test_invalid_limits_rejected(self, layout):
        with pytest.raises(BudgetError):
            ShardResidencyManager(layout, budget=0)
        with pytest.raises(BudgetError):
            ShardResidencyManager(layout, max_resident=0)


# ----------------------------------------------------------------------
# shard view: an oracle check against the in-memory CSR graph
# ----------------------------------------------------------------------
def shard_view(graph, boundaries, focus, carried_nodes):
    """The scheduler's view of ``graph`` with shard ``focus`` resident and
    the rows of ``carried_nodes`` (all outside it) carried in."""
    layout = VirtualShardLayout(graph, boundaries=np.asarray(boundaries))
    manager = ShardResidencyManager(layout)
    blocks = []
    for u in sorted(carried_nodes):
        owner = manager.acquire(layout.shard_of(int(u)))
        block = _CarriedRows.pack(
            np.asarray([u], dtype=np.int64),
            layout.indptr[[u]] - owner.edge_offset,
            np.diff(layout.indptr[[u, u + 1]]),
            owner.indices,
            owner.weights,
        )
        blocks += [block, block]  # merging must drop the duplicate row
    carried = _CarriedRows.merge(blocks)
    shard = manager.acquire(focus)
    return _ShardView(
        layout.indptr, layout.degrees, layout.num_nodes, shard, carried
    )


@st.composite
def view_cases(draw):
    """A random weighted digraph (degree-0 nodes included), a shard
    geometry, a focus shard, carried rows from other shards, and query
    pairs whose sources are resident or carried (duplicates included)."""
    n = draw(st.integers(min_value=2, max_value=16))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=1, max_size=60))
    weights = draw(
        st.lists(
            st.floats(min_value=0.125, max_value=8.0),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    graph = from_edges(edges, weights, num_nodes=n, undirected=False)
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=4))
    boundaries = [0, *sorted(cuts), n]
    focus = draw(st.integers(min_value=0, max_value=len(boundaries) - 2))
    resident = list(range(boundaries[focus], boundaries[focus + 1]))
    outside = [v for v in range(n) if v not in resident]
    carried = draw(st.sets(st.sampled_from(outside), min_size=1)) if outside else set()
    sources = draw(
        st.lists(st.sampled_from(resident + sorted(carried)), max_size=40)
    )
    targets = draw(st.lists(node, min_size=len(sources), max_size=len(sources)))
    return graph, boundaries, focus, carried, sources, targets


class TestShardViewOracle:
    @given(case=view_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_view_matches_csr_graph(self, case):
        graph, boundaries, focus, carried, sources, targets = case
        view = shard_view(graph, boundaries, focus, carried)
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        np.testing.assert_array_equal(
            view.has_edge_pairs(sources, targets),
            graph.has_edge_pairs(sources, targets),
        )
        empty = np.empty(0, dtype=np.int64)
        assert view.has_edge_pairs(empty, empty).shape == (0,)
        all_targets = np.arange(graph.num_nodes, dtype=np.int64)
        lo, hi = boundaries[focus], boundaries[focus + 1]
        for u in [*range(lo, hi), *sorted(carried)]:
            np.testing.assert_array_equal(view.neighbors(u), graph.neighbors(u))
            np.testing.assert_array_equal(
                view.neighbor_weights(u), graph.neighbor_weights(u)
            )
            assert view.degree(u) == graph.degree(u)
            assert view.weight_sum(u) == float(np.sum(graph.neighbor_weights(u)))
            assert view.weight_sum(u) == pytest.approx(graph.weight_sum(u))
            np.testing.assert_array_equal(
                view.has_edges_bulk(u, all_targets),
                graph.has_edges_bulk(u, all_targets),
            )
            assert view.has_edges_bulk(u, empty).shape == (0,)
            for z in all_targets.tolist():
                assert view.edge_weight(u, z) == graph.edge_weight(u, z)
                assert view.has_edge(u, z) == graph.has_edge(u, z)

    @given(case=view_cases())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_source_neither_resident_nor_carried_raises(self, case):
        graph, boundaries, focus, carried, sources, targets = case
        view = shard_view(graph, boundaries, focus, carried)
        lo, hi = boundaries[focus], boundaries[focus + 1]
        stray = [
            v for v in range(graph.num_nodes)
            if not lo <= v < hi and v not in carried
        ]
        if not stray:
            return
        u = stray[0]
        pairs = np.asarray([*sources, u], dtype=np.int64)
        with pytest.raises(WalkError, match="no carried row"):
            view.has_edge_pairs(pairs, np.zeros(len(pairs), dtype=np.int64))
        with pytest.raises(WalkError, match="no carried row"):
            view.neighbors(u)
        with pytest.raises(WalkError, match="no carried row"):
            view.weight_sum(u)
        with pytest.raises(WalkError, match="no carried row"):
            view.edge_weight(u, 0)


# ----------------------------------------------------------------------
# faithfulness: the scheduler against the exact e2e distributions
# ----------------------------------------------------------------------
def faithfulness_cases(models, shard_counts):
    """``(model, policy, num_shards)`` params; the bucketed 12-shard case
    is the original one and keeps its bare model id."""
    return [
        pytest.param(
            model, policy, num_shards,
            id=repr(model)
            if (policy, num_shards) == ("bucketed", 12)
            else f"{model!r}-{policy}-{num_shards}",
        )
        for model in models
        for policy in ("bucketed", "lockstep")
        for num_shards in shard_counts
    ]


class TestSchedulerFaithfulness:
    """Walks from a few low-degree starts, concentrated enough that many
    ``(prev, cur)`` contexts are well sampled, under both policies and
    over 1, 2, 4 and 12 virtual shards.  A context whose two nodes sit in
    different shards is sampled only through a carried row."""

    MODELS = [Node2VecModel(0.25, 4.0), AutoregressiveModel(0.5)]
    ALL_SHARDS = faithfulness_cases(MODELS, [1, 2, 4, 12])
    # One shard has no boundary, so no row is ever carried to perturb.
    CARRYING = faithfulness_cases(MODELS, [2, 4, 12])

    #: Least share of hops that cross a shard boundary, per shard count
    #: (measured: 0, 0.29, 0.48, 0.63).  At 12 shards most hops cross.
    CROSSING_FLOOR = {1: 0.0, 2: 0.25, 4: 0.45, 12: 0.5}

    @pytest.fixture(scope="class")
    def setup(self):
        graph = barabasi_albert_graph(60, 3, rng=5)
        starts = np.flatnonzero(graph.degrees <= np.median(graph.degrees))[:12]
        return graph, starts

    @staticmethod
    def diagnose(graph, starts, model, policy, num_shards):
        corpus = scheduled_walks(
            graph, model, starts=starts, num_walks=1500, length=3, rng=3,
            num_shards=num_shards, policy=policy,
        )
        return corpus, diagnose_walks(graph, model, corpus, min_samples=200)

    @pytest.mark.parametrize("model, policy, num_shards", ALL_SHARDS)
    def test_faithful_at_high_crossing_rate(self, setup, model, policy, num_shards):
        corpus, diagnostics = self.diagnose(*setup, model, policy, num_shards)
        floor = self.CROSSING_FLOOR[num_shards]
        assert corpus.metadata["sharded"]["crossings"] >= floor * corpus.metadata["steps"]
        assert diagnostics.contexts_checked >= 50
        assert diagnostics.is_faithful(max_noise_units=4.0)

    @pytest.mark.parametrize("model, policy, num_shards", CARRYING)
    def test_perturbed_carried_rows_are_caught(
        self, setup, model, policy, num_shards, monkeypatch
    ):
        merge = _CarriedRows.merge

        def shifted(cls, blocks):
            rows = merge(blocks)
            return cls(rows.nodes, rows.indptr, rows.indices + 1, rows.weights)

        monkeypatch.setattr(_CarriedRows, "merge", classmethod(shifted))
        _, diagnostics = self.diagnose(*setup, model, policy, num_shards)
        assert not diagnostics.is_faithful(max_noise_units=4.0)


# ----------------------------------------------------------------------
# determinism: the pinned-hash equality matrix
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_corpus_matches_pin(self, layout, model, workers, backend):
        corpus = generate_walks(
            layout, model, workers=workers, backend=backend,
            max_resident=2, **WALK_KWARGS,
        )
        assert corpus_sha(corpus) == PINNED

    def test_in_memory_graph_matches_pin(self, graph, model):
        corpus = generate_walks(graph, model, **WALK_KWARGS)
        assert corpus_sha(corpus) == PINNED

    @pytest.mark.parametrize("num_shards", [1, 5])
    def test_virtual_geometry_invariance(self, graph, model, num_shards):
        corpus = generate_walks(
            graph, model, num_shards=num_shards, max_resident=1, **WALK_KWARGS
        )
        assert corpus_sha(corpus) == PINNED

    def test_lockstep_policy_same_corpus_more_io(self, layout, model):
        bucketed = generate_walks(
            layout, model, policy="bucketed", max_resident=2, **WALK_KWARGS
        )
        lockstep = generate_walks(
            layout, model, policy="lockstep", max_resident=2, **WALK_KWARGS
        )
        assert corpus_sha(lockstep) == corpus_sha(bucketed) == PINNED
        assert (
            bucketed.metadata["sharded"]["shard_loads"]
            < lockstep.metadata["sharded"]["shard_loads"]
        )

    def test_bucket_visit_runs_one_micro_step(self, graph, model, monkeypatch):
        calls = []
        advance = BucketedWalkScheduler._advance

        def spy(self, *args):
            calls.append(1)
            return advance(self, *args)

        monkeypatch.setattr(BucketedWalkScheduler, "_advance", spy)
        corpus = scheduled_walks(
            graph, model, num_walks=2, length=12, rng=11, num_shards=4,
            max_resident=1,
        )
        assert len(calls) == corpus.metadata["sharded"]["bucket_visits"] > 0

    def test_counters_are_worker_invariant(self, layout, model):
        reference = None
        for workers in (1, 2, 4):
            corpus = generate_walks(
                layout, model, workers=workers, max_resident=2, **WALK_KWARGS
            )
            counters = corpus.metadata["sharded"]
            assert set(counters) == {
                "shard_loads",
                "shard_evictions",
                "shard_bytes_read",
                "crossings",
                "bucket_visits",
            }
            if reference is None:
                reference = counters
            assert counters == reference

    def test_layout_hash_recorded_in_metadata(self, layout, model):
        corpus = generate_walks(layout, model, max_resident=2, **WALK_KWARGS)
        assert corpus.metadata["layout"] == layout.layout_signature
        assert corpus.metadata["engine"] == "bucketed"

    def test_dsan_fingerprints_identical_across_workers(self, layout, model):
        reports = []
        for workers in (1, 2):
            corpus = generate_walks(
                layout, model, workers=workers, max_resident=2,
                dsan=True, **WALK_KWARGS,
            )
            reports.append(DsanReport.from_dict(corpus.metadata["dsan"]))
        assert diff_reports(reports[0], reports[1]) == []

    def test_scheduled_walks_wrapper(self, graph, model):
        corpus = scheduled_walks(
            graph, model, num_walks=2, length=12, rng=11, num_shards=5
        )
        assert len(corpus) == 2 * graph.num_nodes


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_interrupted_run_resumes_bit_identically(self, layout, model, tmp_path):
        path = tmp_path / "walks.ckpt"
        plan = FaultPlan(chunks={2}, failures_per_chunk=None)
        with pytest.raises(ChunkFailure):
            generate_walks(
                layout, model, max_resident=2, fault_plan=plan, retry=1,
                checkpoint=path, **WALK_KWARGS,
            )
        assert path.exists()  # chunks before the crash were persisted
        resumed = generate_walks(
            layout, model, max_resident=2, checkpoint=path, **WALK_KWARGS
        )
        assert corpus_sha(resumed) == PINNED

    def test_resume_against_different_layout_refused(
        self, graph, layout, model, tmp_path
    ):
        path = tmp_path / "walks.ckpt"
        generate_walks(layout, model, max_resident=2, checkpoint=path, **WALK_KWARGS)
        other = write_sharded_layout(graph, tmp_path / "other", num_shards=3)
        with pytest.raises(CheckpointError, match="different run"):
            generate_walks(
                other, model, max_resident=2, checkpoint=path, **WALK_KWARGS
            )


# ----------------------------------------------------------------------
# degenerate graphs and bad inputs
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_degree_zero_sink_truncates_walks(self):
        # 2 -> sink: directed chain where node 3 has no out-edges.
        graph = from_edges(
            np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64), undirected=False
        )
        corpus = scheduled_walks(
            graph, Node2VecModel(1.0, 1.0),
            starts=[0], num_walks=1, length=10, rng=0, num_shards=2,
        )
        (walk,) = list(corpus)
        assert walk.tolist() == [0, 1, 2, 3]

    def test_single_shard_layout(self, graph, model, tmp_path):
        layout = write_sharded_layout(graph, tmp_path / "one", num_shards=1)
        corpus = generate_walks(layout, model, **WALK_KWARGS)
        assert corpus_sha(corpus) == PINNED

    def test_virtual_layout_surface(self, graph):
        virtual = VirtualShardLayout(graph, num_shards=4)
        assert virtual.num_shards == 4
        assert virtual.materialize() is graph
        assert np.all(virtual.shard_of(np.arange(graph.num_nodes)) < 4)

    def test_unsupported_graph_type_rejected(self, model):
        with pytest.raises(WalkError, match="graph"):
            BucketedWalkScheduler(object(), model)

    def test_unknown_policy_rejected(self, graph, model):
        with pytest.raises(WalkError, match="policy"):
            BucketedWalkScheduler(graph, model, policy="zigzag")


# ----------------------------------------------------------------------
# acceptance: shard files 10x over the resident budget, still exact
# ----------------------------------------------------------------------
class TestOutOfCoreAcceptance:
    def test_ten_times_over_budget_is_bit_identical(self, graph, model, tmp_path):
        layout = write_sharded_layout(graph, tmp_path / "wide", num_shards=16)
        budget = layout.total_bytes / 10
        assert layout.total_bytes >= 10 * budget
        assert max(layout.shard_nbytes(i) for i in range(16)) <= budget
        corpus = generate_walks(layout, model, budget=budget, **WALK_KWARGS)
        assert corpus_sha(corpus) == PINNED
        counters = corpus.metadata["sharded"]
        assert counters["shard_evictions"] > 0
        assert counters["shard_bytes_read"] >= layout.total_bytes
