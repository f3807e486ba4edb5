"""Fault-injection suite for the resilience subsystem.

Covers the recovery paths end to end: crash-retry-success identity,
retry-exhaustion dead-lettering, timeout containment of hung workers,
corrupt-result detection, checkpoint/resume determinism, and graceful OOM
degradation with byte-exact event accounting.
"""

import warnings

import numpy as np
import pytest

from repro import (
    ChunkFailure,
    DegradedRunWarning,
    FaultKind,
    FaultPlan,
    MemoryAwareFramework,
    Node2VecModel,
    RetryPolicy,
    SimulatedOOMError,
    WalkCheckpoint,
    generate_walks,
)
from repro.cost import SamplerKind
from repro.exceptions import CheckpointError, InjectedFaultError, WalkError
from repro.graph import barabasi_albert_graph
from repro.resilience import ChunkSupervisor, DeadLetter
from repro.resilience.degradation import chain_downgrade
from repro.walks import BucketedWalkScheduler, parallel_walks


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 3, rng=7)


@pytest.fixture(scope="module")
def framework(graph):
    return MemoryAwareFramework(
        graph, Node2VecModel(0.5, 2.0), budget=1e6, rng=0
    )


@pytest.fixture(scope="module")
def reference(framework):
    """Fault-free corpus every recovery test must reproduce exactly."""
    return parallel_walks(
        framework.walk_engine,
        num_walks=2,
        length=6,
        workers=1,
        chunk_size=8,
        rng=11,
    )


def assert_same_corpus(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_deterministic_schedule(self):
        a = FaultPlan(seed=5, rate=0.3)
        b = FaultPlan(seed=5, rate=0.3)
        assert a.injected_chunks(50) == b.injected_chunks(50)
        assert FaultPlan(seed=6, rate=0.3).injected_chunks(50) != a.injected_chunks(50)

    def test_schedule_independent_of_chunk_count(self):
        plan = FaultPlan(seed=5, rate=0.3)
        long = plan.injected_chunks(100)
        short = plan.injected_chunks(10)
        assert short == [i for i in long if i < 10]

    def test_failures_per_chunk_bounds_attempts(self):
        plan = FaultPlan(chunks={4}, failures_per_chunk=2)
        assert plan.fault_for(4, 0) is FaultKind.CRASH
        assert plan.fault_for(4, 1) is FaultKind.CRASH
        assert plan.fault_for(4, 2) is None
        assert plan.fault_for(3, 0) is None

    def test_persistent_plan_never_recovers(self):
        plan = FaultPlan(chunks={1}, failures_per_chunk=None)
        assert plan.persistent
        assert plan.fault_for(1, 99) is FaultKind.CRASH

    def test_crash_hook_raises(self):
        plan = FaultPlan(chunks={0})
        with pytest.raises(InjectedFaultError):
            plan.before_chunk(0, 0)
        plan.before_chunk(2, 0)  # non-faulty chunk: no-op

    def test_validation(self):
        with pytest.raises(WalkError):
            FaultPlan(rate=1.5)
        with pytest.raises(WalkError):
            FaultPlan(failures_per_chunk=0)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(0, 0) == pytest.approx(0.1)
        assert policy.delay(0, 1) == pytest.approx(0.2)
        assert policy.delay(0, 5) == pytest.approx(0.5)  # capped

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter=0.5, seed=3)
        assert policy.delay(7, 1) == policy.delay(7, 1)
        assert policy.delay(7, 1) != policy.delay(8, 1)

    def test_none_disables_retries(self):
        assert RetryPolicy.none().max_attempts == 1

    def test_validation(self):
        with pytest.raises(WalkError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(WalkError):
            RetryPolicy(backoff=0.5)


# ----------------------------------------------------------------------
# crash -> retry -> success
# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_retry_masks_transient_crashes(self, framework, reference, workers):
        """A seeded plan failing ~10%% of chunks once leaves no trace."""
        plan = FaultPlan(seed=5, rate=0.3, failures_per_chunk=1)
        assert plan.injected_chunks(8)  # the plan actually injects faults
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=workers,
            chunk_size=8,
            rng=11,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        assert corpus.is_complete
        assert_same_corpus(corpus, reference)

    def test_exhaustion_raises_chunk_failure_with_context(self, framework):
        plan = FaultPlan(chunks={2}, failures_per_chunk=None)
        with pytest.raises(ChunkFailure) as excinfo:
            parallel_walks(
                framework.walk_engine,
                num_walks=1,
                length=4,
                workers=1,
                chunk_size=8,
                rng=0,
                fault_plan=plan,
                retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            )
        failure = excinfo.value
        assert failure.chunk_index == 2
        assert failure.attempts == 2
        assert failure.start_nodes[0] == 16  # chunk 2 of chunk_size 8
        assert isinstance(failure.cause, InjectedFaultError)
        assert "chunk 2" in str(failure)
        assert "16..23" in str(failure)

    def test_sequential_fallback_wraps_genuine_errors(self, framework, monkeypatch):
        """Worker exceptions carry chunk context even without a pool or a
        fault plan: an engine error at one start node surfaces as
        ChunkFailure.  (An out-of-range start is rejected before any chunk
        runs; see TestStartNodeValidation.)"""
        engine = framework.walk_engine
        walk = engine.walk

        def failing_walk(v, length, rng):
            if v == 4:
                raise ValueError("engine fault at node 4")
            return walk(v, length, rng)

        monkeypatch.setattr(engine, "walk", failing_walk)
        with pytest.raises(ChunkFailure) as excinfo:
            parallel_walks(
                engine,
                num_walks=1,
                length=4,
                workers=1,
                chunk_size=4,
                nodes=[0, 1, 2, 3, 4],  # the failing start is in chunk 1
                rng=0,
                retry=1,
            )
        assert excinfo.value.chunk_index == 1
        assert 4 in excinfo.value.start_nodes
        assert isinstance(excinfo.value.cause, ValueError)


# ----------------------------------------------------------------------
# dead letters
# ----------------------------------------------------------------------
class TestDeadLetters:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_dead_letter_names_exactly_the_injected_chunks(
        self, framework, reference, workers
    ):
        plan = FaultPlan(seed=5, rate=0.3, failures_per_chunk=None)
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=workers,
            chunk_size=8,
            rng=11,
            fault_plan=plan,
            retry=1,  # retries disabled
            on_exhausted="dead-letter",
        )
        num_chunks = 8  # 60 nodes / chunk_size 8
        injected = plan.injected_chunks(num_chunks)
        assert sorted(d.chunk_index for d in corpus.failed_chunks) == injected
        assert not corpus.is_complete
        # Surviving chunks still contributed their exact walks.
        survivors = [
            w
            for i, w in enumerate(reference)
            if (i // (2 * 8)) not in injected  # 2 walks x 8 starts per chunk
        ]
        assert_same_corpus(corpus, survivors)

    def test_dead_letter_records_cause(self, framework):
        plan = FaultPlan(chunks={0}, failures_per_chunk=None)
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=1,
            length=4,
            workers=1,
            chunk_size=8,
            rng=0,
            fault_plan=plan,
            retry=1,
            on_exhausted="dead-letter",
        )
        (letter,) = corpus.failed_chunks
        assert isinstance(letter, DeadLetter)
        assert letter.attempts == 1
        assert "InjectedFaultError" in letter.error
        assert "chunk 0" in letter.describe()


# ----------------------------------------------------------------------
# hangs and corruption
# ----------------------------------------------------------------------
class TestTimeoutsAndCorruption:
    def test_timeout_retry_masks_hang_in_pool(self, framework, reference):
        plan = FaultPlan(chunks={2}, kind=FaultKind.HANG, hang_seconds=8.0)
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=3,
            chunk_size=8,
            rng=11,
            fault_plan=plan,
            timeout=0.5,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        assert_same_corpus(corpus, reference)

    def test_corrupt_results_are_detected_and_retried(
        self, framework, reference
    ):
        plan = FaultPlan(chunks={0, 4}, kind=FaultKind.CORRUPT)
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=1,
            chunk_size=8,
            rng=11,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        assert_same_corpus(corpus, reference)

    def test_persistent_corruption_dead_letters(self, framework):
        plan = FaultPlan(
            chunks={1}, kind=FaultKind.CORRUPT, failures_per_chunk=None
        )
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=1,
            length=4,
            workers=1,
            chunk_size=8,
            rng=0,
            fault_plan=plan,
            retry=1,
            on_exhausted="dead-letter",
        )
        assert [d.chunk_index for d in corpus.failed_chunks] == [1]


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_interrupted_run_resumes_bit_identically(
        self, framework, reference, tmp_path
    ):
        path = tmp_path / "walks.ckpt"
        plan = FaultPlan(chunks={3}, failures_per_chunk=None)
        with pytest.raises(ChunkFailure):
            parallel_walks(
                framework.walk_engine,
                num_walks=2,
                length=6,
                workers=1,
                chunk_size=8,
                rng=11,
                fault_plan=plan,
                retry=1,
                checkpoint=path,
            )
        # Chunks 0-2 completed before the crash and were persisted.
        completed_before = sum(
            1 for line in path.read_text().splitlines() if '"chunk"' in line
        )
        assert completed_before == 3
        resumed = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=1,
            chunk_size=8,
            rng=11,
            checkpoint=path,
        )
        assert_same_corpus(resumed, reference)

    def test_completed_checkpoint_replays_without_rerunning(
        self, framework, reference, tmp_path
    ):
        path = tmp_path / "walks.ckpt"
        kwargs = dict(num_walks=2, length=6, workers=1, chunk_size=8, rng=11)
        parallel_walks(framework.walk_engine, checkpoint=path, **kwargs)
        size_after_first = path.stat().st_size
        replayed = parallel_walks(
            framework.walk_engine, checkpoint=path, **kwargs
        )
        assert path.stat().st_size == size_after_first  # nothing re-ran
        assert_same_corpus(replayed, reference)

    def test_mismatched_run_is_refused(self, framework, tmp_path):
        path = tmp_path / "walks.ckpt"
        parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=1,
            chunk_size=8,
            rng=11,
            checkpoint=path,
        )
        with pytest.raises(CheckpointError):
            parallel_walks(
                framework.walk_engine,
                num_walks=2,
                length=7,  # different signature
                workers=1,
                chunk_size=8,
                rng=11,
                checkpoint=path,
            )
        with pytest.raises(CheckpointError):
            parallel_walks(
                framework.walk_engine,
                num_walks=2,
                length=6,
                workers=1,
                chunk_size=8,
                rng=12,  # same shape, different seeds
                checkpoint=path,
            )

    def test_torn_trailing_write_is_dropped(self, framework, tmp_path):
        path = tmp_path / "walks.ckpt"
        parallel_walks(
            framework.walk_engine,
            num_walks=1,
            length=4,
            workers=1,
            chunk_size=8,
            rng=11,
            checkpoint=path,
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "chunk", "chunk": 99, "se')  # torn write
        store = WalkCheckpoint(path)
        signature = {
            "num_walks": 1,
            "length": 4,
            "num_chunks": 8,
            "num_nodes": framework.graph.num_nodes,
            "engine": "scalar",
            "backend": "",
            "layout": "",
        }
        completed = store.load(signature)
        assert sorted(completed) == list(range(8))  # torn record ignored
        # The fragment is also truncated away, so later appends start on
        # a clean line instead of fusing with it.
        assert not path.read_text().endswith('"se')

    def test_resume_after_torn_write_stays_resumable(
        self, framework, reference, tmp_path
    ):
        """Torn fragment + resume + resume again: the second resume must
        not choke on a line fused with the truncated fragment."""
        path = tmp_path / "walks.ckpt"
        kwargs = dict(num_walks=2, length=6, workers=1, chunk_size=8, rng=11)
        parallel_walks(framework.walk_engine, checkpoint=path, **kwargs)
        # Keep header + 3 chunks, then simulate a torn trailing write.
        lines = path.read_text().splitlines(keepends=True)[:4]
        path.write_text("".join(lines) + '{"kind": "chunk", "chunk": 9, "se')
        first = parallel_walks(framework.walk_engine, checkpoint=path, **kwargs)
        assert_same_corpus(first, reference)
        second = parallel_walks(framework.walk_engine, checkpoint=path, **kwargs)
        assert_same_corpus(second, reference)

    def test_checkpoint_with_only_torn_fragment_restarts(
        self, framework, reference, tmp_path
    ):
        path = tmp_path / "walks.ckpt"
        path.write_text('{"kind": "hea')  # interrupted during the header
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=2,
            length=6,
            workers=1,
            chunk_size=8,
            rng=11,
            checkpoint=path,
        )
        assert_same_corpus(corpus, reference)


# ----------------------------------------------------------------------
# graceful OOM degradation
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def model(self):
        return Node2VecModel(0.5, 2.0)

    def test_raise_policy_unchanged(self, graph, model):
        full = MemoryAwareFramework(graph, model, budget=1e6, rng=0)
        physical = full.meter.used_bytes * 0.6
        with pytest.raises(SimulatedOOMError):
            MemoryAwareFramework(
                graph, model, budget=1e6, rng=0, physical_memory=physical
            )

    def test_lp_run_completes_via_trace_reversal(self, graph, model):
        full = MemoryAwareFramework(graph, model, budget=1e6, rng=0)
        physical = full.meter.used_bytes * 0.6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fw = MemoryAwareFramework(
                graph,
                model,
                budget=1e6,
                rng=0,
                physical_memory=physical,
                oom_policy="degrade",
            )
        assert any(
            issubclass(w.category, DegradedRunWarning) for w in caught
        )
        log = fw.degradation_log
        assert log is not None and log.events
        # Byte accounting: the log explains exactly the footprint shrink.
        assert fw.meter.used_bytes <= physical
        assert log.initial_bytes == pytest.approx(full.meter.used_bytes)
        assert log.final_bytes == pytest.approx(fw.meter.used_bytes)
        assert log.total_reclaimed == pytest.approx(
            log.initial_bytes - fw.meter.used_bytes
        )
        running = log.initial_bytes
        for event in log.events:
            running -= event.reclaimed_bytes
            assert event.used_after == pytest.approx(running)
        # Downgrades follow the chain direction: never to more memory.
        for event in log.events:
            node = event.node
            assert (
                fw.cost_table.memory[node, int(event.chosen)]
                <= fw.cost_table.memory[node, int(event.previous)]
            )

    def test_degraded_walks_keep_tier1_semantics(self, graph, model):
        """Degradation changes speed, not correctness: walks still follow
        edges and start where asked."""
        full = MemoryAwareFramework(graph, model, budget=1e6, rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedRunWarning)
            fw = MemoryAwareFramework(
                graph,
                model,
                budget=1e6,
                rng=0,
                physical_memory=full.meter.used_bytes * 0.5,
                oom_policy="degrade",
            )
        corpus = parallel_walks(
            fw.walk_engine, num_walks=1, length=8, workers=1, rng=3
        )
        for walk in list(corpus)[:40]:
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(int(a), int(b))

    def test_all_alias_baseline_degrades_down_the_chain(self, graph, model):
        full = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.ALIAS
        )
        physical = full.meter.used_bytes * 0.6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fw = MemoryAwareFramework.memory_unaware(
                graph,
                model,
                SamplerKind.ALIAS,
                physical_memory=physical,
                oom_policy="degrade",
            )
        assert any(issubclass(w.category, DegradedRunWarning) for w in caught)
        assert fw.meter.used_bytes <= physical
        for event in fw.degradation_log.events:
            # alias -> rejection or rejection -> naive, never upward
            assert int(event.chosen) < int(event.previous)

    def test_unfittable_footprint_still_ooms(self, graph, model):
        with pytest.raises(SimulatedOOMError):
            MemoryAwareFramework(
                graph,
                model,
                budget=1e6,
                rng=0,
                physical_memory=1.0,  # below even the all-naive footprint
                oom_policy="degrade",
            )

    def test_no_degradation_when_fitting(self, graph, model):
        fw = MemoryAwareFramework(
            graph,
            model,
            budget=1e6,
            rng=0,
            physical_memory=1e9,
            oom_policy="degrade",
        )
        assert fw.degradation_log is None

    def test_chain_downgrade_accounts_every_byte(self, graph, model):
        fw = MemoryAwareFramework.memory_unaware(graph, model, SamplerKind.ALIAS)
        mask = graph.degrees > 0
        rows = np.arange(graph.num_nodes)
        initial = float(
            fw.cost_table.memory[rows, fw.assignment.samplers][mask].sum()
        )
        limit = initial * 0.7
        samplers, events = chain_downgrade(
            fw.cost_table, fw.assignment.samplers, mask, limit
        )
        final = float(fw.cost_table.memory[rows, samplers][mask].sum())
        assert final <= limit
        assert sum(e.reclaimed_bytes for e in events) == pytest.approx(
            initial - final
        )


# ----------------------------------------------------------------------
# partitioned deployment
# ----------------------------------------------------------------------
class TestPartitionedResilience:
    def test_partition_aligned_generation_with_faults(self, graph):
        from repro.distributed import PartitionedFramework, hash_partition

        partition = hash_partition(graph.num_nodes, 3)
        pf = PartitionedFramework(
            graph,
            Node2VecModel(0.5, 2.0),
            partition,
            worker_budgets=[4e5, 4e5, 4e5],
        )
        clean = pf.generate_walks(
            num_walks=1, length=5, workers=1, chunk_size=8, rng=9
        )
        recovered = pf.generate_walks(
            num_walks=1,
            length=5,
            workers=1,
            chunk_size=8,
            rng=9,
            fault_plan=FaultPlan(seed=2, rate=0.4, failures_per_chunk=1),
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        assert_same_corpus(recovered, clean)

    def test_partitioned_dead_letter(self, graph):
        from repro.distributed import PartitionedFramework, hash_partition

        partition = hash_partition(graph.num_nodes, 2)
        pf = PartitionedFramework(
            graph,
            Node2VecModel(0.5, 2.0),
            partition,
            worker_budgets=[5e5, 5e5],
        )
        plan = FaultPlan(chunks={0}, failures_per_chunk=None)
        corpus = pf.generate_walks(
            num_walks=1,
            length=5,
            workers=1,
            chunk_size=8,
            rng=9,
            fault_plan=plan,
            retry=1,
            on_exhausted="dead-letter",
        )
        assert [d.chunk_index for d in corpus.failed_chunks] == [0]


# ----------------------------------------------------------------------
# supervisor unit behaviour
# ----------------------------------------------------------------------
class TestSupervisorUnits:
    def test_event_log_records_recovery(self, framework, reference):
        plan = FaultPlan(chunks={1}, failures_per_chunk=1)
        from dataclasses import dataclass, field, replace  # noqa: F401
        from repro.walks.parallel import WalkChunkTask, _walk_chunk
        import repro.walks.parallel as parallel_module

        tasks = [
            WalkChunkTask(
                index=i,
                nodes=(i,),
                num_walks=1,
                length=3,
                seed=i,
                fault_plan=plan,
            )
            for i in range(3)
        ]
        supervisor = ChunkSupervisor(
            _walk_chunk,
            policy=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        parallel_module._SHARED_ENGINE = framework.walk_engine
        try:
            run = supervisor.run_sequential(tasks)
        finally:
            parallel_module._SHARED_ENGINE = None
        assert sorted(run.results) == [0, 1, 2]
        assert run.attempts[1] == 2 and run.total_retries == 1
        kinds = [e["event"] for e in run.events]
        assert "failure" in kinds and "retry" in kinds and "recovered" in kinds

    def test_invalid_on_exhausted_rejected(self, framework):
        with pytest.raises(WalkError):
            parallel_walks(
                framework.walk_engine,
                num_walks=1,
                length=3,
                workers=1,
                rng=0,
                on_exhausted="ignore",
            )


class TestStartNodeValidation:
    """An out-of-range start node is a caller error, not a chunk failure:
    it must raise before any chunk runs, whatever ``on_exhausted`` says."""

    @pytest.fixture(params=["batch", "scheduler"])
    def engine(self, request, framework, graph):
        if request.param == "batch":
            return framework.batch_engine()
        return BucketedWalkScheduler(graph, Node2VecModel(0.5, 2.0), num_shards=3)

    @pytest.mark.parametrize("on_exhausted", ["raise", "dead-letter"])
    @pytest.mark.parametrize("bad", [-1, 60, 10**6])
    def test_parallel_walks_rejects_out_of_range_start(
        self, engine, on_exhausted, bad
    ):
        with pytest.raises(WalkError, match="start node out of range"):
            parallel_walks(
                engine,
                num_walks=1,
                length=4,
                workers=1,
                nodes=[0, bad, 1],
                rng=0,
                on_exhausted=on_exhausted,
            )

    @pytest.mark.parametrize("on_exhausted", ["raise", "dead-letter"])
    def test_generate_walks_rejects_out_of_range_start(self, graph, on_exhausted):
        with pytest.raises(WalkError, match="start node out of range"):
            generate_walks(
                graph,
                Node2VecModel(0.5, 2.0),
                num_walks=1,
                length=4,
                nodes=[graph.num_nodes],
                num_shards=3,
                rng=0,
                on_exhausted=on_exhausted,
            )
