"""Tests for the step-centric kernel layer and the backend registry.

Three layers of guarantees:

* **registry** — selection precedence (argument > ``REPRO_KERNEL_BACKEND``
  > default), unknown names rejected, missing soft deps degrade to numpy
  with a :class:`~repro.exceptions.KernelBackendWarning`, third-party
  registration round-trips.
* **kernel equivalence** — the plain-Python loop implementations in
  ``numba_backend`` (the functions ``load()`` compiles) are bit-identical
  to the ``xp``-generic numpy reference kernels on randomized inputs.
  This runs without numba installed, so the no-numba CI job still checks
  the compiled backend's arithmetic specification.
* **engine integration** — the backend name lands in corpus metadata and
  the checkpoint signature (cross-backend resume is refused), dispatch
  counters merge associatively across worker counts, and —
  where numba is installed — the compiled backend reproduces the numpy
  corpus and DSan fingerprints bit-for-bit.
"""

import hashlib
import importlib.util

import numpy as np
import pytest

from repro import MemoryAwareFramework, Node2VecModel, SamplerKind
from repro.analysis.dsan import DsanReport, diff_reports
from repro.exceptions import (
    CheckpointError,
    KernelBackendError,
    KernelBackendWarning,
    OptimizerError,
)
from repro.graph import powerlaw_cluster_graph
from repro.walks import parallel_walks
from repro.walks.kernels import (
    KERNEL_BACKEND_ENV,
    KernelBackend,
    available_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.walks.kernels import numba_backend, numpy_backend

HAS_NUMBA = importlib.util.find_spec("numba") is not None


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(60, 3, 0.4, rng=7)


@pytest.fixture(scope="module")
def model():
    return Node2VecModel(0.5, 2.0)


@pytest.fixture(scope="module")
def framework(graph, model):
    # A budget small enough to mix sampler kinds across dispatch paths.
    return MemoryAwareFramework(graph, model, budget=30_000, rng=0)


def corpus_sha(corpus) -> str:
    payload = "\n".join(" ".join(map(str, w.tolist())) for w in corpus)
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# registry: selection precedence and registration
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        backend = resolve_backend()
        assert backend.name == "numpy"
        assert backend.version == str(np.__version__)

    def test_resolved_instance_passes_through(self):
        backend = resolve_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_backend().name == "numpy"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "definitely-not-a-backend")
        assert resolve_backend("numpy").name == "numpy"

    def test_unknown_name_lists_available(self):
        with pytest.raises(KernelBackendError, match="numpy"):
            resolve_backend("cuda-tensor-cores")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "definitely-not-a-backend")
        with pytest.raises(KernelBackendError):
            resolve_backend()

    def test_builtins_listed(self):
        names = available_backends()
        assert "numpy" in names and "numba" in names

    def test_register_resolve_unregister_round_trip(self):
        mock = resolve_backend("numpy").renamed("mock")
        register_backend("mock", lambda: mock)
        try:
            assert "mock" in available_backends()
            assert resolve_backend("mock").name == "mock"
            with pytest.raises(KernelBackendError):
                register_backend("mock", lambda: mock)
            register_backend("mock", lambda: mock, replace_existing=True)
        finally:
            unregister_backend("mock")
        assert "mock" not in available_backends()
        with pytest.raises(KernelBackendError):
            resolve_backend("mock")

    def test_builtins_protected_from_unregistration(self):
        with pytest.raises(KernelBackendError):
            unregister_backend("numpy")
        with pytest.raises(KernelBackendError):
            unregister_backend("numba")

    @pytest.mark.skipif(HAS_NUMBA, reason="numba is installed")
    def test_missing_numba_falls_back_with_warning(self):
        with pytest.warns(KernelBackendWarning, match="falling back") as caught:
            backend = resolve_backend("numba")
        assert backend.name == "numpy"
        # The warning carries both names as data: what was asked for and
        # what the run actually uses (the latter also lands in corpus
        # metadata, pinned below).
        assert caught[0].message.requested == "numba"
        assert caught[0].message.effective == "numpy"

    def test_fallback_warning_carries_requested_and_effective(self, graph, model):
        def broken_loader():
            raise KernelBackendError("deliberately unavailable")

        register_backend("flaky", broken_loader)
        try:
            with pytest.warns(KernelBackendWarning) as caught:
                backend = resolve_backend("flaky")
            assert backend.name == "numpy"
            warning = caught[0].message
            assert warning.requested == "flaky"
            assert warning.effective == "numpy"
            assert "'flaky'" in str(warning)

            from repro.walks import BatchWalkEngine

            with pytest.warns(KernelBackendWarning):
                engine = BatchWalkEngine(graph, model, backend="flaky")
            corpus = parallel_walks(
                engine, num_walks=1, length=8, workers=1, chunk_size=16, rng=3
            )
            # The *effective* backend is what metadata records — a resumed
            # or audited corpus must never claim the backend that failed.
            assert corpus.metadata["backend"] == "numpy"
        finally:
            unregister_backend("flaky")

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    def test_numba_backend_loads(self):
        backend = resolve_backend("numba")
        assert backend.name == "numba"
        assert backend.version


# ----------------------------------------------------------------------
# kernel equivalence: loop implementations vs numpy reference
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    """The plain-Python loop forms (what ``numba.njit`` compiles) must be
    bit-identical to the numpy reference kernels: same picks, same float
    comparisons, same sentinel codes.  20 randomized trials per kernel."""

    TRIALS = 20

    @staticmethod
    def _segments(gen, max_groups=8, max_size=6):
        num_groups = int(gen.integers(1, max_groups + 1))
        sizes = gen.integers(1, max_size + 1, size=num_groups).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        return num_groups, sizes, starts

    def test_regroup_pairs(self):
        gen = np.random.default_rng(101)
        for _ in range(self.TRIALS):
            keys = gen.integers(0, 12, size=int(gen.integers(1, 40))).astype(
                np.int64
            )
            uk_np, group_np = numpy_backend.regroup_pairs(np, keys)
            uk_py, group_py = numba_backend.regroup_pairs(keys)
            assert np.array_equal(uk_np, uk_py)
            assert np.array_equal(group_np, group_py)

    def test_gather_segments(self):
        gen = np.random.default_rng(102)
        for _ in range(self.TRIALS):
            values = gen.random(64)
            _, sizes, _ = self._segments(gen)
            starts = gen.integers(
                0, len(values) - int(sizes.max()), size=len(sizes)
            ).astype(np.int64)
            out_np = numpy_backend.gather_segments(np, starts, sizes, values)
            out_py = numba_backend.gather_segments(starts, sizes, values)
            assert np.array_equal(out_np, out_py)

    def test_segmented_inverse_cdf(self):
        gen = np.random.default_rng(103)
        for _ in range(self.TRIALS):
            num_groups, sizes, _ = self._segments(gen)
            flat = gen.random(int(sizes.sum())) + 1e-3
            group = gen.integers(0, num_groups, size=30).astype(np.int64)
            uniforms = gen.random(len(group))
            picks_np, bad_np = numpy_backend.segmented_inverse_cdf(
                np, flat, sizes, group, uniforms
            )
            picks_py, bad_py = numba_backend.segmented_inverse_cdf(
                flat, sizes, group, uniforms
            )
            assert bad_np == bad_py == -1
            assert np.array_equal(picks_np, picks_py)

    def test_segmented_inverse_cdf_zero_mass_sentinel(self):
        sizes = np.array([2, 2], dtype=np.int64)
        flat = np.array([0.5, 0.5, 0.0, 0.0])
        group = np.array([0, 1], dtype=np.int64)
        uniforms = np.array([0.3, 0.7])
        _, bad_np = numpy_backend.segmented_inverse_cdf(
            np, flat, sizes, group, uniforms
        )
        _, bad_py = numba_backend.segmented_inverse_cdf(
            flat, sizes, group, uniforms
        )
        assert bad_np == bad_py == 1

    def test_flat_alias_pick(self):
        gen = np.random.default_rng(104)
        for _ in range(self.TRIALS):
            k = int(gen.integers(1, 40))
            sizes = gen.integers(1, 7, size=k).astype(np.int64)
            base = gen.integers(0, 50, size=k).astype(np.int64)
            table = int((base + sizes).max())
            prob_flat = gen.random(table)
            alias_flat = gen.integers(0, 6, size=table).astype(np.int64)
            u_column = gen.random(k)
            u_keep = gen.random(k)
            out_np = numpy_backend.flat_alias_pick(
                np, prob_flat, alias_flat, base, sizes, u_column, u_keep
            )
            out_py = numba_backend.flat_alias_pick(
                prob_flat, alias_flat, base, sizes, u_column, u_keep
            )
            assert np.array_equal(out_np, out_py)

    def test_gathered_alias_pick(self):
        gen = np.random.default_rng(105)
        for _ in range(self.TRIALS):
            num_groups, sizes, starts = self._segments(gen)
            table = int(sizes.sum())
            prob_flat = gen.random(table)
            alias_flat = gen.integers(0, 6, size=table).astype(np.int64)
            group = gen.integers(0, num_groups, size=25).astype(np.int64)
            u_column = gen.random(len(group))
            u_keep = gen.random(len(group))
            out_np = numpy_backend.gathered_alias_pick(
                np, prob_flat, alias_flat, starts, sizes, group, u_column, u_keep
            )
            out_py = numba_backend.gathered_alias_pick(
                prob_flat, alias_flat, starts, sizes, group, u_column, u_keep
            )
            assert np.array_equal(out_np, out_py)

    def test_acceptance_mask(self):
        gen = np.random.default_rng(106)
        for _ in range(self.TRIALS):
            n = int(gen.integers(1, 50))
            ratios = gen.random(n) * 2.0
            factors = gen.random(n) * 2.0
            uniforms = gen.random(n)
            out_np = numpy_backend.acceptance_mask(np, ratios, factors, uniforms)
            out_py = numba_backend.acceptance_mask(ratios, factors, uniforms)
            assert np.array_equal(out_np, out_py)

    def test_advance_frontier(self):
        gen = np.random.default_rng(107)
        for _ in range(self.TRIALS):
            n = 24
            degrees = gen.integers(0, 5, size=40).astype(np.int64)
            idx = np.flatnonzero(gen.random(n) < 0.6).astype(np.int64)
            step = gen.integers(0, 40, size=n).astype(np.int64)
            state_np = [
                gen.integers(0, 40, size=n).astype(np.int64),
                gen.integers(0, 40, size=n).astype(np.int64),
                gen.random(n) < 0.8,
            ]
            state_py = [arr.copy() for arr in state_np]
            numpy_backend.advance_frontier(
                np, idx, step, state_np[0], state_np[1], state_np[2], degrees
            )
            numba_backend.advance_frontier(
                idx, step, state_py[0], state_py[1], state_py[2], degrees
            )
            for got, want in zip(state_py, state_np):
                assert np.array_equal(got, want)

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    def test_compiled_kernels_match_loop_forms(self):
        """Smoke the actual njit-compiled callables on one input set."""
        compiled = resolve_backend("numba")
        gen = np.random.default_rng(108)
        keys = gen.integers(0, 9, size=30).astype(np.int64)
        assert np.array_equal(
            compiled.regroup_pairs(keys)[1], numba_backend.regroup_pairs(keys)[1]
        )
        ratios, factors, uniforms = gen.random(16), gen.random(16), gen.random(16)
        assert np.array_equal(
            compiled.acceptance_mask(ratios, factors, uniforms),
            numba_backend.acceptance_mask(ratios, factors, uniforms),
        )


# ----------------------------------------------------------------------
# engine integration: metadata, checkpoint signature, counter merging
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_backend_recorded_in_stats_and_metadata(self, framework):
        engine = framework.batch_engine()
        assert engine.stats()["backend"] == "numpy"
        corpus = parallel_walks(
            engine, num_walks=2, length=10, workers=1, chunk_size=16, rng=3
        )
        assert corpus.metadata["backend"] == "numpy"

    def test_scalar_engine_has_no_backend_key(self, framework):
        corpus = parallel_walks(
            framework.walk_engine,
            num_walks=1,
            length=8,
            workers=1,
            chunk_size=16,
            rng=3,
        )
        assert "backend" not in corpus.metadata

    def test_backend_rejected_for_scalar_engine(self, framework):
        with pytest.raises(OptimizerError, match="batch"):
            framework.generate_walks(
                num_walks=1, length=4, engine="scalar", backend="numpy"
            )

    def test_cross_backend_resume_refused(self, framework, tmp_path):
        path = tmp_path / "walks.ckpt"
        kwargs = dict(
            num_walks=2, length=10, workers=1, chunk_size=16, rng=5,
            checkpoint=path,
        )
        parallel_walks(framework.batch_engine(backend="numpy"), **kwargs)

        mock = resolve_backend("numpy").renamed("mock")
        register_backend("mock", lambda: mock)
        try:
            with pytest.raises(CheckpointError, match="different run"):
                parallel_walks(framework.batch_engine(backend="mock"), **kwargs)
        finally:
            unregister_backend("mock")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_counters_are_worker_count_invariant(self, graph, model, workers):
        """Per-chunk counter deltas merge associatively: 4 forked workers
        report the same dispatch totals as the sequential path."""
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, SamplerKind.NAIVE, rng=0
        )
        corpus = parallel_walks(
            fw.batch_engine(),
            num_walks=3,
            length=20,
            workers=workers,
            chunk_size=8,
            rng=11,
        )
        reference = parallel_walks(
            fw.batch_engine(),
            num_walks=3,
            length=20,
            workers=1,
            chunk_size=8,
            rng=11,
        )
        assert corpus_sha(corpus) == corpus_sha(reference)
        assert corpus.metadata["steps"] == reference.metadata["steps"]
        assert corpus.metadata["dispatch"] == reference.metadata["dispatch"]
        # The pooled run actually exercised the naive dispatch path.
        assert corpus.metadata["steps"] > 0
        assert corpus.metadata["dispatch"]["naive"]["walkers"] > 0


# ----------------------------------------------------------------------
# cross-backend bit-identity (numba leg; skipped without the soft dep)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestNumbaBitIdentity:
    def test_walks_identical_to_numpy(self, framework):
        a = framework.batch_engine(backend="numpy").walks(
            num_walks=3, length=15, rng=17
        )
        b = framework.batch_engine(backend="numba").walks(
            num_walks=3, length=15, rng=17
        )
        assert corpus_sha(a) == corpus_sha(b)

    def test_dsan_fingerprints_identical_to_numpy(self, framework):
        reports = {}
        for backend in ("numpy", "numba"):
            corpus = parallel_walks(
                framework.batch_engine(backend=backend),
                num_walks=2,
                length=12,
                workers=1,
                chunk_size=8,
                rng=19,
                dsan=True,
            )
            reports[backend] = DsanReport.from_dict(corpus.metadata["dsan"])
        assert diff_reports(reports["numpy"], reports["numba"]) == []
