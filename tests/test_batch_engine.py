"""Tests for the assignment-aware batch engine.

Covers the four dispatch paths (naive / rejection / alias / fallback), the
determinism contract (worker count never changes the corpus —
hash-pinned), chi-square statistical equivalence with the scalar engine,
and dead-end round-tripping through :class:`WalkCorpus` persistence.
"""

import dataclasses
import hashlib
import importlib.util

import numpy as np
import pytest
import scipy.stats

from repro import (
    AutoregressiveModel,
    MemoryAwareFramework,
    Node2VecModel,
    SamplerKind,
)
from repro.exceptions import SamplerError, WalkError
from repro.framework import binary_cdf_spec
from repro.framework.node_samplers import NaiveNodeSampler, build_node_samplers
from repro.graph import CSRGraph, from_edges, powerlaw_cluster_graph
from repro.walks import BatchWalkEngine, BucketedWalkScheduler, parallel_walks
from repro.walks.batch import split_trails
from repro.walks.corpus import WalkCorpus
from repro.walks.kernels import resolve_backend


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(80, 3, 0.4, rng=7)


@pytest.fixture(scope="module")
def model():
    return Node2VecModel(0.5, 2.0)


@pytest.fixture(scope="module")
def framework(graph, model):
    # A budget small enough to mix sampler kinds.
    return MemoryAwareFramework(graph, model, budget=30_000, rng=0)


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


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestAssignmentAwareDispatch:
    def test_mixed_assignment_uses_assigned_kinds(self, graph, model, framework):
        samplers = framework.walk_engine.samplers
        present = {
            type(s).__name__ for s in samplers if s is not None
        }
        engine = BatchWalkEngine(graph, model, samplers)
        corpus = engine.walks(num_walks=4, length=12, rng=1)
        dispatch = engine.stats()["dispatch"]
        if "RejectionNodeSampler" in present:
            assert dispatch["rejection"]["walkers"] > 0
        if "AliasNodeSampler" in present:
            assert dispatch["alias"]["walkers"] > 0
        assert len(corpus) == 4 * int((graph.degrees > 0).sum())

    def test_all_naive_without_samplers(self, graph, model):
        engine = BatchWalkEngine(graph, model)
        engine.walks(num_walks=2, length=8, rng=0)
        dispatch = engine.stats()["dispatch"]
        assert dispatch["naive"]["walkers"] > 0
        assert dispatch["rejection"]["walkers"] == 0
        assert dispatch["alias"]["walkers"] == 0

    def test_custom_sampler_routes_to_fallback(self, graph, model):
        samplers = [
            OpaqueSampler(graph, model, v) if graph.degree(v) > 0 else None
            for v in range(graph.num_nodes)
        ]
        engine = BatchWalkEngine(graph, model, samplers)
        corpus = engine.walks(num_walks=2, length=6, rng=0)
        dispatch = engine.stats()["dispatch"]
        assert dispatch["fallback"]["walkers"] > 0
        assert dispatch["naive"]["walkers"] == 0
        for walk in corpus:
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(int(a), int(b))

    def test_walks_follow_edges_every_kind(self, graph, model, framework):
        engine = framework.batch_engine()
        corpus = engine.walks(num_walks=3, length=15, rng=2)
        for walk in corpus:
            for a, b in zip(walk, walk[1:]):
                assert graph.has_edge(int(a), int(b))

    def test_sampler_count_mismatch_rejected(self, graph, model):
        with pytest.raises(WalkError):
            BatchWalkEngine(graph, model, [None] * 3)

    def test_metadata_counters_on_corpus(self, framework):
        engine = framework.batch_engine()
        corpus = engine.walks(num_walks=2, length=10, rng=3)
        assert corpus.metadata["engine"] == "batch"
        assert corpus.metadata["steps"] > 0
        assert set(corpus.metadata["dispatch"]) == {
            "naive", "rejection", "alias", "fallback",
        }


# ----------------------------------------------------------------------
# determinism (hash-pinned)
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    PINNED = "82540e9ead830356ffc6be0c1ce45f01fcafa9a01fbf23865de31144c8425674"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_corpus_hash(self, framework, backend):
        # The pin holds for every kernel backend: uniforms are drawn by
        # the engine driver, so a compiled backend consumes the identical
        # RNG stream and must reproduce the identical corpus.
        engine = framework.batch_engine(backend=backend)
        corpus = parallel_walks(
            engine, num_walks=3, length=20, workers=1, chunk_size=16, rng=11
        )
        assert corpus_sha(corpus) == self.PINNED

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("cache_budget", [0, 3_000, 10**8])
    def test_workers_and_cache_never_change_output(
        self, framework, workers, cache_budget
    ):
        # batch_engine still accepts cache_budget (the benchmark suite
        # passes it) and ignores it; neither it nor the worker count may
        # change the corpus.
        engine = framework.batch_engine(cache_budget=cache_budget)
        corpus = parallel_walks(
            engine,
            num_walks=3,
            length=20,
            workers=workers,
            chunk_size=16,
            rng=11,
        )
        assert corpus_sha(corpus) == self.PINNED

    def test_direct_walks_deterministic(self, framework):
        a = framework.batch_engine().walks(num_walks=2, length=10, rng=9)
        b = framework.batch_engine().walks(num_walks=2, length=10, rng=9)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# statistical equivalence (chi-square)
# ----------------------------------------------------------------------
class TestChiSquareEquivalence:
    @staticmethod
    def _transition_table(corpus, contexts):
        """next-node Counter per requested ``(u, v)`` context."""
        counts = corpus.second_order_transition_counts()
        return {ctx: counts.get(ctx, {}) for ctx in contexts}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scalar_vs_batch_chi_square(self, graph, model, framework, backend):
        """Two-sample chi-square on next-step counts: p > 0.01.

        Both engines are run on the same assignment; their transition
        counts out of the hottest contexts are compared with a chi-square
        homogeneity test.  Deterministic via fixed seeds.
        """
        num_walks, length = 40, 25
        scalar = WalkCorpus.from_walks(
            framework.generate_walks(num_walks=num_walks, length=length, rng=21)
        )
        batch = framework.batch_engine(backend=backend).walks(
            num_walks=num_walks, length=length, rng=22
        )

        scalar_counts = scalar.second_order_transition_counts()
        batch_counts = batch.second_order_transition_counts()
        # Hottest shared contexts, by combined sample count.
        shared = sorted(
            set(scalar_counts) & set(batch_counts),
            key=lambda ctx: -(
                sum(scalar_counts[ctx].values())
                + sum(batch_counts[ctx].values())
            ),
        )[:5]
        assert shared, "no common transition contexts sampled"

        pvalues = []
        for u, v in shared:
            support = graph.neighbors(v)
            s = np.array([scalar_counts[(u, v)].get(int(z), 0) for z in support])
            b = np.array([batch_counts[(u, v)].get(int(z), 0) for z in support])
            if s.sum() < 50 or b.sum() < 50:
                continue
            table = np.stack([s, b])
            keep = table.sum(axis=0) > 0
            _, p, _, _ = scipy.stats.chi2_contingency(table[:, keep])
            pvalues.append(p)
        assert pvalues, "no context had enough samples"
        # Fisher's combined test across contexts: one global verdict.
        _, combined = scipy.stats.combine_pvalues(pvalues, method="fisher")
        assert combined > 0.01

    def test_batch_matches_exact_distribution_chi_square(self, graph, model):
        """Goodness-of-fit of the batch engine against the exact e2e law."""
        engine = BatchWalkEngine(graph, model)
        corpus = engine.walks(num_walks=60, length=25, rng=23)
        counts = corpus.second_order_transition_counts()
        pvalues = []
        for (u, v), counter in counts.items():
            n = sum(counter.values())
            if n < 300:
                continue
            weights = model.biased_weights(graph, u, v)
            expected = n * weights / weights.sum()
            observed = np.array(
                [counter.get(int(z), 0) for z in graph.neighbors(v)],
                dtype=np.float64,
            )
            keep = expected > 1e-12
            _, p = scipy.stats.chisquare(observed[keep], expected[keep])
            pvalues.append(p)
        assert len(pvalues) >= 3
        _, combined = scipy.stats.combine_pvalues(pvalues, method="fisher")
        assert combined > 0.01


# ----------------------------------------------------------------------
# rejection path
# ----------------------------------------------------------------------
def rejection_engine(graph, model, **kwargs):
    """A batch engine with a rejection sampler on every non-sink node."""
    nodes = np.flatnonzero(graph.degrees > 0)
    samplers = [None] * graph.num_nodes
    for v, sampler in zip(
        nodes, build_node_samplers(SamplerKind.REJECTION, graph, model, nodes)
    ):
        samplers[int(v)] = sampler
    return BatchWalkEngine(graph, model, samplers, **kwargs)


def _random_graph(*, weighted, directed, seed=5, nodes=40, edges=160):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, nodes, size=(edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    weights = rng.uniform(0.5, 3.0, size=len(pairs)) if weighted else None
    return from_edges(
        pairs, weights, num_nodes=nodes, undirected=not directed
    )


class TestRejectionFactors:
    @pytest.mark.parametrize(
        "weighted,directed",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["unit", "weighted", "directed", "weighted-directed"],
    )
    def test_factors_match_per_state_oracle(self, weighted, directed):
        """The rejection arena's per-edge factors equal each sampler's own
        ``acceptance_factor``, arrivals from outside ``N(v)`` included."""
        graph = _random_graph(weighted=weighted, directed=directed)
        model = AutoregressiveModel(alpha=0.2)
        assert model.max_ratio_bound(graph) is None
        engine = rejection_engine(graph, model)
        # Every reachable e2e state: an edge u -> v into a non-sink v,
        # carried as its flat CSR index.
        us = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        vs = graph.indices.astype(np.int64)
        keep = graph.degrees[vs] > 0
        us, vs, edges = us[keep], vs[keep], np.flatnonzero(keep)
        outside = ~graph.has_edge_pairs(vs, us)
        assert outside.any() == directed
        oracle = np.array(
            [
                engine.samplers[int(v)].acceptance_factor(int(u))
                for u, v in zip(us, vs)
            ]
        )
        # Carried hops, and hops a fallback sampler took (edge -1).
        for carried in (edges, np.full_like(edges, -1)):
            got = engine._acceptance_factors(us, vs, carried)
            assert np.array_equal(got, oracle)
        assert not engine.samplers[int(vs[0])].edge_factors.flags.writeable


def weighted_copy(graph, *, drop=(), seed=3):
    """``graph`` with uniform(0.5, 3) edge weights, symmetric unless the
    directed edges ``drop`` are left out (then it is stored directed)."""
    rng = np.random.default_rng(seed)
    sources = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    pairs = np.stack([sources, graph.indices], axis=1)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    weights = rng.uniform(0.5, 3.0, size=len(pairs))
    pairs = np.concatenate([pairs, pairs[:, ::-1]])
    weights = np.concatenate([weights, weights])
    dropped = set(drop)
    keep = np.array([tuple(p) not in dropped for p in pairs.tolist()])
    return from_edges(
        pairs[keep], weights[keep], num_nodes=graph.num_nodes, undirected=False
    )


class OpaqueSampler(NaiveNodeSampler):
    kind = None  # outside the built-in trio: the batch engine's fallback


def hub_engine(graph, model, starts, arrival):
    """A rejection sampler on every non-sink node but ``starts``, whose
    first hop arrives by ``arrival``: ``"rejection"`` (their own rejection
    n2e table; the engine holds no reverse-edge index), ``"alias"`` (alias
    samplers, so the engine holds the index) or ``"fallback"`` (custom
    samplers, so the hop arrives without an edge id, next to one alias
    sampler elsewhere that makes the engine hold the index)."""
    samplers = list(rejection_engine(graph, model).samplers)
    aliased = starts
    if arrival == "fallback":
        for v in starts.tolist():
            samplers[v] = OpaqueSampler(graph, model, v)
        others = np.setdiff1d(np.flatnonzero(graph.degrees), starts)
        aliased = others[np.argsort(graph.degrees[others], kind="stable")[:1]]
    if arrival != "rejection":
        for v, sampler in zip(
            aliased.tolist(),
            build_node_samplers(SamplerKind.ALIAS, graph, model, aliased),
        ):
            samplers[v] = sampler
    engine = BatchWalkEngine(graph, model, samplers)
    assert (engine._reverse is not None) == (arrival != "rejection")
    return engine


def low_degree_neighbours(graph, hub, count=4):
    neighbours = graph.neighbors(hub)
    by_degree = np.argsort(graph.degrees[neighbours], kind="stable")
    return neighbours[by_degree][:count]


def hub_law_pvalue(graph, model, engine, hub, starts, rng):
    """Fisher-combined chi-square p-value of next-node counts out of the
    contexts ``(u, hub)``, ``u`` in ``starts``, against
    ``biased_weights(u, hub)``: walks of two hops from each start reach
    the hub first, then take one e2e step there."""
    corpus = engine.walks(starts=starts, num_walks=6_000, length=2, rng=rng)
    counts = corpus.second_order_transition_counts()
    neighbours = graph.neighbors(hub)
    pvalues = []
    for u in starts.tolist():
        counter = counts[(u, hub)]
        n = sum(counter.values())
        assert n >= 1_000
        weights = model.biased_weights(graph, u, hub)
        expected = n * weights / weights.sum()
        observed = np.array(
            [counter.get(int(z), 0) for z in neighbours], dtype=np.float64
        )
        _, p = scipy.stats.chisquare(observed, expected)
        pvalues.append(p)
    return scipy.stats.combine_pvalues(pvalues, method="fisher")[1]


#: node2vec parameters whose return candidate is an outlier of the ratios
#: (``1/a > max(1, 1/b)``: the engine folds it out of the envelope), and
#: ones where it is not.
FOLDED, UNFOLDED = Node2VecModel(0.25, 4.0), Node2VecModel(2.0, 0.5)

#: ``(model, folded, q, seed)``: the pre-acceptance probability
#: ``q = min(1, r_min / B)`` the batch engine walks each model at, under
#: the folded envelope ``B'`` or the plain ``max_ratio_bound``, and the
#: offset of the law tests' walk seeds.
SQUEEZES = [
    (FOLDED, True, 0.25, 0),
    (UNFOLDED, False, 0.25, 0),
    (Node2VecModel(0.5, 8.0), True, 0.125, 0),
    (Node2VecModel(1.0, 1.0), False, 1.0, 100),
]


class TestRejectionRounds:
    def test_hub_contexts_follow_exact_law(self, graph):
        """Multi-proposal rounds at low acceptance, on a weighted graph,
        with and without the return edge folded out of the envelope, and
        with a walker's (S + 1)-th proposal taken unchecked at every
        ``q`` of :data:`SQUEEZES`: next-node counts out of fixed
        ``(u, hub)`` contexts fit ``biased_weights(u, hub)``."""
        weighted = weighted_copy(graph)
        hub = int(np.argmax(weighted.degrees))
        starts = low_degree_neighbours(weighted, hub)
        for model, folded, q, seed in SQUEEZES:
            engine = hub_engine(weighted, model, starts, "rejection")
            assert (engine._fold is not None) == folded
            assert engine._pre_accept == q
            pvalue = hub_law_pvalue(
                weighted, model, engine, hub, starts, rng=31 + seed
            )
            assert pvalue > 0.01, model

    @pytest.mark.parametrize("arrival", ["alias", "fallback"])
    def test_arrivals_follow_exact_law(self, graph, arrival):
        """The return edge of the folded envelope is read off the
        reverse-edge index, and looked up where the hop arrived through a
        custom sampler (edge id -1): both keep the exact law, at every
        ``q``."""
        weighted = weighted_copy(graph)
        hub = int(np.argmax(weighted.degrees))
        starts = low_degree_neighbours(weighted, hub)
        for model, _, q, seed in SQUEEZES:
            engine = hub_engine(weighted, model, starts, arrival)
            assert engine._pre_accept == q
            pvalue = hub_law_pvalue(
                weighted, model, engine, hub, starts, rng=32 + seed
            )
            assert pvalue > 0.01, model

    @pytest.mark.parametrize("arrival", ["rejection", "alias", "fallback"])
    def test_one_way_arrivals_follow_exact_law(self, graph, arrival):
        """Arrivals over one-way edges ``u -> hub`` (no ``hub -> u`` to
        fold out, so those walkers draw from the plain n2e table) walk
        the exact law next to two-way arrivals at the same hub, at every
        ``q``."""
        hub = int(np.argmax(graph.degrees))
        starts = low_degree_neighbours(graph, hub)
        one_way = [(hub, int(u)) for u in starts[:2]]
        directed = weighted_copy(graph, drop=one_way)
        assert not any(directed.has_edge(v, u) for v, u in one_way)
        assert all(directed.has_edge(u, v) for v, u in one_way)
        for model, folded, q, seed in SQUEEZES:
            engine = hub_engine(directed, model, starts, arrival)
            assert (engine._fold is not None) == folded
            assert engine._pre_accept == q
            pvalue = hub_law_pvalue(
                directed, model, engine, hub, starts, rng=33 + seed
            )
            assert pvalue > 0.01, model

    def test_round_cap_raises(self, graph):
        """A model that never accepts stops after exactly
        ``max_rejection_rounds`` rounds with a ``SamplerError``."""

        class NeverAccepts(Node2VecModel):
            # Declares no lower bound, so every proposal is checked.
            def min_ratio_bound(self, graph):
                return None

            def target_ratio_bulk(self, graph, us, vs, zs, *, hops=None):
                return np.zeros(len(zs))

        rounds = []
        base = resolve_backend("numpy")

        def acceptance_mask(*args):
            rounds.append(len(args[0]))
            return base.acceptance_mask(*args)

        backend = dataclasses.replace(base, acceptance_mask=acceptance_mask)
        samplers = rejection_engine(graph, Node2VecModel(0.5, 2.0)).samplers
        engine = BatchWalkEngine(
            graph,
            NeverAccepts(0.5, 2.0),
            samplers,
            max_rejection_rounds=5,
            backend=backend,
        )
        with pytest.raises(SamplerError, match="exceeded 5 rounds"):
            engine.walks(num_walks=1, length=3, rng=0)
        assert len(rounds) == 5


    def test_ratio_below_declared_floor_raises(self, graph):
        """A model whose ratios fall below its own ``min_ratio_bound``
        would bias the walks through the proposals taken unchecked: the
        engine raises instead."""

        class BreaksItsFloor(Node2VecModel):
            def target_ratio_bulk(self, graph, us, vs, zs, *, hops=None):
                return np.zeros(len(zs))

        model = BreaksItsFloor(0.5, 2.0)
        samplers = rejection_engine(graph, Node2VecModel(0.5, 2.0)).samplers
        engine = BatchWalkEngine(graph, model, samplers)
        assert engine._pre_accept == 0.5
        with pytest.raises(SamplerError, match="below the model's min_ratio_bound"):
            engine.walks(num_walks=1, length=3, rng=0)

    def test_draws_stop_at_the_unchecked_proposal(self, graph):
        """At ``q = 1`` every walker takes its first proposal unchecked:
        one round per step and no ratio call."""
        calls = []

        class Counted(Node2VecModel):
            def target_ratio_bulk(self, graph, us, vs, zs, *, hops=None):
                calls.append(len(zs))
                return super().target_ratio_bulk(graph, us, vs, zs, hops=hops)

        model = Counted(1.0, 1.0)
        engine = BatchWalkEngine(graph, model, rejection_engine(graph, model).samplers)
        engine.walks(num_walks=2, length=6, rng=1)
        assert calls and set(calls) == {0}
        assert len(calls) == engine.stats()["steps"] - 1


class TestReturnFoldPins:
    """Corpora the return-edge fold must leave as they were: both hashes
    were taken before the batch engine folded the return edge out."""

    #: All-rejection batch engine where the return candidate is no
    #: outlier of the ratios, so nothing is folded.  Re-pinned when the
    #: batch engine began to pre-accept under the lower ratio bound
    #: (``q = 0.25`` here); the fold still leaves it as it is.
    UNFOLDED_BATCH = "17872e2c628cf28e8a927bdb628c97c142036506b249eebb8860381e62ad57aa"
    #: Scalar Algorithm 1 over an all-rejection framework where the batch
    #: engine would fold: the scalar engine keeps the paper's envelope.
    SCALAR_AT_FOLDED = "92d9184d988102440bd1ce2028c5de875633c013b4d2600eab106f49e42edfca"

    def test_unfolded_batch_corpus_holds(self, graph):
        engine = rejection_engine(graph, UNFOLDED)
        assert engine._fold is None
        corpus = engine.walks(num_walks=3, length=20, rng=11)
        assert corpus_sha(corpus) == self.UNFOLDED_BATCH

    def test_scalar_corpus_holds_at_folded_parameters(self, graph):
        framework = MemoryAwareFramework.memory_unaware(
            graph, FOLDED, SamplerKind.REJECTION, rng=0
        )
        walks = framework.generate_walks(num_walks=3, length=20, rng=11)
        assert corpus_sha(walks) == self.SCALAR_AT_FOLDED


# ----------------------------------------------------------------------
# carried edge ids: table addressing without edge searches
# ----------------------------------------------------------------------
def mixed_samplers(graph, model):
    """Naive, rejection, alias and a custom ``SamplerSpec``'s sampler, by
    node id mod 4 (nodes below the spec's minimum degree go to alias)."""
    spec = binary_cdf_spec()
    nodes = np.flatnonzero(graph.degrees > 0)
    share = nodes % 4
    share[(share == 3) & (graph.degrees[nodes] < spec.min_degree)] = 2
    samplers = [None] * graph.num_nodes
    for kind, s in (
        (SamplerKind.NAIVE, 0),
        (SamplerKind.REJECTION, 1),
        (SamplerKind.ALIAS, 2),
    ):
        chosen = nodes[share == s]
        built = build_node_samplers(kind, graph, model, chosen)
        for v, sampler in zip(chosen.tolist(), built):
            samplers[v] = sampler
    for v in nodes[share == 3].tolist():
        samplers[v] = spec.build(graph, model, v)
    return samplers


class TestCarriedEdges:
    @pytest.fixture()
    def edge_position_calls(self, monkeypatch):
        calls = []
        original = CSRGraph.edge_positions

        def spy(self, sources, targets):
            calls.append(len(sources))
            return original(self, sources, targets)

        monkeypatch.setattr(CSRGraph, "edge_positions", spy)
        return calls

    def test_node2vec_step_makes_no_edge_position_calls(
        self, graph, model, edge_position_calls
    ):
        """Alias tables and rejection factors are addressed through the
        carried hop's reverse edge, never by searching for it."""
        nodes = np.flatnonzero(graph.degrees > 0)
        samplers = [None] * graph.num_nodes
        for kind, chosen in (
            (SamplerKind.ALIAS, nodes[nodes % 2 == 0]),
            (SamplerKind.REJECTION, nodes[nodes % 2 == 1]),
        ):
            for v, sampler in zip(
                chosen.tolist(), build_node_samplers(kind, graph, model, chosen)
            ):
                samplers[v] = sampler
        engine = BatchWalkEngine(graph, model, samplers)
        engine.walks(num_walks=4, length=15, rng=8)
        dispatch = engine.stats()["dispatch"]
        assert dispatch["alias"]["walkers"] > 0
        assert dispatch["rejection"]["walkers"] > 0
        assert edge_position_calls == []
        graph.edge_positions(nodes[:3], nodes[:3])  # the spy is live
        assert edge_position_calls == [3]

    #: Corpus hashes of the engine before walkers carried their last hop's
    #: edge id; the carried ids only replace searches, so they must hold.
    #: node2vec was re-pinned when the rejection path folded its return
    #: edge out of the envelope, and again when it pre-accepted under the
    #: lower ratio bound; autoregressive (q = 0) kept its pin both times.
    PINNED = {
        "autoregressive": "6b51bca33e9d43f0c0b2c1d75da1de7000b1fa1ab51f2da240850a581555dd7f",
        "node2vec": "e455397d741b1e679f64061084fa1e9ca0b296acb03c6ad85f5b58ce197482f2",
    }

    @pytest.mark.parametrize(
        "name,model",
        [
            ("autoregressive", AutoregressiveModel(alpha=0.2)),
            ("node2vec", Node2VecModel(0.5, 2.0)),
        ],
    )
    def test_directed_one_way_edges_with_custom_sampler(self, name, model):
        """One-way edges (no reverse to address a table by) and custom
        samplers (which return node ids, so the next step searches for
        the hop) give the same corpus as before."""
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 60, size=(360, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        # Every other pair also goes the other way.
        graph = from_edges(
            np.concatenate([pairs, pairs[::2, ::-1]]),
            num_nodes=60,
            undirected=False,
        )
        assert (graph.reverse_edges() < 0).any()
        engine = BatchWalkEngine(graph, model, mixed_samplers(graph, model))
        corpus = engine.walks(num_walks=20, length=12, rng=3)
        dispatch = engine.stats()["dispatch"]
        assert all(dispatch[kind]["walkers"] > 0 for kind in dispatch)
        assert corpus_sha(corpus) == self.PINNED[name]


# ----------------------------------------------------------------------
# corpus assembly from trails
# ----------------------------------------------------------------------
def _trim_row(row: np.ndarray) -> np.ndarray:
    """Reference: one row cut at its first ``-1`` (kept whole when the
    ``-1`` is its first entry), the per-row trim ``split_trails``
    replaces."""
    negative = row < 0
    stop = int(np.argmax(negative)) if negative.any() else len(row)
    return row[: stop if stop > 0 else len(row)].copy()


class TestSplitTrails:
    @pytest.mark.parametrize("shape", [(0, 5), (6, 1), (40, 9)])
    @pytest.mark.parametrize("dead", [0.0, 0.3, 1.0])
    def test_equals_per_row_trim(self, shape, dead):
        rng = np.random.default_rng(int(dead * 10) + shape[0])
        trails = rng.integers(0, 50, size=shape)
        stops = rng.integers(0, shape[1] + 1, size=shape[0])
        cut = rng.random(shape[0]) < dead
        trails[cut[:, None] & (np.arange(shape[1]) >= stops[:, None])] = -1
        walks = split_trails(trails)
        assert len(walks) == shape[0]
        for walk, row in zip(walks, trails):
            assert walk.dtype == np.int64
            assert np.array_equal(walk, _trim_row(row))

    def test_walks_do_not_pin_padding(self):
        trails = np.arange(12, dtype=np.int64).reshape(3, 4)
        # No dead end: the rows themselves, no copy.
        assert all(np.shares_memory(walk, trails) for walk in split_trails(trails))
        # A dead end: the walks share one buffer of their 4 + 2 + 4 nodes.
        trails[1, 2:] = -1
        walks = split_trails(trails)
        assert not any(np.shares_memory(walk, trails) for walk in walks)
        assert {id(walk.base) for walk in walks} == {id(walks[0].base)}
        assert walks[0].base.size == 10

    #: Corpus hashes of the per-row trim (before ``split_trails``) on a
    #: directed graph with sinks: walks of every length from 1 to 9.  The
    #: batch engine's two were re-pinned when its rejection path folded
    #: node2vec's return edge out of the envelope, and again when it
    #: pre-accepted under node2vec's lower ratio bound.
    SINK_PINS = {
        "walks": "6c5638b8a30c44f8c5994b1d6390e3dfa68e40f687d631420511c243bd6b4bd8",
        "walk_chunk": "b9821df57616182ace9210540f6303e17935f6d26259cc7d735de203cf5237e9",
        "scheduler": "c48964bac661bb962ee2d1374fd10b1b43f62290c70c70c9baf24122ec032c0b",
    }

    @pytest.fixture(scope="class")
    def sink_framework(self):
        rng = np.random.default_rng(21)
        pairs = rng.integers(0, 50, size=(300, 2))
        pairs = pairs[(pairs[:, 0] != pairs[:, 1]) & (pairs[:, 0] % 13 != 3)]
        graph = from_edges(pairs, num_nodes=50, undirected=False)
        assert (graph.degrees == 0).sum() == 4
        return MemoryAwareFramework(graph, Node2VecModel(0.5, 2.0), budget=4_000, rng=0)

    def test_batch_engine_hashes_hold_on_sinks(self, sink_framework):
        engine = sink_framework.batch_engine()
        corpus = engine.walks(num_walks=3, length=8, rng=4)
        assert {len(walk) for walk in corpus} >= {2, 9}
        assert corpus_sha(corpus) == self.SINK_PINS["walks"]
        chunk = engine.walk_chunk(list(range(50)), num_walks=2, length=8, rng=5)
        assert corpus_sha(chunk) == self.SINK_PINS["walk_chunk"]

    @pytest.mark.parametrize("policy", ["bucketed", "lockstep"])
    def test_scheduler_hash_holds_on_sinks(self, sink_framework, policy):
        scheduler = BucketedWalkScheduler(
            sink_framework.graph, sink_framework.model, num_shards=3, policy=policy
        )
        walks = scheduler.walk_chunk(list(range(50)), num_walks=2, length=8, rng=6)
        assert corpus_sha(walks) == self.SINK_PINS["scheduler"]


# ----------------------------------------------------------------------
# dead ends round-trip (scalar vs batch, WalkCorpus persistence)
# ----------------------------------------------------------------------
class TestDeadEndRoundTrip:
    @pytest.fixture()
    def sink_graph(self):
        # 0-1-2 chain into sink 3; node 4 isolated; directed.
        return from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 2)],
            undirected=False,
            num_nodes=5,
        )

    def test_trails_identical_semantics(self, sink_graph, model):
        starts = [0, 3, 4]
        scalar_fw = MemoryAwareFramework.memory_unaware(
            sink_graph, model, SamplerKind.NAIVE, rng=0
        )
        scalar_walks = [
            scalar_fw.walk_engine.walk(s, 10, np.random.default_rng(i))
            for i, s in enumerate(starts)
        ]
        engine = BatchWalkEngine(sink_graph, model)
        batch = engine.walks(starts=starts, num_walks=1, length=10, rng=0)

        for walk in list(batch) + scalar_walks:
            assert (walk >= 0).all()  # no padding leaks out
        # Dead-end starts yield the bare start node on both engines.
        assert list(batch[1]) == [3]
        assert list(batch[2]) == [4]
        assert list(scalar_walks[1]) == [3]
        assert list(scalar_walks[2]) == [4]
        # Walks from 0 always end at the sink, fully trimmed.
        assert int(batch[0][-1]) == 3
        assert len(batch[0]) <= 4  # 0 → {1,2} → ... → 3 is at most 4 nodes

    def test_corpus_save_load_round_trip(self, sink_graph, model, tmp_path):
        engine = BatchWalkEngine(sink_graph, model)
        corpus = engine.walks(
            starts=[0, 0, 3, 4], num_walks=2, length=10, rng=1
        )
        path = tmp_path / "walks.txt"
        corpus.save(path)
        loaded = WalkCorpus.load(path)
        assert len(loaded) == len(corpus)
        for original, restored in zip(corpus, loaded):
            assert np.array_equal(original, restored)


# ----------------------------------------------------------------------
# NodeSampler batch APIs
# ----------------------------------------------------------------------
class TestSampleBatchAPIs:
    @pytest.fixture(scope="class", params=list(SamplerKind))
    def sampler(self, request, graph, model):
        fw = MemoryAwareFramework.memory_unaware(
            graph, model, request.param, rng=0
        )
        v = int(graph.degrees.argmax())
        return fw.sampler(v)

    def test_sample_batch_matches_support(self, graph, sampler):
        v = sampler.node
        u = int(graph.neighbors(v)[0])
        draws = sampler.sample_batch(u, 500, np.random.default_rng(0))
        assert draws.shape == (500,)
        assert draws.dtype == np.int64
        assert set(np.unique(draws)) <= set(int(z) for z in graph.neighbors(v))

    def test_sample_first_batch_matches_support(self, graph, sampler):
        v = sampler.node
        draws = sampler.sample_first_batch(300, np.random.default_rng(1))
        assert draws.shape == (300,)
        assert set(np.unique(draws)) <= set(int(z) for z in graph.neighbors(v))

    def test_sample_batch_statistics(self, graph, model, sampler):
        v = sampler.node
        u = int(graph.neighbors(v)[0])
        weights = model.biased_weights(graph, u, v)
        exact = weights / weights.sum()
        draws = sampler.sample_batch(u, 20_000, np.random.default_rng(2))
        support = graph.neighbors(v)
        empirical = np.array(
            [(draws == int(z)).mean() for z in support]
        )
        assert 0.5 * np.abs(empirical - exact).sum() < 0.03
