"""Crawl-mode suite: clocks, rate limiting, circuit breaking, the
resilient client, history-cache degradation, and the crawl estimators.

Everything runs on a :class:`~repro.remote.VirtualClock`, so timing
behaviour is asserted *exactly* — the wait sequence a component performs
is data, not luck.  The two headline contracts:

* the same seed yields byte-identical estimator output under different
  injected timings (latency plans, rate limits);
* the circuit breaker demonstrably opens under an outage, probes
  half-open, and recovers — with walks continuing from cached
  neighbourhoods while it is open.
"""

from dataclasses import dataclass, replace  # noqa: F401 - replace used by supervisor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    CircuitBreaker,
    CircuitOpenError,
    CircuitState,
    CSRGraph,
    DeadlineExceededError,
    InjectedFaultTransport,
    NeighborhoodCache,
    Node2VecModel,
    PermanentTransportError,
    RateLimitedError,
    RemoteGraph,
    ResilientClient,
    RetryPolicy,
    TokenBucket,
    TransientFaultError,
    TransientTransportError,
    VirtualClock,
    crawl_walks,
    estimate_average_degree,
    estimate_pagerank,
)
from repro.exceptions import WalkError
from repro.framework import MemoryBudget, NeighborProvider
from repro.graph import barabasi_albert_graph
from repro.remote import SystemClock
from repro.resilience import ChunkSupervisor, FaultKind, FaultPlan


@pytest.fixture(scope="module")
def hidden_graph():
    """The ground-truth graph only the transport may see."""
    return barabasi_albert_graph(40, 3, rng=7)


def make_stack(
    graph,
    *,
    plans=(),
    rate_limit=None,
    burst=None,
    outages=(),
    policy=None,
    limiter_rate=None,
    limiter_burst=None,
    breaker=None,
    cache=64 * 1024,
    deadline=None,
):
    """One crawl stack (clock, transport, client, remote graph)."""
    clock = VirtualClock()
    transport = InjectedFaultTransport(
        graph,
        clock=clock,
        plans=plans,
        rate_limit=rate_limit,
        burst=burst,
        outages=outages,
    )
    client = ResilientClient(
        transport,
        policy=policy or RetryPolicy(seed=3, base_delay=0.01),
        limiter=TokenBucket(limiter_rate, burst=limiter_burst, clock=clock),
        breaker=breaker
        if breaker is not None
        else CircuitBreaker(clock=clock),
        deadline=deadline,
        clock=clock,
    )
    return clock, transport, client, RemoteGraph(client, cache=cache)


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_virtual_sleep_advances_and_records(self):
        clock = VirtualClock()
        clock.sleep(1.5)
        clock.sleep(0.0)
        assert clock.monotonic() == 1.5
        assert clock.sleeps == [1.5, 0.0]

    def test_virtual_advance_does_not_record(self):
        clock = VirtualClock(start=10.0)
        clock.advance(2.0)
        assert clock.monotonic() == 12.0 and clock.sleeps == []

    def test_virtual_rejects_negative_and_nan(self):
        clock = VirtualClock()
        with pytest.raises(WalkError):
            clock.sleep(-0.1)
        with pytest.raises(WalkError):
            clock.sleep(float("nan"))
        with pytest.raises(WalkError):
            clock.advance(-1.0)

    def test_system_clock_nonpositive_sleep_is_noop(self):
        clock = SystemClock()
        before = clock.monotonic()
        clock.sleep(0.0)
        clock.sleep(-5.0)
        assert clock.monotonic() - before < 0.5


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_grants_are_free(self):
        clock = VirtualClock()
        bucket = TokenBucket(10.0, burst=3, clock=clock)
        assert [bucket.acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        assert clock.sleeps == []

    def test_empty_bucket_waits_exactly_one_refill(self):
        clock = VirtualClock()
        bucket = TokenBucket(4.0, burst=1, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.wait_needed() == pytest.approx(0.25)
        assert bucket.acquire() == pytest.approx(0.25)
        assert clock.sleeps == [pytest.approx(0.25)]

    def test_steady_state_waits_equal_inverse_rate(self):
        clock = VirtualClock()
        bucket = TokenBucket(8.0, burst=1, clock=clock)
        waits = [bucket.acquire() for _ in range(5)]
        assert waits[0] == 0.0
        assert waits[1:] == [pytest.approx(0.125)] * 4
        assert bucket.stats()["waits"] == 4
        assert bucket.stats()["total_wait_seconds"] == pytest.approx(0.5)

    def test_idle_time_refills_up_to_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(2.0, burst=2, clock=clock)
        bucket.acquire()
        bucket.acquire()
        clock.advance(10.0)  # refills to burst cap, not beyond
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.wait_needed() == pytest.approx(0.5)

    def test_disabled_bucket_never_waits(self):
        clock = VirtualClock()
        bucket = TokenBucket(None, clock=clock)
        assert all(bucket.acquire() == 0.0 for _ in range(100))
        assert bucket.wait_needed() == 0.0 and clock.sleeps == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(WalkError):
            TokenBucket(0.0)
        with pytest.raises(WalkError):
            TokenBucket(1.0, burst=0.5)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kw):
        clock = VirtualClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 5.0)
        return clock, CircuitBreaker(clock=clock, **kw)

    def test_trips_after_consecutive_failures(self):
        _, breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1 and breaker.rejected == 1

    def test_success_resets_the_failure_streak(self):
        _, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_retry_in_counts_down_on_the_clock(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_in() == pytest.approx(5.0)
        clock.advance(2.0)
        assert breaker.retry_in() == pytest.approx(3.0)

    def test_half_open_admits_limited_probes(self):
        clock, breaker = self.make(half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent call refused
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert breaker.retry_in() == pytest.approx(5.0)
        assert breaker.opens == 2

    def test_release_probe_frees_the_slot_without_outcome(self):
        clock, breaker = self.make(half_open_probes=1)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow() and not breaker.allow()
        breaker.release_probe()  # e.g. the admitted call got a 429
        assert breaker.allow()  # slot is available again
        assert breaker.state is CircuitState.HALF_OPEN

    def test_transition_log_is_complete(self):
        clock, breaker = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert [(a, b) for a, b, _ in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_rejects_bad_parameters(self):
        for kw in (
            {"failure_threshold": 0},
            {"reset_timeout": -1.0},
            {"half_open_probes": 0},
        ):
            with pytest.raises(WalkError):
                CircuitBreaker(**kw)


# ----------------------------------------------------------------------
# transport fault injection
# ----------------------------------------------------------------------
class TestInjectedFaultTransport:
    def test_clean_fetch_matches_hidden_graph(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(hidden_graph, clock=clock)
        ids, weights = transport.fetch(0)
        np.testing.assert_array_equal(ids, hidden_graph.neighbors(0))
        np.testing.assert_array_equal(
            weights, hidden_graph.neighbor_weights(0)
        )
        assert transport.calls == 1 and transport.successes == 1

    def test_out_of_range_node_is_permanent(self, hidden_graph):
        transport = InjectedFaultTransport(hidden_graph, clock=VirtualClock())
        with pytest.raises(PermanentTransportError):
            transport.fetch(hidden_graph.num_nodes)

    def test_flaky_node_heals_after_scheduled_failures(self, hidden_graph):
        plan = FaultPlan(kind=FaultKind.FLAKY, chunks={4}, failures_per_chunk=2)
        transport = InjectedFaultTransport(
            hidden_graph, clock=VirtualClock(), plans=[plan]
        )
        for _ in range(2):
            with pytest.raises(TransientTransportError):
                transport.fetch(4)
        ids, _ = transport.fetch(4)  # third per-node attempt succeeds
        assert len(ids) == hidden_graph.degree(4)
        assert transport.fault_counts["flaky"] == 2

    def test_latency_spike_sleeps_the_seeded_amount(self, hidden_graph):
        plan = FaultPlan(
            kind=FaultKind.LATENCY,
            chunks={2},
            failures_per_chunk=1,
            latency_seconds=0.2,
            seed=9,
        )
        clock = VirtualClock()
        transport = InjectedFaultTransport(hidden_graph, clock=clock, plans=[plan])
        transport.fetch(2)
        expected = plan.latency_for(2, 0)
        assert 0.1 <= expected <= 0.3  # [0.5, 1.5] x latency_seconds
        assert clock.sleeps == [pytest.approx(expected)]
        transport.fetch(2)  # healed: no further spike
        assert len(clock.sleeps) == 1

    def test_server_rate_limit_returns_exact_retry_after(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, rate_limit=2.0, burst=1
        )
        transport.fetch(0)
        with pytest.raises(RateLimitedError) as info:
            transport.fetch(1)
        assert info.value.retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        transport.fetch(1)  # token refilled
        assert transport.rate_limited == 1

    def test_outage_window_fails_then_clears(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, outages=[(1.0, 2.0)]
        )
        transport.fetch(0)  # before the window
        clock.advance(1.5)
        with pytest.raises(TransientTransportError):
            transport.fetch(0)
        clock.advance(1.0)
        transport.fetch(0)  # after the window
        assert transport.outage_failures == 1

    def test_rejects_bad_parameters(self, hidden_graph):
        with pytest.raises(WalkError):
            InjectedFaultTransport(hidden_graph, rate_limit=-1.0)
        with pytest.raises(WalkError):
            InjectedFaultTransport(hidden_graph, outages=[(3.0, 1.0)])


# ----------------------------------------------------------------------
# resilient client
# ----------------------------------------------------------------------
class TestResilientClient:
    def test_transient_fault_retried_with_exact_backoff(self, hidden_graph):
        plan = FaultPlan(kind=FaultKind.FLAKY, chunks={4}, failures_per_chunk=1)
        clock, transport, client, _ = make_stack(hidden_graph, plans=[plan])
        ids, _ = client.fetch(4)
        assert len(ids) == hidden_graph.degree(4)
        assert client.retries == 1 and client.transient_failures == 1
        assert clock.sleeps == [pytest.approx(client.policy.delay(4, 0))]

    def test_permanent_fault_propagates_immediately(self, hidden_graph):
        plan = FaultPlan(
            kind=FaultKind.CRASH, chunks={4}, failures_per_chunk=None
        )
        _, transport, client, _ = make_stack(hidden_graph, plans=[plan])
        with pytest.raises(PermanentTransportError):
            client.fetch(4)
        assert transport.calls == 1  # no retry of a permanent error
        assert client.permanent_failures == 1

    def test_corrupt_response_detected_and_retried(self, hidden_graph):
        plan = FaultPlan(
            kind=FaultKind.CORRUPT, chunks={5}, failures_per_chunk=1
        )
        _, transport, client, _ = make_stack(hidden_graph, plans=[plan])
        ids, _ = client.fetch(5)
        assert int(ids.min()) >= 0  # the corrupt payload never escapes
        assert client.transient_failures == 1 and transport.calls == 2

    def test_retry_exhaustion_raises_last_error(self, hidden_graph):
        plan = FaultPlan(
            kind=FaultKind.FLAKY, chunks={4}, failures_per_chunk=None
        )
        _, transport, client, _ = make_stack(hidden_graph, plans=[plan])
        with pytest.raises(TransientTransportError):
            client.fetch(4)
        assert transport.calls == client.policy.max_attempts

    def test_429_honours_retry_after_and_spares_the_breaker(self, hidden_graph):
        clock, transport, client, _ = make_stack(
            hidden_graph, rate_limit=2.0, burst=1
        )
        client.fetch(0)
        ids, _ = client.fetch(1)  # 429 then success after waiting
        assert len(ids) == hidden_graph.degree(1)
        assert client.rate_limit_retries == 1
        assert client.breaker.consecutive_failures == 0
        expected = max(0.5, client.policy.delay(1, 0))
        assert clock.sleeps == [pytest.approx(expected)]

    def test_client_limiter_avoids_server_429s(self, hidden_graph):
        # Crawl just under the advertised rate: matching it exactly is a
        # float-boundary coin flip, which is precisely why a polite
        # client leaves headroom.
        _, transport, client, _ = make_stack(
            hidden_graph, rate_limit=5.0, burst=1, limiter_rate=4.0, limiter_burst=1
        )
        for node in range(10):
            client.fetch(node)
        assert transport.rate_limited == 0
        assert client.limiter.stats()["waits"] > 0

    def test_deadline_refuses_unaffordable_waits(self, hidden_graph):
        clock, transport, client, _ = make_stack(
            hidden_graph, limiter_rate=1.0
        )
        client.fetch(0)
        with pytest.raises(DeadlineExceededError):
            client.fetch(1, deadline=0.5)  # needs a 1 s token wait
        assert transport.calls == 1  # never reached the wire
        assert client.deadline_failures == 1
        client.fetch(1)  # without a deadline the same call just waits

    def test_open_circuit_fails_fast_without_wire_calls(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, outages=[(0.0, 100.0)]
        )
        client = ResilientClient(
            transport,
            policy=RetryPolicy(seed=3, base_delay=0.01),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=10.0, clock=clock
            ),
            clock=clock,
        )
        with pytest.raises(CircuitOpenError) as info:
            client.fetch(0)
        assert transport.calls == 1  # tripped after the first failure
        # The backoff sleep before the re-check already consumed part of
        # the reset window.
        expected = 10.0 - client.policy.delay(0, 0)
        assert info.value.retry_in == pytest.approx(expected)
        with pytest.raises(CircuitOpenError):
            client.fetch(0)
        assert transport.calls == 1  # fail-fast: the wire was not touched
        assert client.circuit_rejections >= 1


# ----------------------------------------------------------------------
# history cache + remote graph
# ----------------------------------------------------------------------
class TestRemoteGraph:
    def test_interface_matches_csr_graph(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph)
        for v in range(0, hidden_graph.num_nodes, 7):
            assert rgraph.degree(v) == hidden_graph.degree(v)
            np.testing.assert_array_equal(
                rgraph.neighbors(v), hidden_graph.neighbors(v)
            )
            np.testing.assert_array_equal(
                rgraph.neighbor_weights(v), hidden_graph.neighbor_weights(v)
            )
            assert rgraph.weight_sum(v) == pytest.approx(
                hidden_graph.weight_sum(v)
            )
        u, v = 0, int(hidden_graph.neighbors(0)[0])
        assert rgraph.has_edge(u, v) == hidden_graph.has_edge(u, v)
        assert rgraph.edge_weight(u, v) == pytest.approx(
            hidden_graph.edge_weight(u, v)
        )

    def test_both_graphs_satisfy_neighbor_provider(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph)
        assert isinstance(hidden_graph, NeighborProvider)
        assert isinstance(rgraph, NeighborProvider)

    def test_cache_hits_do_not_bill_api_calls(self, hidden_graph):
        _, transport, _, rgraph = make_stack(hidden_graph)
        for _ in range(5):
            rgraph.neighbors(3)
        assert transport.calls == 1
        assert rgraph.cache.stats()["hits"] == 4

    def test_out_of_range_node_rejected_locally(self, hidden_graph):
        _, transport, _, rgraph = make_stack(hidden_graph)
        with pytest.raises(WalkError):
            rgraph.neighborhood(-1)
        assert transport.calls == 0

    def test_cache_budget_invariant_asserted_on_every_put(self, hidden_graph):
        """The invariant is *checked on every put*, not sampled."""
        budget = MemoryBudget(total_bytes=2048)
        cache = NeighborhoodCache(budget)
        puts = 0
        _, _, client, _ = make_stack(hidden_graph, cache=cache)
        rgraph = RemoteGraph(client, cache=cache)
        original_put = cache.put

        def asserting_put(key, value):
            nonlocal puts
            ok = original_put(key, value)
            puts += 1
            assert cache.stats()["used_bytes"] <= budget.total_bytes
            return ok

        cache.put = asserting_put
        corpus = crawl_walks(rgraph, num_walks=15, length=8, rng=3)
        assert puts > 0 and len(corpus.walks) == 15
        assert cache.stats()["evictions"] > 0  # the budget actually bound
        assert cache.stats()["peak_bytes"] <= budget.total_bytes


# ----------------------------------------------------------------------
# degradation: stale-while-open
# ----------------------------------------------------------------------
class TestDegradation:
    def test_walks_continue_from_cache_while_circuit_open(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, outages=[(1.0, 1000.0)]
        )
        client = ResilientClient(
            transport,
            policy=RetryPolicy(seed=3, max_attempts=2, base_delay=0.001),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=500.0, clock=clock
            ),
            clock=clock,
        )
        rgraph = RemoteGraph(client, cache=10 * 1024 * 1024)
        # Warm phase: crawl everything while the API is healthy.
        warm = crawl_walks(rgraph, num_walks=30, length=10, rng=5)
        assert warm.metadata["crawl"]["truncated_walks"] == 0
        warmed = rgraph.observed_nodes
        clock.advance(2.0)  # into the outage
        with pytest.raises((CircuitOpenError, TransientTransportError)):
            # force the breaker open on an uncached miss
            while True:
                client.fetch(0)
        assert client.breaker.state is CircuitState.OPEN
        degraded = crawl_walks(rgraph, num_walks=10, length=6, rng=6)
        meta = degraded.metadata["crawl"]
        # Walks kept moving on cached neighbourhoods, visibly stale.
        assert meta["stale_hits"] > 0
        assert rgraph.observed_nodes == warmed  # nothing new fetched
        total_steps = sum(len(w) for w in degraded.walks)
        assert total_steps > 10  # not every walk died at its start node

    def test_cold_cache_open_circuit_truncates_walks(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, outages=[(0.0, 1000.0)]
        )
        client = ResilientClient(
            transport,
            policy=RetryPolicy(seed=3, max_attempts=2, base_delay=0.001),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=500.0, clock=clock
            ),
            clock=clock,
        )
        rgraph = RemoteGraph(client, cache=1024 * 1024)
        corpus = crawl_walks(rgraph, num_walks=8, length=6, rng=5)
        meta = corpus.metadata["crawl"]
        assert meta["truncated_walks"] == 8
        assert all(len(w) == 1 for w in corpus.walks)


# ----------------------------------------------------------------------
# breaker recovery, end to end
# ----------------------------------------------------------------------
class TestBreakerRecovery:
    def test_open_half_open_recover_cycle(self, hidden_graph):
        clock = VirtualClock()
        transport = InjectedFaultTransport(
            hidden_graph, clock=clock, outages=[(0.0, 10.0)]
        )
        client = ResilientClient(
            transport,
            policy=RetryPolicy(seed=3, max_attempts=2, base_delay=0.01),
            breaker=CircuitBreaker(
                failure_threshold=3, reset_timeout=2.0, clock=clock
            ),
            clock=clock,
        )
        rgraph = RemoteGraph(client, cache=1024 * 1024)
        result = estimate_average_degree(rgraph, num_samples=30, rng=5)
        moves = [(a, b) for a, b, _ in client.breaker.transitions]
        # Opened under the outage, probed every reset window, recovered.
        assert moves[0] == ("closed", "open")
        assert ("open", "half_open") in moves
        assert ("half_open", "open") in moves  # failed probes re-tripped
        assert moves[-1] == ("half_open", "closed")
        assert client.breaker.state is CircuitState.CLOSED
        assert client.breaker.opens >= 2
        assert result.circuit_waits > 0
        # Recovery could only have happened after the outage cleared.
        recovery_time = client.breaker.transitions[-1][2]
        assert recovery_time >= 10.0
        assert result.num_samples == 30


# ----------------------------------------------------------------------
# determinism: byte-identical output under different timings
# ----------------------------------------------------------------------
class TestCrawlDeterminism:
    def run_stack(self, graph, latency_seed, latency_scale, limiter_rate):
        clock = VirtualClock()
        plans = [
            FaultPlan(
                kind=FaultKind.LATENCY,
                rate=0.5,
                seed=latency_seed,
                latency_seconds=latency_scale,
            ),
            FaultPlan(
                kind=FaultKind.FLAKY, rate=0.15, seed=99, failures_per_chunk=1
            ),
        ]
        transport = InjectedFaultTransport(
            graph, clock=clock, plans=plans, rate_limit=50.0, burst=5
        )
        client = ResilientClient(
            transport,
            policy=RetryPolicy(seed=3),
            limiter=TokenBucket(limiter_rate, burst=4, clock=clock),
            breaker=CircuitBreaker(clock=clock),
            clock=clock,
        )
        rgraph = RemoteGraph(client, cache=256 * 1024)
        corpus = crawl_walks(
            rgraph,
            num_walks=12,
            length=8,
            model=Node2VecModel(0.5, 2.0),
            rng=11,
        )
        degree = estimate_average_degree(rgraph, num_samples=80, rng=12)
        pagerank = estimate_pagerank(rgraph, 0, num_samples=60, rng=13)
        return clock, corpus, degree, pagerank

    def test_same_seed_same_bytes_under_different_timings(self, hidden_graph):
        c1, corpus1, deg1, pr1 = self.run_stack(hidden_graph, 1, 0.05, 40.0)
        c2, corpus2, deg2, pr2 = self.run_stack(hidden_graph, 2, 0.5, 9.0)
        assert abs(c1.now - c2.now) > 1.0  # genuinely different timings
        for a, b in zip(corpus1.walks, corpus2.walks):
            assert a.tobytes() == b.tobytes()
        assert deg1.average_degree == deg2.average_degree
        assert pr1.scores.tobytes() == pr2.scores.tobytes()

    def test_different_walk_seed_changes_output(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph)
        a = estimate_pagerank(rgraph, 0, num_samples=50, rng=1)
        b = estimate_pagerank(rgraph, 0, num_samples=50, rng=2)
        assert a.scores.tobytes() != b.scores.tobytes()


# ----------------------------------------------------------------------
# estimator quality
# ----------------------------------------------------------------------
class TestEstimators:
    def test_degree_estimate_converges(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph, cache=4 * 1024 * 1024)
        result = estimate_average_degree(
            rgraph, num_samples=3000, rng=5, snapshot_every=500
        )
        true_avg = float(
            np.mean([hidden_graph.degree(v) for v in range(hidden_graph.num_nodes)])
        )
        assert result.average_degree == pytest.approx(true_avg, rel=0.15)
        # The accuracy curve is monotone in API calls and ends at the total.
        calls = [c for c, _ in result.curve]
        assert calls == sorted(calls)
        assert calls[-1] == result.api_calls

    def test_pagerank_estimate_matches_power_iteration(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph, cache=4 * 1024 * 1024)
        query, decay = 0, 0.85
        result = estimate_pagerank(
            rgraph,
            query,
            decay=decay,
            max_length=60,
            num_samples=4000,
            rng=7,
            snapshot_every=1000,
        )
        exact = exact_restart_distribution(hidden_graph, query, decay)
        l1 = float(np.abs(result.scores - exact).sum())
        assert l1 < 0.2
        assert result.scores.sum() == pytest.approx(1.0)
        assert len(result.curve) == 4

    def test_estimator_input_validation(self, hidden_graph):
        _, _, _, rgraph = make_stack(hidden_graph)
        with pytest.raises(WalkError):
            estimate_average_degree(rgraph, num_samples=0)
        with pytest.raises(WalkError):
            estimate_pagerank(rgraph, -1)
        with pytest.raises(WalkError):
            estimate_pagerank(rgraph, 0, decay=1.5)
        with pytest.raises(WalkError):
            crawl_walks(rgraph, num_walks=0, length=5)
        with pytest.raises(WalkError):
            crawl_walks(rgraph, num_walks=2, length=5, starts=np.array([1]))

    def test_crawl_walk_metadata_records_cost(self, hidden_graph):
        _, transport, _, rgraph = make_stack(hidden_graph)
        corpus = crawl_walks(
            rgraph, num_walks=10, length=6, model=Node2VecModel(0.5, 2.0), rng=4
        )
        meta = corpus.metadata["crawl"]
        assert meta["model"] == "node2vec"
        assert meta["api_calls"] == transport.calls
        assert meta["truncated_walks"] == 0
        assert 0.0 <= meta["cache"]["hit_rate"] <= 1.0


def exact_restart_distribution(graph, query, decay):
    """Exact stationary visit distribution of decay-terminated restart
    walks (the quantity the Monte-Carlo estimator approximates)."""
    n = graph.num_nodes
    transition = np.zeros((n, n))
    for u in range(n):
        ids = graph.neighbors(u)
        w = graph.neighbor_weights(u)
        if len(ids) and w.sum() > 0:
            transition[u, ids] = w / w.sum()
    restart = np.zeros(n)
    restart[query] = 1.0
    visits = restart.copy()
    step = restart.copy()
    for _ in range(200):
        step = decay * step @ transition
        visits += step
        if step.sum() < 1e-12:
            break
    return visits / visits.sum()


# ----------------------------------------------------------------------
# satellite: supervisor sleeps until the earliest backoff deadline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StubTask:
    index: int
    nodes: tuple
    attempt: int = 0


class _StubHandle:
    """Pool handle whose result is available immediately."""

    def __init__(self, outcome):
        self.outcome = outcome

    def ready(self):
        return True

    def get(self, timeout=None):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


class _StubPool:
    """Single-threaded stand-in for multiprocessing.Pool."""

    def __init__(self, script):
        #: (index, attempt) -> result or exception
        self.script = script
        self.submissions = []

    def apply_async(self, fn, args):
        task = args[0]
        self.submissions.append((task.index, task.attempt))
        return _StubHandle(self.script[(task.index, task.attempt)])


class TestSupervisorBackoffSleep:
    def test_sleeps_exactly_until_earliest_backoff_deadline(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=3, base_delay=0.2, seed=5)
        boom = TransientFaultError(0, 0)
        pool = _StubPool(
            {(0, 0): boom, (0, 1): "ok-0", (1, 0): boom, (1, 1): "ok-1"}
        )
        supervisor = ChunkSupervisor(
            lambda task: task,
            policy=policy,
            sleep=clock.sleep,
            monotonic=clock.monotonic,
        )
        run = supervisor.run_pool(
            pool, [_StubTask(0, (0,)), _StubTask(1, (1,))]
        )
        assert run.results == {0: "ok-0", 1: "ok-1"}
        # Both chunks failed instantly, so the gather loop had nothing
        # pending and slept exactly to the earliest backoff deadline —
        # no fixed-interval polling.
        d0, d1 = policy.delay(0, 0), policy.delay(1, 0)
        assert clock.sleeps[0] == pytest.approx(min(d0, d1))
        assert sum(clock.sleeps) == pytest.approx(max(d0, d1))
        assert clock.now == pytest.approx(max(d0, d1))

    def test_promotes_all_due_retries_after_waking(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=2, base_delay=0.1, seed=5)
        boom = TransientFaultError(0, 0)
        pool = _StubPool({(i, 0): boom for i in range(3)} | {(i, 1): i for i in range(3)})
        supervisor = ChunkSupervisor(
            lambda task: task,
            policy=policy,
            on_exhausted="dead-letter",
            sleep=clock.sleep,
            monotonic=clock.monotonic,
        )
        run = supervisor.run_pool(
            pool, [_StubTask(i, (i,)) for i in range(3)]
        )
        assert run.results == {0: 0, 1: 1, 2: 2}
        assert run.total_retries == 3
        # Waking never overshoots: total virtual time equals the latest
        # backoff deadline, not a multiple of a poll interval.
        latest = max(policy.delay(i, 0) for i in range(3))
        assert clock.now == pytest.approx(latest)


# ----------------------------------------------------------------------
# satellite: RetryPolicy.delay properties
# ----------------------------------------------------------------------
policy_strategy = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.0, max_value=5.0),
    backoff=st.floats(min_value=1.0, max_value=4.0),
    max_delay=st.floats(min_value=0.0, max_value=10.0),
    jitter=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


class TestRetryPolicyProperties:
    SETTINGS = settings(max_examples=60, deadline=None)

    @SETTINGS
    @given(
        policy=policy_strategy,
        chunk=st.integers(min_value=0, max_value=10_000),
        attempt=st.integers(min_value=0, max_value=12),
    )
    def test_max_delay_cap_honoured(self, policy, chunk, attempt):
        assert policy.delay(chunk, attempt) <= policy.max_delay

    @SETTINGS
    @given(
        policy=policy_strategy,
        chunk=st.integers(min_value=0, max_value=10_000),
        attempt=st.integers(min_value=0, max_value=12),
    )
    @example(  # a subnormal raw delay: jitter would round out of the band
        policy=RetryPolicy(
            max_attempts=1,
            base_delay=5e-324,
            backoff=1.0,
            max_delay=1.0,
            jitter=1.75,
            seed=141,
        ),
        chunk=1,
        attempt=3,
    )
    def test_jitter_factor_within_advertised_band(self, policy, chunk, attempt):
        raw = policy.base_delay * policy.backoff**attempt
        delay = policy.delay(chunk, attempt)
        if raw > 0:
            factor = delay / raw
            # Below the cap the jitter multiplier is in [1, 1 + jitter];
            # at the cap the delay may only be smaller.
            if delay < policy.max_delay:
                assert 1.0 - 1e-9 <= factor <= 1.0 + policy.jitter + 1e-9
            else:
                assert factor <= 1.0 + policy.jitter + 1e-9
        else:
            assert delay == 0.0

    @SETTINGS
    @given(
        policy=policy_strategy,
        chunk=st.integers(min_value=0, max_value=10_000),
        attempt=st.integers(min_value=0, max_value=12),
    )
    def test_deterministic_for_fixed_chunk_and_attempt(
        self, policy, chunk, attempt
    ):
        clone = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=policy.base_delay,
            backoff=policy.backoff,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            seed=policy.seed,
        )
        assert policy.delay(chunk, attempt) == clone.delay(chunk, attempt)
        assert policy.delay(chunk, attempt) == policy.delay(chunk, attempt)


# ----------------------------------------------------------------------
# satellite: LATENCY / FLAKY fault kinds on the supervisor path
# ----------------------------------------------------------------------
class TestNewFaultKinds:
    def test_flaky_raises_transient_fault(self):
        plan = FaultPlan(kind=FaultKind.FLAKY, chunks={2}, failures_per_chunk=1)
        with pytest.raises(TransientFaultError):
            plan.before_chunk(2, 0, sleep=lambda s: None)
        plan.before_chunk(2, 1, sleep=lambda s: None)  # healed
        plan.before_chunk(3, 0, sleep=lambda s: None)  # never scheduled

    def test_latency_sleeps_seeded_spike_through_injected_sleep(self):
        plan = FaultPlan(
            kind=FaultKind.LATENCY,
            chunks={1},
            failures_per_chunk=1,
            latency_seconds=0.4,
            seed=21,
        )
        slept = []
        plan.before_chunk(1, 0, sleep=slept.append)
        assert slept == [pytest.approx(plan.latency_for(1, 0))]
        assert 0.2 <= slept[0] <= 0.6
        plan.before_chunk(1, 1, sleep=slept.append)  # healed: no sleep
        assert len(slept) == 1

    def test_latency_schedule_is_deterministic(self):
        plan = FaultPlan(kind=FaultKind.LATENCY, rate=1.0, seed=13)
        again = FaultPlan(kind=FaultKind.LATENCY, rate=1.0, seed=13)
        for chunk in range(5):
            for attempt in range(3):
                assert plan.latency_for(chunk, attempt) == again.latency_for(
                    chunk, attempt
                )
        assert plan.latency_for(0, 0) != plan.latency_for(0, 1)

    def test_latency_zero_for_non_latency_kinds(self):
        plan = FaultPlan(kind=FaultKind.CRASH, chunks={0})
        assert plan.latency_for(0, 0) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(WalkError):
            FaultPlan(kind=FaultKind.LATENCY, latency_seconds=-0.1)
