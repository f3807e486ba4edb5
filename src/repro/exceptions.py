"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure raised by this package with a single ``except`` clause
while still distinguishing the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphFormatError(ReproError):
    """An edge list, CSR array set, or graph file is malformed."""


class EmptyGraphError(GraphFormatError):
    """An operation requires at least one node or edge but the graph is empty."""


class ShardLayoutError(GraphFormatError):
    """A sharded CSR layout on disk is malformed: missing or truncated
    shard files, content-hash mismatches, an invalid manifest, or shard
    metadata inconsistent with the arrays it describes."""


class DistributionError(ReproError):
    """A discrete probability distribution is invalid (negative mass,
    zero total mass, NaNs, or mismatched lengths)."""


class SamplerError(ReproError):
    """A sampler was constructed or used incorrectly."""


class SamplerConfigError(SamplerError, ValueError):
    """A sampler received an invalid configuration value.

    Bridges into ``ValueError`` so callers validating arguments with the
    stdlib idiom (``except ValueError``) keep working while the error
    stays inside the single-rooted :class:`ReproError` hierarchy.
    """


class RngConfigError(ReproError, TypeError):
    """An RNG-like argument was not ``None``, an int seed, or a
    :class:`numpy.random.Generator`.

    Bridges into ``TypeError`` (it is a wrong-type error by nature) while
    remaining catchable as :class:`ReproError`.
    """


class BoundingConstantError(ReproError):
    """Bounding-constant computation received invalid inputs."""


class CostModelError(ReproError):
    """The cost model was instantiated with invalid parameters."""


class BudgetError(ReproError):
    """A memory budget is invalid (negative, or below the minimum feasible
    footprint of the cheapest sampler assignment)."""


class InfeasibleBudgetError(BudgetError):
    """No sampler assignment fits within the requested memory budget."""


class SimulatedOOMError(ReproError):
    """Raised when a memory-unaware method's modeled footprint exceeds the
    simulated physical memory of the machine.

    The paper observes real out-of-memory failures (alias method on
    LiveJournal/Twitter).  Because this reproduction runs on scaled-down
    graphs, the same failure is reproduced as an explicit gate computed from
    the analytic cost model rather than from the operating system.
    """

    def __init__(self, required_bytes: int, available_bytes: int, what: str = "") -> None:
        self.required_bytes = int(required_bytes)
        self.available_bytes = int(available_bytes)
        self.what = what
        super().__init__(
            f"simulated OOM{f' ({what})' if what else ''}: requires "
            f"{required_bytes} bytes but only {available_bytes} bytes available"
        )


class SimulatedTimeoutError(ReproError):
    """Raised when a task's modeled time cost exceeds the configured limit.

    Mirrors the paper's "cannot finish the task in 4 hours" observation for
    the naive method on billion-edge graphs.
    """

    def __init__(self, modeled_cost: float, limit: float, what: str = "") -> None:
        self.modeled_cost = float(modeled_cost)
        self.limit = float(limit)
        self.what = what
        super().__init__(
            f"simulated timeout{f' ({what})' if what else ''}: modeled cost "
            f"{modeled_cost:.3g} exceeds limit {limit:.3g}"
        )


class OptimizerError(ReproError):
    """The cost-based optimizer received an inconsistent problem instance."""


class AssignmentError(ReproError):
    """A node-sampler assignment is invalid (unknown sampler, wrong length,
    or violates its memory budget)."""


class ModelError(ReproError):
    """A second-order random walk model was configured incorrectly."""


class WalkError(ReproError):
    """A random walk request is invalid (bad start node, non-positive
    length, etc.)."""


class KernelBackendError(WalkError):
    """A kernel backend is unknown or its soft dependency failed to load.

    Raised by :func:`repro.walks.kernels.resolve_backend` for a name that
    was never registered, and by backend loaders whose optional compiled
    dependency (e.g. ``numba``) is absent or broken.  The latter is
    normally swallowed by the resolver's graceful fallback — surfacing as
    a :class:`KernelBackendWarning` instead — unless the failing backend
    *is* the fallback.
    """


class WalkTimeoutError(WalkError):
    """A walk chunk exceeded its wall-clock timeout.

    Raised (or recorded as a retry cause) by the chunk supervisor when a
    worker fails to return within ``timeout`` seconds — the containment
    that keeps one hung worker from wedging an entire corpus run.
    """

    def __init__(self, chunk_index: int, timeout_seconds: float) -> None:
        self.chunk_index = int(chunk_index)
        self.timeout_seconds = float(timeout_seconds)
        super().__init__(
            f"chunk {chunk_index} exceeded its {timeout_seconds:.3g}s timeout"
        )

    def __reduce__(self):
        return (type(self), (self.chunk_index, self.timeout_seconds))


class ChunkFailure(WalkError):
    """A walk worker chunk failed, wrapped with its execution context.

    Carries the chunk index, the chunk's start nodes, how many attempts
    were made, and the original cause, so a failure deep inside a worker
    process surfaces as "chunk 17 (nodes 1088..1151) failed after 3
    attempts: ..." instead of a bare traceback.  Picklable, so it crosses
    the multiprocessing pool boundary intact.
    """

    def __init__(
        self,
        chunk_index: int,
        start_nodes: tuple,
        attempts: int,
        cause: BaseException | str,
    ) -> None:
        self.chunk_index = int(chunk_index)
        self.start_nodes = tuple(int(v) for v in start_nodes)
        self.attempts = int(attempts)
        self.cause = cause
        if self.start_nodes:
            span = f"nodes {self.start_nodes[0]}..{self.start_nodes[-1]}"
        else:
            span = "no start nodes"
        super().__init__(
            f"chunk {self.chunk_index} ({span}, {len(self.start_nodes)} "
            f"starts) failed after {self.attempts} attempt(s): {cause!r}"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.chunk_index, self.start_nodes, self.attempts, self.cause),
        )


class InjectedFaultError(ReproError):
    """A deterministic fault raised by a :class:`repro.resilience.FaultPlan`.

    Only ever raised when fault injection is explicitly installed; its
    presence in a dead-letter record identifies a test-induced failure.
    """

    def __init__(self, chunk_index: int, attempt: int) -> None:
        self.chunk_index = int(chunk_index)
        self.attempt = int(attempt)
        super().__init__(
            f"injected fault in chunk {chunk_index} (attempt {attempt})"
        )

    def __reduce__(self):
        return (type(self), (self.chunk_index, self.attempt))


class TransientFaultError(InjectedFaultError):
    """A deterministic *transient* fault (:attr:`FaultKind.FLAKY`).

    Semantically distinct from a crash: the schedule guarantees the
    failure heals after ``failures_per_chunk`` attempts, so a retry
    policy with enough budget always masks it.  The transport layer maps
    this kind onto :class:`TransientTransportError`.
    """


class TransportError(ReproError):
    """A remote neighbour-API request failed.

    Base class for every failure mode of the crawl-mode transport layer
    (:mod:`repro.remote`): transient and permanent server errors, rate
    limiting, client-side deadlines, and the circuit breaker refusing to
    issue a call at all.
    """


class TransientTransportError(TransportError):
    """A remote request failed in a way that is expected to heal.

    The retryable class: connection resets, 5xx-style hiccups, and the
    :attr:`repro.resilience.FaultKind.FLAKY` injected fault all surface
    here.  :class:`repro.remote.ResilientClient` retries these under its
    :class:`~repro.resilience.RetryPolicy`.
    """


class PermanentTransportError(TransportError):
    """A remote request failed in a way no retry can fix (4xx-style).

    Raised for malformed or forbidden requests and for
    :attr:`repro.resilience.FaultKind.CRASH` faults injected with a
    persistent schedule; the resilient client fails fast instead of
    burning retry budget.
    """


class RateLimitedError(TransientTransportError):
    """The remote API rejected a request for exceeding its rate limit.

    The HTTP-429 shape: carries the server-suggested ``retry_after``
    delay (seconds).  The resilient client honours the larger of
    ``retry_after`` and its own backoff before the next attempt.
    """

    def __init__(self, retry_after: float) -> None:
        self.retry_after = float(retry_after)
        super().__init__(
            f"rate limited by remote API; retry after {self.retry_after:.3g}s"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.retry_after,))


class DeadlineExceededError(TransportError):
    """A remote request ran out of its client-side deadline.

    Raised before an attempt (or a backoff sleep) that could not finish
    within the caller's deadline — the bounded-latency guarantee of the
    resilient client.
    """

    def __init__(self, deadline_seconds: float, elapsed_seconds: float) -> None:
        self.deadline_seconds = float(deadline_seconds)
        self.elapsed_seconds = float(elapsed_seconds)
        super().__init__(
            f"deadline of {self.deadline_seconds:.3g}s exceeded after "
            f"{self.elapsed_seconds:.3g}s"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.deadline_seconds, self.elapsed_seconds))


class CircuitOpenError(TransportError):
    """The circuit breaker refused to issue a remote call.

    Raised while the breaker is open (the remote API is presumed down)
    and the requested neighbourhood is not in the history cache — the
    point where graceful degradation runs out of road.  Walks catch this
    to truncate instead of crashing; the truncation is recorded in
    ``WalkCorpus.metadata``.
    """

    def __init__(self, failures: int, retry_in: float) -> None:
        self.failures = int(failures)
        self.retry_in = float(retry_in)
        super().__init__(
            f"circuit open after {self.failures} consecutive failure(s); "
            f"next probe in {self.retry_in:.3g}s"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.failures, self.retry_in))


class DeterminismError(ReproError):
    """The runtime determinism sanitizer observed stream divergence.

    Raised by :mod:`repro.analysis.dsan` when per-chunk RNG fingerprints
    (draw counts and draw-order digests) differ between runs that the
    framework guarantees bit-identical — e.g. the same corpus generated
    with different worker counts, or a retried chunk consuming its RNG
    stream differently from the attempt it replaced.  The message lists
    the diverging chunks; the attached reports carry the full evidence.
    """

    def __init__(self, divergences: list, detail: str = "") -> None:
        self.divergences = list(divergences)
        lines = "; ".join(str(d) for d in self.divergences[:5])
        more = (
            f" (+{len(self.divergences) - 5} more)"
            if len(self.divergences) > 5
            else ""
        )
        suffix = f" — {detail}" if detail else ""
        super().__init__(
            f"determinism sanitizer: {len(self.divergences)} diverging "
            f"chunk(s): {lines}{more}{suffix}"
        )


class MemoryConformanceError(ReproError):
    """The runtime memory sanitizer observed a cost-model divergence.

    Raised by :mod:`repro.analysis.msan` when a structure's real
    allocated bytes (``ndarray.nbytes``, observed at build time) differ
    from what its :mod:`repro.cost.model` byte formula predicts for the
    observed dims at numpy's 8-byte widths.  Exact by design: the
    formulas are closed-form in degree/shard dims, so any mismatch means
    the analytical cost model — the currency of every budget decision
    the optimizer makes — has drifted from allocation reality.  The
    message lists the diverging structures; each entry carries the
    observed dims, the real bytes, and the formula's prediction.
    """

    def __init__(self, divergences: list, detail: str = "") -> None:
        self.divergences = list(divergences)
        lines = "; ".join(str(d) for d in self.divergences[:5])
        more = (
            f" (+{len(self.divergences) - 5} more)"
            if len(self.divergences) > 5
            else ""
        )
        suffix = f" — {detail}" if detail else ""
        super().__init__(
            f"memory sanitizer: {len(self.divergences)} diverging "
            f"structure(s): {lines}{more}{suffix}"
        )


class CheckpointError(ReproError):
    """A walk checkpoint file is unreadable or belongs to a different run
    (mismatched signature, seeds, or chunking)."""


class DatasetError(ReproError):
    """An unknown dataset name or invalid dataset scale was requested."""


class ExperimentError(ReproError):
    """An experiment harness was configured incorrectly."""


class KernelBackendWarning(UserWarning, ReproError):
    """A requested kernel backend is unavailable; the run fell back.

    Emitted (via :mod:`warnings`) when e.g. ``backend="numba"`` is asked
    for but numba is not importable: the walk still runs — on the numpy
    backend, which is bit-identical by construction — so degrading to it
    is a performance event, not a correctness one.  Inherits
    :class:`ReproError` so the hierarchy stays single rooted;
    ``warnings.filterwarnings`` targets it via ``UserWarning``.

    ``requested`` and ``effective`` carry the backend names as data so
    callers catching the warning (``warnings.catch_warnings``) need not
    parse the message: ``requested`` is the name that was asked for and
    failed to load, ``effective`` the name actually used.  The corpus
    records the same effective name in ``metadata["backend"]``.
    """

    def __init__(
        self,
        message: str,
        *,
        requested: "str | None" = None,
        effective: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.requested = requested
        self.effective = effective


class DegradedRunWarning(UserWarning, ReproError):
    """The run completed, but only after graceful degradation.

    Emitted (via :mod:`warnings`) when memory pressure was answered by
    downgrading node samplers (alias → rejection → naive) instead of
    raising :class:`SimulatedOOMError`.  A warning rather than an error —
    results are still correct, just slower than planned; the framework's
    ``degradation_log`` holds the byte-accurate event record.  Inherits
    :class:`ReproError` too, so the package-wide hierarchy stays single
    rooted; ``warnings.filterwarnings`` targets it via ``UserWarning``.
    """
