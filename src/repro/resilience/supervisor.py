"""Chunk-level supervision: bounded retry, timeouts, dead letters.

The supervisor sits between :func:`repro.walks.parallel_walks` and the
worker pool.  Each chunk is an independent unit of recovery: a crash,
hang, or corrupt result costs at most one chunk attempt, never the run.
Failures are retried under a :class:`RetryPolicy` (exponential backoff
with deterministic jitter); chunks that exhaust their attempts either
raise a context-rich :class:`~repro.exceptions.ChunkFailure` or land on a
dead-letter list surfaced on the resulting corpus — the caller decides
which via ``on_exhausted``.

Timeouts are enforced at the dispatch layer: in pool mode a chunk that
misses its deadline is abandoned (the pool's context-manager exit
terminates stragglers) and resubmitted; in sequential mode the chunk runs
inline, so the timeout is checked after the fact and an overlong result is
treated as a timeout failure, keeping the two modes' semantics aligned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import ChunkFailure, WalkError, WalkTimeoutError

#: what to do with a chunk that exhausted its retry budget.
EXHAUSTION_POLICIES = ("raise", "dead-letter")

#: poll interval of the pool gather loop, seconds.
_POLL_SECONDS = 0.005

#: below this, a float cannot carry the jitter factor to its precision.
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries entirely.  Backoff for attempt ``a`` (0-based, i.e. the delay
    before attempt ``a + 1``) is ``base_delay * backoff**a`` scaled by a
    jitter factor in ``[1, 1 + jitter]`` drawn deterministically from
    ``(seed, chunk_index, attempt)``, capped at ``max_delay``.  A raw
    delay below the smallest normal float is returned unjittered: at
    subnormal precision the scaled value rounds outside that band.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise WalkError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise WalkError("retry delays and jitter must be non-negative")
        if self.backoff < 1.0:
            raise WalkError("backoff must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (first failure is final)."""
        return cls(max_attempts=1, base_delay=0.0)

    def delay(self, chunk_index: int, attempt: int) -> float:
        """Backoff before retrying ``chunk_index`` after failed ``attempt``."""
        raw = self.base_delay * self.backoff ** attempt
        if raw < _SMALLEST_NORMAL:
            return float(min(self.max_delay, raw))
        u = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(self.seed),
                spawn_key=(int(chunk_index), int(attempt)),
            )
        ).random()
        return float(min(self.max_delay, raw * (1.0 + self.jitter * u)))


def as_retry_policy(retry: "RetryPolicy | int | np.integer | None") -> RetryPolicy:
    """Normalise ``None`` (default policy), an int (attempt count), or a
    ready :class:`RetryPolicy`."""
    if retry is None:
        return RetryPolicy()
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, (int, np.integer)):
        return RetryPolicy(max_attempts=int(retry))
    raise WalkError(f"retry must be None, an int, or a RetryPolicy, got {retry!r}")


@dataclass(frozen=True)
class DeadLetter:
    """A permanently failed chunk, kept instead of silently dropped."""

    chunk_index: int
    start_nodes: tuple
    attempts: int
    error: str

    def describe(self) -> str:
        """One-line summary (chunk, attempts, final cause)."""
        span = (
            f"{self.start_nodes[0]}..{self.start_nodes[-1]}"
            if self.start_nodes
            else "-"
        )
        return (
            f"chunk {self.chunk_index} (nodes {span}) dead after "
            f"{self.attempts} attempt(s): {self.error}"
        )


@dataclass
class SupervisedRun:
    """Everything the supervisor observed while draining the chunk set."""

    results: dict = field(default_factory=dict)  # chunk_index -> result
    dead_letters: list = field(default_factory=list)
    events: list = field(default_factory=list)  # structured event log
    attempts: dict = field(default_factory=dict)  # chunk_index -> count

    @property
    def total_retries(self) -> int:
        """Attempts beyond the first, summed over all chunks."""
        return sum(max(0, n - 1) for n in self.attempts.values())


class ChunkSupervisor:
    """Runs chunk tasks to completion under a retry/timeout/dead-letter policy.

    Parameters
    ----------
    run_one:
        The worker callable; receives one task (must expose ``index``,
        ``nodes`` and an ``attempt`` field updatable via
        :func:`dataclasses.replace`) and returns the chunk result.
    policy:
        The :class:`RetryPolicy`; defaults to 3 attempts.
    timeout:
        Per-chunk wall-clock limit in seconds (``None`` disables).
    validator:
        ``validator(task, result)`` raising on corrupt results; a failed
        validation counts as a chunk failure and is retried.
    on_exhausted:
        ``"raise"`` (propagate a :class:`ChunkFailure`) or
        ``"dead-letter"`` (record and continue).
    on_success:
        ``on_success(task, result)`` called once per completed chunk, in
        completion order — the checkpoint hook.
    sleep, monotonic:
        Injectable clock pair (defaults: :func:`time.sleep` /
        :func:`time.monotonic`).  Tests substitute a virtual clock and
        assert the exact backoff sleeps the supervisor performs.
    """

    def __init__(
        self,
        run_one: Callable,
        *,
        policy: RetryPolicy | None = None,
        timeout: float | None = None,
        validator: Callable | None = None,
        on_exhausted: str = "raise",
        on_success: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        if on_exhausted not in EXHAUSTION_POLICIES:
            raise WalkError(
                f"on_exhausted must be one of {EXHAUSTION_POLICIES}, "
                f"got {on_exhausted!r}"
            )
        if timeout is not None and timeout <= 0:
            raise WalkError("timeout must be positive (or None)")
        self.run_one = run_one
        self.policy = policy or RetryPolicy()
        self.timeout = timeout
        self.validator = validator
        self.on_exhausted = on_exhausted
        self.on_success = on_success
        self._sleep = sleep
        self._monotonic = monotonic

    # ------------------------------------------------------------------
    def run_sequential(self, tasks: Sequence[Any]) -> SupervisedRun:
        """Drain ``tasks`` inline, one attempt at a time."""
        run = SupervisedRun()
        for task in tasks:
            for attempt in range(self.policy.max_attempts):
                attempted = replace(task, attempt=attempt)
                run.attempts[task.index] = attempt + 1
                try:
                    started = time.perf_counter()
                    result = self.run_one(attempted)
                    elapsed = time.perf_counter() - started
                    if self.timeout is not None and elapsed > self.timeout:
                        raise WalkTimeoutError(task.index, self.timeout)
                    if self.validator is not None:
                        self.validator(attempted, result)
                except Exception as exc:  # noqa: BLE001 - containment point
                    if self._handle_failure(run, task, attempt, exc):
                        self._sleep(self.policy.delay(task.index, attempt))
                        continue  # retry
                    break  # dead-lettered
                self._record_success(run, attempted, result)
                break
        return run

    def run_pool(self, pool: Any, tasks: Sequence[Any]) -> SupervisedRun:
        """Drain ``tasks`` through a multiprocessing pool.

        All first attempts are submitted immediately; retries are
        resubmitted after their backoff elapses.  A chunk past its
        deadline is abandoned (its worker is cleaned up when the pool is
        terminated) and counts as a :class:`WalkTimeoutError` failure.
        """
        run = SupervisedRun()
        now = self._monotonic()
        pending: dict[int, tuple] = {}  # index -> (async_result, deadline, attempt, task)
        backlog: list[tuple] = []  # (not_before, attempt, task)

        def submit(task: Any, attempt: int) -> None:
            attempted = replace(task, attempt=attempt)
            run.attempts[task.index] = attempt + 1
            handle = pool.apply_async(self.run_one, (attempted,))
            deadline = (
                self._monotonic() + self.timeout
                if self.timeout is not None
                else None
            )
            pending[task.index] = (handle, deadline, attempt, attempted)

        for task in tasks:
            submit(task, 0)

        while pending or backlog:
            now = self._monotonic()
            # Promote retries whose backoff has elapsed.
            due = [item for item in backlog if item[0] <= now]
            for item in due:
                backlog.remove(item)
                submit(item[2], item[1])
            progressed = False
            for index in list(pending):
                handle, deadline, attempt, attempted = pending[index]
                failure: Exception | None = None
                result = None
                if handle.ready():
                    try:
                        result = handle.get(0)
                        if self.validator is not None:
                            self.validator(attempted, result)
                    except Exception as exc:  # noqa: BLE001 - containment
                        failure = exc
                elif deadline is not None and now > deadline:
                    failure = WalkTimeoutError(index, self.timeout)
                else:
                    continue
                progressed = True
                del pending[index]
                if failure is None:
                    self._record_success(run, attempted, result)
                elif self._handle_failure(run, attempted, attempt, failure):
                    backlog.append(
                        (
                            self._monotonic()
                            + self.policy.delay(index, attempt),
                            attempt + 1,
                            attempted,
                        )
                    )
            if not progressed:
                # With workers still in flight there is nothing to wait
                # on but their handles, so poll.  With only backed-off
                # retries left, sleep exactly until the earliest backoff
                # deadline instead of burning poll cycles.
                if pending:
                    self._sleep(_POLL_SECONDS)
                else:
                    wake = min(item[0] for item in backlog)
                    self._sleep(max(0.0, wake - self._monotonic()))
        return run

    # ------------------------------------------------------------------
    def _record_success(self, run: SupervisedRun, task: Any, result: Any) -> None:
        run.results[task.index] = result
        if task.attempt > 0:
            run.events.append(
                {
                    "event": "recovered",
                    "chunk": task.index,
                    "attempts": task.attempt + 1,
                }
            )
        if self.on_success is not None:
            self.on_success(task, result)

    def _handle_failure(
        self, run: SupervisedRun, task: Any, attempt: int, exc: Exception
    ) -> bool:
        """Record the failure; return True to retry, False when final."""
        final = attempt + 1 >= self.policy.max_attempts
        run.events.append(
            {
                "event": "timeout" if isinstance(exc, WalkTimeoutError) else "failure",
                "chunk": task.index,
                "attempt": attempt,
                "error": repr(exc),
                "final": final,
            }
        )
        if not final:
            run.events.append(
                {
                    "event": "retry",
                    "chunk": task.index,
                    "delay": self.policy.delay(task.index, attempt),
                }
            )
            return True
        cause = exc.cause if isinstance(exc, ChunkFailure) else exc
        if self.on_exhausted == "raise":
            raise ChunkFailure(
                task.index, tuple(task.nodes), attempt + 1, cause
            ) from exc
        run.dead_letters.append(
            DeadLetter(
                chunk_index=task.index,
                start_nodes=tuple(int(v) for v in task.nodes),
                attempts=attempt + 1,
                error=repr(cause),
            )
        )
        run.events.append({"event": "dead-letter", "chunk": task.index})
        return False
