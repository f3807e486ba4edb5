"""Benchmark-side span tracing: self time per layer, plus a Chrome trace.

Every span is opened from the benchmark's own files, around the calls it
makes into the program: a :class:`~repro.walks.kernels.KernelBackend` whose
callables are timing wrappers around the numpy kernels (passed as
``backend=``), and class-level wrappers installed only for the duration of
a traced operation (:func:`instrumented`).  The program is never edited.

A span's *self time* is its duration minus the time covered by the spans
opened inside it, so the self times of one operation add up to its wall
time.  Spans are aggregated in memory; the first :data:`MAX_EVENTS` are also
kept as Chrome trace events (open the file in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import CSRGraph
from repro.graph.sharded import ShardResidencyManager
from repro.walks import BucketedWalkScheduler
from repro.walks.kernels import KernelBackend

#: Span that covers one walk engine call; its self time is the driver's.
ENGINE_SPAN = "walks.engine"

#: Spans kept as Chrome trace events; later ones are only aggregated.
MAX_EVENTS = 50_000


class Tracer:
    """Nested spans with self-time aggregation and a capped event log."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. a warm-up)."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.events: list[dict] = []
        self.dropped_events = 0
        self.op = -1
        self.rejection_in_step = False
        self._stack: list[list] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = now - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.events) < MAX_EVENTS:
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - self._origin) * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "op": self.op,
                        "parent": self._stack[-1][0] if self._stack else None,
                    },
                }
            )
        else:
            self.dropped_events += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def write_chrome_trace(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "traceEvents": self.events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_events": self.dropped_events},
                }
            )
        )


def _timed(tracer: Tracer, name: str, fn: Callable, size_arg: int | None = None):
    """``fn`` inside a span; ``size_arg`` names the argument whose length
    is counted as work (``<name>.pairs``)."""

    def wrapper(*args, **kwargs):
        if size_arg is not None:
            tracer.counts[name + ".pairs"] += len(args[size_arg])
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def kernel_names(backend: KernelBackend) -> list[str]:
    """The backend's kernel callables, in declaration order."""
    return [
        field.name
        for field in dataclasses.fields(backend)
        if callable(getattr(backend, field.name))
    ]


def traced_backend(tracer: Tracer, base: KernelBackend) -> KernelBackend:
    """``base`` with every kernel timed as ``kernels.<name>``.

    Two kernels also count work for the rejection ratios: each
    ``acceptance_mask`` call is one rejection round (its mask says how
    many of the checked walkers were accepted), and ``advance_frontier``
    closes a step.
    """
    wrapped = {
        name: _timed(tracer, f"kernels.{name}", getattr(base, name))
        for name in kernel_names(base)
    }
    accept = wrapped["acceptance_mask"]
    advance = wrapped["advance_frontier"]

    def acceptance_mask(*args):
        mask = accept(*args)
        tracer.counts["rejection.checks"] += len(mask)
        tracer.counts["rejection.accepted"] += int(np.count_nonzero(mask))
        tracer.rejection_in_step = True
        return mask

    def advance_frontier(*args):
        advance(*args)
        if tracer.rejection_in_step:
            tracer.counts["rejection.steps"] += 1
            tracer.rejection_in_step = False

    wrapped["acceptance_mask"] = acceptance_mask
    wrapped["advance_frontier"] = advance_frontier
    return dataclasses.replace(base, **wrapped)


@contextmanager
def instrumented(tracer: Tracer, model_class: type) -> Iterator[None]:
    """Install class-level timing wrappers; remove them on exit.

    The model methods are wrapped on the workload's concrete model class
    (an inherited method gets an override that is deleted again).
    """
    targets = [
        (model_class, "biased_weights_many", "models.biased_weights_many", 2),
        (model_class, "target_ratio_bulk", "models.target_ratio_bulk", 2),
        (CSRGraph, "has_edge_pairs", "graph.has_edge_pairs", 1),
        (CSRGraph, "edge_positions", "graph.edge_positions", 1),
        (ShardResidencyManager, "acquire", "sharded.acquire", None),
        (BucketedWalkScheduler, "walk_chunk", ENGINE_SPAN, None),
    ]
    saved = []
    try:
        for cls, attr, name, size_arg in targets:
            saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, _timed(tracer, name, getattr(cls, attr), size_arg))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
