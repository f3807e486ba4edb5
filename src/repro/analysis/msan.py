"""Runtime memory-conformance sanitizer ("MSan") for costed structures.

The optimizer assigns samplers under a memory budget priced by the
paper's Table 1 byte formulas (:mod:`repro.cost.model`); this module
checks those formulas against what the builders really allocate.  When
enabled (``REPRO_MSAN=1`` in the environment, or inside an explicit
:func:`msan_trace` scope), every traced structure build — alias tables,
rejection/alias per-node sampler state, shards pinned by the residency
manager — reports its **real** allocated bytes (straight from
``ndarray.nbytes``) together with the observed dims (degree ``d``, shard
nodes ``n_s``, shard edges ``E_s``).  :func:`verify_records` evaluates
the structure's :mod:`repro.cost.model` formula at those dims and
demands an **exact** byte match.  Sampler tables are priced at
``CostParams()``, the widths the optimizer charges and the builders
allocate at; a resident shard is stored at its files' dtypes and is
priced at the itemsizes its record carries (``b_i``, ``b_f``).  Any
divergence means the optimizer's budget arithmetic has drifted from
allocation reality, and
:func:`check_records` raises
:class:`~repro.exceptions.MemoryConformanceError` (loud, specific,
fatal — the DSan posture, applied to bytes instead of RNG draws).  The
environment-activated tracer checks *eagerly*, at the build site, so
``REPRO_MSAN=1 pytest`` fails the moment any allocator drifts.

Structures may record a *variant* — e.g. the rejection sampler's
``bounded`` path, which derives its acceptance factor from a closed-form
model bound and never materialises the per-edge factor array, so its
state is one alias table.

What MSan cannot see: it trusts each builder's reported ``nbytes``, so a
persistent array a builder keeps but does not report goes unseen; the
``tracemalloc`` retained-bytes tests in ``tests/test_msan.py`` cover
that class.

Import discipline: instrumented runtime modules import *this* module
lazily at first trace, so no import cycle forms through the analysis
package.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..cost.model import (
    alias_memory,
    alias_table_memory,
    rejection_memory,
    resident_shard_memory,
)
from ..cost.params import CostParams
from ..exceptions import MemoryConformanceError

#: Environment switch; any value other than empty/"0"/"false"/"no" enables.
MSAN_ENV = "REPRO_MSAN"

#: Bound on retained records — a sanitized long run must not turn the
#: tracer itself into the memory problem it polices.
MAX_RECORDS = 100_000


def msan_enabled(flag: "bool | None" = None) -> bool:
    """Resolve the effective sanitizer switch.

    An explicit ``flag`` wins; ``None`` defers to the ``REPRO_MSAN``
    environment variable so a whole test suite can be sanitized with
    ``REPRO_MSAN=1 pytest`` and zero code changes.
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get(MSAN_ENV, "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


@dataclass(frozen=True)
class MemRecord:
    """One observed structure build: real bytes plus the dims that sized it."""

    structure: str
    nbytes: int
    dims: "tuple[tuple[str, float], ...]"
    variant: "str | None" = None

    def to_dict(self) -> dict:
        """JSON payload for report artifacts."""
        return {
            "structure": self.structure,
            "nbytes": self.nbytes,
            "dims": dict(self.dims),
            "variant": self.variant,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MemRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            structure=str(payload["structure"]),
            nbytes=int(payload["nbytes"]),
            dims=tuple(sorted(
                (str(k), float(v)) for k, v in payload["dims"].items()
            )),
            variant=payload.get("variant"),
        )


class MsanTracer:
    """Collects :class:`MemRecord` events, bounded by :data:`MAX_RECORDS`.

    With ``check=True`` — how the environment-activated tracer is built —
    every event is verified against the cost model *as it is recorded*,
    raising :class:`~repro.exceptions.MemoryConformanceError` at the
    divergent build site itself (the DSan posture: loud, specific,
    fatal).  Scoped tracers default to collect-only so tests can assert
    on divergences instead of dying on them.
    """

    def __init__(self, check: bool = False) -> None:
        self.records: list[MemRecord] = []
        self.dropped = 0
        self.check = check

    def record(
        self,
        structure: str,
        nbytes: int,
        *,
        variant: "str | None" = None,
        **dims: float,
    ) -> None:
        """Append one allocation event (dropped past :data:`MAX_RECORDS`)."""
        event = MemRecord(
            structure=structure,
            nbytes=int(nbytes),
            dims=tuple(sorted((k, float(v)) for k, v in dims.items())),
            variant=variant,
        )
        if self.check:
            # Eager conformance: the traceback then points at the build
            # whose bytes drifted, not at some later report step.
            check_records([event])
        if len(self.records) >= MAX_RECORDS:
            self.dropped += 1
            return
        self.records.append(event)


_TRACER: "MsanTracer | None" = None


def global_tracer() -> "MsanTracer | None":
    """The active tracer, if any (scoped tracers win over the env one)."""
    return _TRACER


def trace_alloc(
    structure: str,
    nbytes: int,
    *,
    variant: "str | None" = None,
    **dims: float,
) -> None:
    """Record one structure build.  Cheap no-op while tracing is off.

    Instrumented builders call this with the *real* byte count
    (``ndarray.nbytes`` sums) — never with a formula, or conformance
    would be a tautology.
    """
    global _TRACER
    if _TRACER is None:
        if not msan_enabled():
            return
        _TRACER = MsanTracer(check=True)
    _TRACER.record(structure, nbytes, variant=variant, **dims)


def tracing_active() -> bool:
    """Whether :func:`trace_alloc` records right now.  Builders that emit
    many records per batch check this once and skip the calls."""
    return _TRACER is not None or msan_enabled()


@contextmanager
def msan_trace() -> Iterator[MsanTracer]:
    """Scope with a fresh tracer installed (independent of the env switch).

    The previous tracer — environment-activated or an enclosing scope —
    is restored on exit, so test scopes never leak into each other.
    """
    global _TRACER
    previous = _TRACER
    tracer = MsanTracer()
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


# ----------------------------------------------------------------------
# conformance against the cost model
# ----------------------------------------------------------------------
#: ``(structure, variant)`` → its :mod:`repro.cost.model` byte formula
#: and the record dims it takes, in order.
_FORMULAS: dict[
    tuple[str, str | None], tuple[Callable[..., float], tuple[str, ...]]
] = {
    ("alias_table", None): (alias_table_memory, ("d",)),
    ("rejection_state", None): (rejection_memory, ("d",)),
    ("rejection_state", "bounded"): (alias_table_memory, ("d",)),
    ("alias_state", None): (alias_memory, ("d",)),
    ("resident_shard", None): (resident_shard_memory, ("n_s", "E_s")),
}


def expected_bytes(record: MemRecord) -> "float | None":
    """Cost-model bytes for ``record``, or ``None`` when the structure
    (or requested variant) has no formula."""
    entry = _FORMULAS.get((record.structure, record.variant))
    if entry is None:
        return None
    formula, names = entry
    dims = dict(record.dims)
    params = CostParams()
    if record.structure == "resident_shard":
        params = CostParams(
            float_bytes=int(dims["b_f"]), int_bytes=int(dims["b_i"])
        )
    return formula(params, *(dims[name] for name in names))


def verify_records(records: Iterable[MemRecord]) -> list[str]:
    """Divergence descriptions for every record that misses its formula.

    Exactness is the point: the formulas are closed-form in the observed
    dims, so the real bytes must match to the byte — tolerance would
    hide exactly the itemsize/constant drift this check exists to catch.
    """
    divergences: list[str] = []
    for record in records:
        expected = expected_bytes(record)
        if expected is None:
            what = (
                f"variant {record.variant!r}"
                if record.variant is not None
                else "structure"
            )
            divergences.append(
                f"{record.structure}: no cost-model formula for {what}"
            )
            continue
        if expected != record.nbytes:
            dims = ", ".join(f"{k}={v:g}" for k, v in record.dims)
            suffix = f", variant={record.variant}" if record.variant else ""
            divergences.append(
                f"{record.structure}({dims}{suffix}): allocated "
                f"{record.nbytes} bytes, cost model says {expected:.0f}"
            )
    return divergences


def check_records(records: Iterable[MemRecord]) -> None:
    """Raise :class:`MemoryConformanceError` on any cost-model divergence."""
    divergences = verify_records(records)
    if divergences:
        raise MemoryConformanceError(
            divergences,
            detail="runtime allocation bytes drifted from repro.cost.model",
        )


# ----------------------------------------------------------------------
# report payload (msan-report CLI / CI artifact)
# ----------------------------------------------------------------------
@dataclass
class MsanReport:
    """Aggregated conformance evidence for one sanitized run."""

    records: int = 0
    dropped: int = 0
    by_structure: dict = field(default_factory=dict)
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Conformant: at least one record and zero divergences."""
        return not self.divergences and self.records > 0

    def to_dict(self) -> dict:
        """JSON payload for the ``msan-report`` artifact."""
        return {
            "records": self.records,
            "dropped": self.dropped,
            "ok": self.ok,
            "by_structure": self.by_structure,
            "divergences": list(self.divergences),
        }


def build_report(tracer: MsanTracer) -> MsanReport:
    """Verify a tracer's records and fold them into a report payload."""
    by_structure: dict[str, dict] = {}
    for record in tracer.records:
        bucket = by_structure.setdefault(
            record.structure, {"builds": 0, "bytes": 0}
        )
        bucket["builds"] += 1
        bucket["bytes"] += record.nbytes
    return MsanReport(
        records=len(tracer.records),
        dropped=tracer.dropped,
        by_structure=dict(sorted(by_structure.items())),
        divergences=verify_records(tracer.records),
    )


__all__ = [
    "MSAN_ENV",
    "MAX_RECORDS",
    "msan_enabled",
    "MemRecord",
    "MsanTracer",
    "MsanReport",
    "global_tracer",
    "trace_alloc",
    "tracing_active",
    "msan_trace",
    "expected_bytes",
    "verify_records",
    "check_records",
    "build_report",
]
