"""Runtime memory-conformance sanitizer ("MSan") for costed structures.

The static MCC passes (:mod:`repro.analysis.mcc`) prove that the
builders' allocation sites sum, symbolically, to the analytical cost
model; this module provides the *dynamic* evidence.  When enabled
(``REPRO_MSAN=1`` in the environment, or inside an explicit
:func:`msan_trace` scope), every registered structure build — alias
tables, rejection/alias per-node sampler state, admitted edge-state
cache entries, shards pinned by the residency manager — reports its
**real** allocated bytes (straight from ``ndarray.nbytes``) together
with the observed dims (degree ``d``, shard nodes ``n_s``, shard edges
``E_s``).  :func:`verify_records` then evaluates the corresponding
``memory-contracts.json`` terms with those dims and demands an **exact**
byte match — any divergence means the committed contract (and therefore
the optimizer's budget arithmetic) has drifted from allocation reality,
and :func:`check_records` raises
:class:`~repro.exceptions.MemoryConformanceError` (loud, specific,
fatal — the DSan posture, applied to bytes instead of RNG draws).  The
environment-activated tracer checks *eagerly*, at the build site, so
``REPRO_MSAN=1 pytest`` fails the moment any allocator drifts.

Structures may record a *variant* — e.g. the rejection sampler's
``bounded`` path, which derives its acceptance factor from a closed-form
model bound and never materialises the per-edge factor array; variants
are matched against the contract's variant terms instead of the
worst-case base terms.

Import discipline: this module imports only the stdlib, numpy and
:mod:`repro.exceptions` at module scope; the contract extraction
(:mod:`repro.analysis.mcc`) is imported lazily inside the verification
helpers.  Instrumented runtime modules import *this* module lazily at
first trace, so no import cycle forms through the analysis package.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

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
    every event is verified against the contracts *as it is recorded*,
    raising :class:`~repro.exceptions.MemoryConformanceError` at the
    divergent build site itself (the DSan posture: loud, specific,
    fatal).  Scoped tracers default to collect-only so tests can assert
    on divergences instead of dying on them.
    """

    def __init__(self, check: bool = False) -> None:
        self.records: list[MemRecord] = []
        self.dropped = 0
        self.check = check
        self._payload: "dict | None" = None

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
            if self._payload is None:
                self._payload = default_contracts()
            check_records([event], self._payload)
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
# conformance against the memory contracts
# ----------------------------------------------------------------------
def _contract_index(payload: Mapping[str, Any]) -> dict[str, dict]:
    return {entry["name"]: entry for entry in payload["structures"]}


def default_contracts() -> dict:
    """The contract payload re-derived from the installed source tree."""
    from .mcc import collect_memory_contracts

    return collect_memory_contracts()


def expected_bytes(
    record: MemRecord, payload: Mapping[str, Any]
) -> "float | None":
    """Contract-predicted bytes for ``record``, or ``None`` when the
    structure (or requested variant) has no contract terms."""
    from .mcc import eval_terms

    entry = _contract_index(payload).get(record.structure)
    if entry is None:
        return None
    if record.variant is not None:
        variant = entry.get("variants", {}).get(record.variant)
        if variant is None:
            return None
        terms = variant["terms"]
    else:
        terms = entry["terms"]
    return eval_terms(terms, dict(record.dims))


def verify_records(
    records: Iterable[MemRecord],
    payload: "Mapping[str, Any] | None" = None,
) -> list[str]:
    """Divergence descriptions for every record that misses its contract.

    Exactness is the point: the contracts are closed-form in the
    observed dims, so the real bytes must match to the byte — tolerance
    would hide exactly the itemsize/constant drift MCC exists to catch.
    """
    if payload is None:
        payload = default_contracts()
    divergences: list[str] = []
    for record in records:
        expected = expected_bytes(record, payload)
        if expected is None:
            what = (
                f"variant {record.variant!r}"
                if record.variant is not None
                else "structure"
            )
            divergences.append(
                f"{record.structure}: no contract terms for {what}"
            )
            continue
        if abs(expected - record.nbytes) > 1e-6:
            dims = ", ".join(f"{k}={v:g}" for k, v in record.dims)
            suffix = f", variant={record.variant}" if record.variant else ""
            divergences.append(
                f"{record.structure}({dims}{suffix}): allocated "
                f"{record.nbytes} bytes, contract says {expected:.0f}"
            )
    return divergences


def check_records(
    records: Iterable[MemRecord],
    payload: "Mapping[str, Any] | None" = None,
) -> None:
    """Raise :class:`MemoryConformanceError` on any contract divergence."""
    divergences = verify_records(records, payload)
    if divergences:
        raise MemoryConformanceError(
            divergences,
            detail="runtime allocation bytes drifted from "
            "memory-contracts.json",
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


def build_report(
    tracer: MsanTracer,
    payload: "Mapping[str, Any] | None" = None,
) -> MsanReport:
    """Verify a tracer's records and fold them into a report payload."""
    if payload is None:
        payload = default_contracts()
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
        divergences=verify_records(tracer.records, payload),
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
    "default_contracts",
    "expected_bytes",
    "verify_records",
    "check_records",
    "build_report",
]
