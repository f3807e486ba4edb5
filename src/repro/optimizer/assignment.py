"""Assignment result objects shared by all optimizer algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, overload

import numpy as np

from ..cost import CostTable, SamplerKind
from ..exceptions import AssignmentError


def as_kind(column: int) -> "SamplerKind | int":
    """Map a cost-table column to its :class:`SamplerKind` when it is one
    of the built-in three; user-defined extra columns stay plain ints."""
    try:
        return SamplerKind(int(column))
    except ValueError:
        return int(column)


def column_code(column: int) -> str:
    """Short display code: N/R/A for the built-ins, ``S<index>`` otherwise."""
    kind = as_kind(column)
    return kind.short if isinstance(kind, SamplerKind) else f"S{column}"


@dataclass(frozen=True)
class TraceEntry:
    """One greedy upgrade step (a row of paper Figure 5's bottom table).

    ``node`` switched from sampler column ``previous`` to ``chosen``;
    ``gradient`` is the time-saved-per-byte slope that ranked the step and
    ``used_memory_after`` the running footprint after applying it.
    Columns are :class:`SamplerKind` for the built-in trio and plain ints
    for user-defined samplers beyond it.
    """

    node: int
    previous: "SamplerKind | int"
    chosen: "SamplerKind | int"
    gradient: float
    used_memory_after: float

    def describe(self) -> str:
        """Compact ``vid N->R @mem`` rendering matching the paper's figure."""
        return (
            f"{self.node} {column_code(self.previous)}->"
            f"{column_code(self.chosen)} @{self.used_memory_after:.0f}"
        )


class Trace(Sequence[TraceEntry]):
    """A greedy trace held as columns, one entry per applied step.

    The optimizer keeps its trace as arrays (one slice of its schedule
    plus the running footprints); each :class:`TraceEntry` is built only
    when it is read, so a trace of many thousands of steps costs no
    per-step objects until someone looks at it.
    """

    def __init__(
        self,
        node: np.ndarray,
        previous: np.ndarray,
        chosen: np.ndarray,
        gradient: np.ndarray,
        used_memory_after: np.ndarray,
    ) -> None:
        self._columns = (node, previous, chosen, gradient, used_memory_after)

    def __len__(self) -> int:
        return len(self._columns[0])

    @overload
    def __getitem__(self, index: int) -> TraceEntry: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: "int | slice") -> "TraceEntry | Trace":
        if isinstance(index, slice):
            return Trace(*(column[index] for column in self._columns))
        node, previous, chosen, gradient, used = (
            column[range(len(self))[index]] for column in self._columns
        )
        return TraceEntry(
            node=int(node),
            previous=as_kind(previous),
            chosen=as_kind(chosen),
            gradient=float(gradient),
            used_memory_after=float(used),
        )

    def __iter__(self) -> Iterator[TraceEntry]:
        for node, previous, chosen, gradient, used in zip(
            *(column.tolist() for column in self._columns)
        ):
            yield TraceEntry(node, as_kind(previous), as_kind(chosen), gradient, used)


@dataclass
class Assignment:
    """A per-node sampler assignment together with its modeled costs."""

    samplers: np.ndarray
    used_memory: float
    total_time: float
    budget: float
    algorithm: str = ""
    trace: Sequence[TraceEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.samplers = np.asarray(self.samplers, dtype=np.int8)

    def __getitem__(self, node: int) -> "SamplerKind | int":
        return as_kind(int(self.samplers[node]))

    def __len__(self) -> int:
        return len(self.samplers)

    def counts(self) -> dict["SamplerKind | int", int]:
        """Number of nodes assigned to each sampler column.

        Keys are :class:`SamplerKind` members for the built-in trio and
        plain column indices for user-defined samplers beyond it.
        """
        width = max(len(SamplerKind), int(self.samplers.max(initial=0)) + 1)
        values = np.bincount(self.samplers, minlength=width)
        return {as_kind(col): int(values[col]) for col in range(width)}

    def describe(self) -> str:
        """One-line summary for logs and experiment reports."""
        parts = ", ".join(
            f"{column_code(int(kind))}={count}"
            for kind, count in self.counts().items()
        )
        return (
            f"{self.algorithm or 'assignment'}: {parts}, "
            f"mem={self.used_memory:.0f}/{self.budget:.0f}B, "
            f"time={self.total_time:.1f}"
        )

    def validate_against(self, table: CostTable) -> None:
        """Check internal consistency against the cost table it came from.

        Raises :class:`AssignmentError` on length mismatch, unavailable
        samplers, budget violation, or mismatched cost bookkeeping.
        """
        if len(self.samplers) != table.num_nodes:
            raise AssignmentError(
                f"assignment covers {len(self.samplers)} nodes, "
                f"table has {table.num_nodes}"
            )
        if self.samplers.min(initial=0) < 0 or self.samplers.max(initial=0) >= table.num_samplers:
            raise AssignmentError("sampler index out of range")
        rows = np.arange(table.num_nodes)
        if not table.available[rows, self.samplers].all():
            bad = rows[~table.available[rows, self.samplers]]
            raise AssignmentError(
                f"nodes {bad[:5].tolist()} assigned unavailable samplers"
            )
        memory = table.assignment_memory(self.samplers)
        if abs(memory - self.used_memory) > max(1e-6 * max(abs(memory), 1.0), 1e-6):
            raise AssignmentError(
                f"bookkept memory {self.used_memory} != recomputed {memory}"
            )
        if memory > self.budget * (1 + 1e-12) + 1e-9:
            raise AssignmentError(
                f"assignment uses {memory} bytes, over budget {self.budget}"
            )
