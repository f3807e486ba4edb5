"""Blocks of edge states for the vectorised set-up passes.

Bounding constants, rejection factors and e2e alias tables are all
functions of an edge state ``(u, v)`` with ``u ∈ N(v)``: one ratio or
weight vector per state.  Set-up computes them in passes over *blocks*
of states rather than one state at a time, so each numpy call covers
many states.  A block holds at most :data:`BLOCK_ENTRIES` vector
entries, which bounds the transient memory of a pass independently of
the graph; a state wider than that forms a block of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..graph import CSRGraph
from ..graph.csr import segment_positions

#: Vector entries (ratios or weights, ``width`` per state) one block holds.
BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class StateBlock:
    """A run of edge states ``(u, v)``, in node order, then row order.

    ``nodes[j]`` (row length ``degrees[j]``) contributes states
    ``first[j] .. first[j] + counts[j] - 1`` of its row, i.e. arrivals
    from those positions of ``graph.neighbors(nodes[j])``; a node with
    many states may continue in the next block.  ``us`` and ``vs`` list
    the states themselves.
    """

    nodes: np.ndarray
    degrees: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    us: np.ndarray
    vs: np.ndarray

    @property
    def finished(self) -> np.ndarray:
        """Mask over ``nodes``: the block holds the node's last state."""
        return self.first + self.counts == self.degrees

    def segments(self) -> Iterator[tuple[int, int, int, int, bool]]:
        """``(node, degree, first, count, finished)`` per node, as Python
        scalars for the per-node bookkeeping of a pass."""
        return zip(
            self.nodes.tolist(),
            self.degrees.tolist(),
            self.first.tolist(),
            self.counts.tolist(),
            self.finished.tolist(),
        )


def state_blocks(
    graph: CSRGraph, nodes: np.ndarray, widths: np.ndarray
) -> Iterator[StateBlock]:
    """Every edge state of ``nodes``, in order, cut into blocks.

    Each state of ``nodes[i]`` costs ``widths[i]`` entries; a block holds
    at most :data:`BLOCK_ENTRIES` of them unless one state alone is wider.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    degrees = graph.degrees[nodes]
    segments: list[tuple[int, int, int]] = []
    room = BLOCK_ENTRIES
    for v, degree, width in zip(
        nodes.tolist(), degrees.tolist(), np.asarray(widths).tolist()
    ):
        done = 0
        while done < degree:
            take = min(degree - done, max(room, 0) // width)
            if take == 0:
                if segments:
                    yield _block(graph, segments)
                    segments = []
                    room = BLOCK_ENTRIES
                    continue
                take = 1
            segments.append((v, done, take))
            done += take
            room -= take * width
    if segments:
        yield _block(graph, segments)


def _block(graph: CSRGraph, segments: list[tuple[int, int, int]]) -> StateBlock:
    nodes, first, counts = (
        np.array(column, dtype=np.int64) for column in zip(*segments)
    )
    positions = segment_positions(graph.indptr[nodes] + first, counts)
    return StateBlock(
        nodes=nodes,
        degrees=graph.indptr[nodes + 1] - graph.indptr[nodes],
        first=first,
        counts=counts,
        us=graph.indices[positions],
        vs=np.repeat(nodes, counts),
    )
