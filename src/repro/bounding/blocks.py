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


def degree_order(graph: CSRGraph, nodes: np.ndarray) -> np.ndarray:
    """Positions of ``nodes`` stably sorted by degree: the order the set-up
    passes give :func:`state_blocks`.

    A block of nodes of one degree holds rows of one length, so the
    per-length loops of a pass (``segment_sums``, the lockstep Vose build)
    run once or twice per block instead of once per distinct degree in
    it.  The order changes no value: each node's states stay contiguous
    and in row order, every per-state and per-row result depends only on
    its own row, and the results are written (or ``np.add.at``-summed) at
    the node's own place.
    """
    return np.argsort(graph.degrees[nodes], kind="stable")


def state_blocks(
    graph: CSRGraph, nodes: np.ndarray, widths: np.ndarray
) -> Iterator[StateBlock]:
    """Every edge state of ``nodes``, in order, cut into blocks.

    Each state of ``nodes[i]`` costs ``widths[i]`` entries; a block is
    the longest run of the next states that costs at most
    :data:`BLOCK_ENTRIES`, or the next state alone when it is wider.  One
    ``searchsorted`` over the nodes' entry offsets finds each block's
    end.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    degrees = graph.degrees[nodes].astype(np.int64)
    keep = degrees > 0
    nodes, widths, degrees = nodes[keep], widths[keep], degrees[keep]
    starts = np.cumsum(degrees * widths) - degrees * widths
    i, done = 0, 0  # the next state: state ``done`` of ``nodes[i]``
    while i < len(nodes):
        limit = int(starts[i]) + done * int(widths[i]) + BLOCK_ENTRIES
        last = int(np.searchsorted(starts, limit, side="right")) - 1
        last = min(last, len(nodes) - 1)
        room = (limit - int(starts[last])) // int(widths[last])
        fits = min(int(degrees[last]), room)
        counts = degrees[i : last + 1].copy()
        counts[-1] = fits
        counts[0] -= done
        if last > i and fits == 0:
            last -= 1
            counts = counts[:-1]
        if counts[0] == 0:  # one state wider than a block
            counts[0] = 1
        first = np.zeros(len(counts), dtype=np.int64)
        first[0] = done
        yield _block(graph, nodes[i : last + 1], first, counts)
        done = int(first[-1] + counts[-1])
        i = last
        if done == degrees[last]:
            i, done = last + 1, 0


def _block(
    graph: CSRGraph, nodes: np.ndarray, first: np.ndarray, counts: np.ndarray
) -> StateBlock:
    positions = segment_positions(graph.indptr[nodes] + first, counts)
    return StateBlock(
        nodes=nodes,
        degrees=graph.indptr[nodes + 1] - graph.indptr[nodes],
        first=first,
        counts=counts,
        us=graph.indices[positions],
        vs=np.repeat(nodes, counts),
    )
