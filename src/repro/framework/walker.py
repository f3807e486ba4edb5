"""Second-order random walk generation (paper Algorithm 1).

The :class:`WalkEngine` walks a graph through an array of per-node
samplers: the first hop uses the n2e distribution, every later hop the e2e
distribution conditioned on the previous node.  Walks stop early at
dead-end (degree-0) nodes, and walk-with-restart supports the second-order
PageRank query of Section 6.1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import WalkError
from ..graph import CSRGraph
from ..rng import RngLike, ensure_rng
from .interfaces import NodeSampler
from .node_samplers import SamplerSet


class WalkEngine:
    """Generates second-order random walks over per-node samplers.

    ``samplers[v]`` draws the successors of node ``v``; entries for
    degree-0 nodes may be ``None`` (walks terminate there).  A
    framework's :class:`~repro.framework.node_samplers.SamplerSet` is
    walked as it is: it has a sampler for every node with neighbours, and
    makes each one when a walk first reaches its node.
    """

    def __init__(
        self, graph: CSRGraph, samplers: Sequence[NodeSampler | None]
    ) -> None:
        if len(samplers) != graph.num_nodes:
            raise WalkError(
                f"{len(samplers)} samplers for {graph.num_nodes} nodes"
            )
        self.graph = graph
        if isinstance(samplers, SamplerSet):
            self.samplers: Sequence[NodeSampler | None] = samplers
            return
        for v, sampler in enumerate(samplers):
            if sampler is None and graph.degree(v) > 0:
                raise WalkError(f"node {v} has neighbours but no sampler")
        self.samplers = list(samplers)

    # ------------------------------------------------------------------
    def walk(self, start: int, length: int, rng: RngLike = None) -> np.ndarray:
        """One walk of at most ``length`` steps from ``start`` (Algorithm 1).

        Returns the visited node array including the start; shorter than
        ``length + 1`` when a dead end is reached.
        """
        if not 0 <= start < self.graph.num_nodes:
            raise WalkError(f"start node {start} out of range")
        if length < 0:
            raise WalkError(f"walk length must be non-negative, got {length}")
        gen = ensure_rng(rng)
        trail = np.empty(length + 1, dtype=np.int64)
        trail[0] = start
        current = start
        previous = -1
        steps = 0
        for t in range(1, length + 1):
            sampler = self.samplers[current]
            if sampler is None:
                break  # dead end
            if t == 1:
                nxt = sampler.sample_first(gen)
            else:
                nxt = sampler.sample(previous, gen)
            trail[t] = nxt
            previous, current = current, nxt
            steps = t
        return trail[: steps + 1]

    def walks_from(
        self,
        start: int,
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
    ) -> list[np.ndarray]:
        """``num_walks`` independent walks from one start node."""
        gen = ensure_rng(rng)
        return [self.walk(start, length, gen) for _ in range(num_walks)]

    def walks_all_nodes(
        self,
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
        nodes: Sequence[int] | None = None,
    ) -> list[np.ndarray]:
        """The node2vec sampling pattern: ``num_walks`` walks per node.

        ``nodes`` restricts the start set (default: every node with at
        least one neighbour).
        """
        gen = ensure_rng(rng)
        if nodes is None:
            nodes = [v for v in range(self.graph.num_nodes) if self.graph.degree(v) > 0]
        walks: list[np.ndarray] = []
        for v in nodes:
            for _ in range(num_walks):
                walks.append(self.walk(int(v), length, gen))
        return walks

    def walk_with_restart(
        self,
        start: int,
        *,
        decay: float,
        max_length: int,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Random walk with restart used by the second-order PageRank query.

        At each step the walk continues with probability ``decay`` and
        terminates otherwise; it also terminates at ``max_length`` or at a
        dead end.  Returns the visited trail.
        """
        if not 0.0 <= decay <= 1.0:
            raise WalkError(f"decay must be in [0, 1], got {decay}")
        gen = ensure_rng(rng)
        trail = [start]
        current = start
        previous = -1
        for t in range(1, max_length + 1):
            if gen.random() > decay:
                break
            sampler = self.samplers[current]
            if sampler is None:
                break
            nxt = sampler.sample_first(gen) if t == 1 else sampler.sample(previous, gen)
            trail.append(nxt)
            previous, current = current, nxt
        return np.asarray(trail, dtype=np.int64)
