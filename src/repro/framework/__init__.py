"""The memory-aware second-order random walk framework (paper Section 5).

:class:`MemoryAwareFramework` wires everything together: it computes
bounding constants, runs the cost-based optimizer to pick a node sampler
per node under the memory budget, builds their tables into one arena per
sampler kind (a :class:`SamplerSet`), and exposes walk generation.  The
samplers implement the paper's ``NodeSampler`` programming interface
(Figure 6); the set makes each one as a view over its arena rows when it
is first asked for.
"""

from .interfaces import NeighborProvider, NodeSampler
from .node_samplers import (
    AliasNodeSampler,
    NaiveNodeSampler,
    RejectionNodeSampler,
    SamplerSet,
    build_node_sampler,
    build_node_samplers,
)
from .memory import MemoryBudget, MemoryMeter, format_bytes, linear_budget_trace
from .walker import WalkEngine
from .framework import FrameworkTimings, MemoryAwareFramework
from .extra_samplers import (
    BinaryCdfNodeSampler,
    SamplerSpec,
    binary_cdf_spec,
    extend_cost_table,
)
from .outofcore import generate_walks
from .serialize import (
    load_assignment,
    load_bounding_constants,
    save_assignment,
    save_bounding_constants,
)

__all__ = [
    "NeighborProvider",
    "NodeSampler",
    "NaiveNodeSampler",
    "RejectionNodeSampler",
    "AliasNodeSampler",
    "SamplerSet",
    "build_node_sampler",
    "build_node_samplers",
    "MemoryBudget",
    "MemoryMeter",
    "format_bytes",
    "linear_budget_trace",
    "WalkEngine",
    "MemoryAwareFramework",
    "FrameworkTimings",
    "generate_walks",
    "save_assignment",
    "load_assignment",
    "save_bounding_constants",
    "load_bounding_constants",
    "SamplerSpec",
    "BinaryCdfNodeSampler",
    "binary_cdf_spec",
    "extend_cost_table",
]
