"""Cost model for node samplers (paper Section 4, Table 1).

Each node sampler has a per-node time cost ``T`` and memory cost ``M``:

============  ==========================  ================
Sampler       Memory cost (bytes)         Time cost
============  ==========================  ================
Naive         ``b_f · d_max / |V|``       ``d_v (c + 1) K``
Rejection     ``(2 b_f + b_i) · d_v``     ``C_v · c · K``
Alias         ``(b_f + b_i)(d_v² + d_v)`` ``K``
============  ==========================  ================

with ``b_f``/``b_i`` the float/int byte widths, ``K`` the unit time cost,
``c`` the common-neighbour-check cost, and ``C_v`` the average bounding
constant of node ``v``.
"""

from .params import CostParams
from .model import (
    SamplerKind,
    alias_memory,
    alias_table_memory,
    alias_time,
    naive_memory,
    naive_time,
    rejection_memory,
    rejection_time,
    resident_shard_memory,
    sampler_memory,
    sampler_time,
)
from .table import CostTable, build_cost_table

__all__ = [
    "CostParams",
    "SamplerKind",
    "naive_memory",
    "naive_time",
    "rejection_memory",
    "rejection_time",
    "alias_memory",
    "alias_time",
    "alias_table_memory",
    "resident_shard_memory",
    "sampler_memory",
    "sampler_time",
    "CostTable",
    "build_cost_table",
]
