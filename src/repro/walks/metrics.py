"""Associative merging of per-chunk engine counters.

The batch engine's dispatch counters used to reach
``WalkCorpus.metadata`` straight off the parent-process engine object —
which silently dropped every count accumulated inside forked pool
workers (their copy-on-write increments die with the child).  The fix is
structural: each chunk now ships a **counter delta** back with its walks
(a nested ``dict`` of plain ints, computed as ``after - before`` around
the chunk body), and the parent folds the deltas together with
:func:`merge_counters`.

The merge is a per-key integer sum over the union of keys — associative
and commutative — so the aggregate is independent of worker count,
completion order, and chunk-to-worker placement.  Combined with an
engine resetting its per-chunk transient state (the sharded scheduler's
resident shards) before each chunk, the merged counters are a pure function of the chunk
list: a 1-worker and a 4-worker run report identical totals, which the
test suite pins.
"""

from __future__ import annotations

from typing import Dict, Union

#: Nested counter payload: plain ints at the leaves, ``dict`` elsewhere.
CounterTree = Dict[str, Union[int, "CounterTree"]]


def diff_counters(after: CounterTree, before: CounterTree) -> CounterTree:
    """Per-key ``after - before`` over nested integer counters.

    ``before`` must be a snapshot of the same counter structure taken
    earlier on the same engine; keys absent from it count as zero, so a
    chunk that introduces a new bucket still reports a correct delta.
    """
    delta: CounterTree = {}
    for key, value in after.items():
        previous = before.get(key)
        if isinstance(value, dict):
            delta[key] = diff_counters(
                value, previous if isinstance(previous, dict) else {}
            )
        else:
            base = previous if isinstance(previous, int) else 0
            delta[key] = int(value) - base
    return delta


def merge_counters(left: CounterTree, right: CounterTree) -> CounterTree:
    """Per-key sum of two counter trees over the union of their keys.

    Returns a new tree (inputs are not mutated).  Summing ints is
    associative and commutative, so folding any number of chunk deltas
    in any order — sequential loop, pool completion order, a future
    tree-reduce — yields the same aggregate.
    """
    merged: CounterTree = {}
    for key in left.keys() | right.keys():
        a = left.get(key)
        b = right.get(key)
        if isinstance(a, dict) or isinstance(b, dict):
            merged[key] = merge_counters(
                a if isinstance(a, dict) else {},
                b if isinstance(b, dict) else {},
            )
        else:
            merged[key] = int(a or 0) + int(b or 0)
    return merged


__all__ = ["diff_counters", "merge_counters"]
