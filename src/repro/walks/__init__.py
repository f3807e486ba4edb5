"""Benchmark walk tasks from the paper's evaluation (Section 6.1).

* :func:`node2vec_walk_task` — 10 walks of length 80 per node, the
  node2vec sampling pattern.
* :func:`second_order_pagerank` — the walk-with-restart PageRank query of
  Wu et al., run over the autoregressive model.
* :class:`WalkCorpus` — container with corpus statistics and the empirical
  transition counts used by the statistical sampler tests.
"""

from .batch import BatchWalkEngine, batch_second_order_pagerank, batch_walks
from .corpus import WalkCorpus
from .exact_pagerank import exact_second_order_pagerank
from .kernels import (
    KERNEL_BACKEND_ENV,
    KernelBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from .metrics import diff_counters, merge_counters
from .parallel import parallel_walks
from .node2vec_task import node2vec_walk_task
from .pagerank import PageRankResult, second_order_pagerank
from .scheduler import (
    SCHEDULING_POLICIES,
    BucketedWalkScheduler,
    scheduled_walks,
)

__all__ = [
    "WalkCorpus",
    "node2vec_walk_task",
    "second_order_pagerank",
    "PageRankResult",
    "exact_second_order_pagerank",
    "parallel_walks",
    "batch_walks",
    "batch_second_order_pagerank",
    "BatchWalkEngine",
    "KernelBackend",
    "KERNEL_BACKEND_ENV",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "diff_counters",
    "merge_counters",
    "BucketedWalkScheduler",
    "scheduled_walks",
    "SCHEDULING_POLICIES",
]
