"""The memory-aware framework orchestrator (paper Figure 2).

Execution phases, matching Section 5's description:

1. initialise the cost model and compute bounding constants (``T_Cv``);
2. run the cost-based optimizer to assign a node sampler to every node
   within the memory budget;
3. materialise the per-node samplers (``T_NS``), charging a memory meter
   that reproduces OOM failures against a simulated physical memory;
4. expose the walk engine for second-order random walk tasks.

Budgets can change online via :meth:`MemoryAwareFramework.set_budget`
(Section 5.3): the assignment is updated through the greedy trace and only
the affected node samplers are rebuilt or dropped.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from ..bounding import (
    BoundingConstants,
    compute_bounding_constants,
    estimate_bounding_constants,
)
from ..constants import DEFAULT_DEGREE_THRESHOLD
from ..cost import CostParams, CostTable, SamplerKind, build_cost_table
from ..exceptions import DegradedRunWarning, OptimizerError, SimulatedOOMError
from ..graph import CSRGraph
from ..models import SecondOrderModel
from ..optimizer import AdaptiveOptimizer, Assignment, degree_greedy
from ..optimizer.adaptive import BudgetUpdate
from ..resilience.degradation import (
    DegradationLog,
    chain_downgrade,
    events_from_trace,
)
from ..rng import RngLike, ensure_rng
from ..sampling.alias import check_table_widths
from .interfaces import NodeSampler
from .memory import MemoryMeter
from .node_samplers import SamplerSet
from .walker import WalkEngine

#: optimizer algorithm names accepted by the framework.
OPTIMIZERS = ("lp", "deg-inc", "deg-dec")

#: bounding-constant computation modes.
BOUNDING_MODES = ("exact", "estimate")

#: how the framework answers a tripped OOM gate.
OOM_POLICIES = ("raise", "degrade")


@dataclass
class FrameworkTimings:
    """Wall-clock decomposition of initialisation (Equation 11).

    ``T_init = T_Cv + T_NS`` for the LP variants; degree-based and
    memory-unaware runs have ``T_Cv = 0``.
    """

    bounding_seconds: float = 0.0   # T_Cv
    optimize_seconds: float = 0.0   # assignment search (part of T_NS bucket)
    build_seconds: float = 0.0      # sampler materialisation

    @property
    def sampler_seconds(self) -> float:
        """``T_NS``: optimizer + sampler construction."""
        return self.optimize_seconds + self.build_seconds

    @property
    def init_seconds(self) -> float:
        """``T_init``."""
        return self.bounding_seconds + self.sampler_seconds


class MemoryAwareFramework:
    """Memory-aware second-order random walk middleware.

    Parameters
    ----------
    graph, model:
        The substrate graph and the second-order model to walk.
    budget:
        Memory budget in modeled bytes for the node-sampler assignment.
    cost_params:
        Cost-model instantiation; defaults to the paper's
        (``b_f = b_i = 4``, binary-search neighbour checks).  Its byte
        widths must be the stored table widths
        (:func:`~repro.sampling.alias.check_table_widths`).
    optimizer:
        ``"lp"`` (Algorithm 2, supports dynamic budgets), ``"deg-inc"``
        or ``"deg-dec"``.
    bounding:
        ``"exact"`` (LP-std) or ``"estimate"`` (LP-est, with
        ``degree_threshold``).
    bounding_constants:
        Pre-computed constants; skips phase 1 (useful when sweeping budgets
        over one graph/model pair, mirroring the paper's note that ``C_v``
        is budget-independent).
    physical_memory:
        Simulated physical memory in bytes for the OOM gate (``None``
        disables the gate).
    oom_policy:
        ``"raise"`` (default) propagates :class:`SimulatedOOMError` when
        the assignment's footprint exceeds ``physical_memory``;
        ``"degrade"`` instead downgrades samplers (reverse LP-greedy
        trace, or highest-memory-first chain downgrade for the other
        optimizers) until the footprint fits, records the downgrades in
        :attr:`degradation_log`, and emits a :class:`DegradedRunWarning`.
    extra_samplers:
        User-defined :class:`~repro.framework.extra_samplers.SamplerSpec`
        entries enrolled alongside the built-in trio — the paper's §5.1
        extensible sampler set.  Spec ``i`` occupies cost-table column
        ``3 + i``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: SecondOrderModel,
        budget: float,
        *,
        cost_params: CostParams | None = None,
        optimizer: str = "lp",
        bounding: str = "exact",
        degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
        bounding_constants: BoundingConstants | None = None,
        physical_memory: float | None = None,
        oom_policy: str = "raise",
        extra_samplers: list | None = None,
        rng: RngLike = None,
    ) -> None:
        if optimizer not in OPTIMIZERS:
            raise OptimizerError(
                f"unknown optimizer {optimizer!r}; choose from {OPTIMIZERS}"
            )
        if bounding not in BOUNDING_MODES:
            raise OptimizerError(
                f"unknown bounding mode {bounding!r}; choose from {BOUNDING_MODES}"
            )
        if oom_policy not in OOM_POLICIES:
            raise OptimizerError(
                f"unknown oom_policy {oom_policy!r}; choose from {OOM_POLICIES}"
            )
        self.graph = graph
        self.model = model
        self.cost_params = cost_params or CostParams()
        check_table_widths(self.cost_params)
        self.optimizer_name = optimizer
        self.oom_policy = oom_policy
        self.degradation_log: DegradationLog | None = None
        self.timings = FrameworkTimings()
        self.meter = MemoryMeter(physical_memory)
        self._rng = ensure_rng(rng)

        # Phase 1: bounding constants (T_Cv).
        started = time.perf_counter()
        if bounding_constants is not None:
            self.bounding_constants = bounding_constants
        elif bounding == "exact":
            self.bounding_constants = compute_bounding_constants(graph, model)
        else:
            self.bounding_constants = estimate_bounding_constants(
                graph, model, degree_threshold=degree_threshold, rng=self._rng
            )
        self.timings.bounding_seconds = (
            0.0 if bounding_constants is not None else time.perf_counter() - started
        )

        # Phase 2: cost-based optimisation.
        started = time.perf_counter()
        self.extra_samplers = list(extra_samplers or [])
        self.cost_table: CostTable = build_cost_table(
            graph, self.bounding_constants, self.cost_params
        )
        if self.extra_samplers:
            from .extra_samplers import extend_cost_table

            self.cost_table = extend_cost_table(
                self.cost_table, graph, self.extra_samplers
            )
        self._adaptive: AdaptiveOptimizer | None = None
        if optimizer == "lp":
            self._adaptive = AdaptiveOptimizer(self.cost_table, budget)
            self._assignment = self._adaptive.assignment
        else:
            self._assignment = degree_greedy(
                self.cost_table,
                budget,
                graph.degrees,
                increasing=(optimizer == "deg-inc"),
            )
        self.timings.optimize_seconds = time.perf_counter() - started

        # Phases 3-4: sampler materialisation (T_NS) + walk engine.
        self._materialise_samplers()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def assignment(self) -> Assignment:
        """The current node-sampler assignment."""
        return self._assignment

    @property
    def budget(self) -> float:
        """The active memory budget in modeled bytes."""
        return self._assignment.budget

    @property
    def walk_engine(self) -> WalkEngine:
        """The walk engine over the materialised samplers."""
        return self._engine

    def batch_engine(
        self,
        *,
        cache_budget: float | None = None,
        backend: str | None = None,
    ):
        """An assignment-aware :class:`~repro.walks.BatchWalkEngine` over
        the framework's :class:`~repro.framework.node_samplers.SamplerSet`
        (it walks the set's arenas; no per-node sampler is made).

        ``backend`` selects the step-kernel backend (``"numpy"``/
        ``"numba"``/registered name; default: ``REPRO_KERNEL_BACKEND`` or
        numpy) — bit-identical output either way, the choice is purely
        about speed.

        ``cache_budget`` is accepted and ignored: the engine keeps no
        edge-state cache.  The keyword stays only because the benchmark
        suite's ``ar-query`` workload still passes it; it goes in the
        benchmark change that drops ``cache_budget`` from that workload's
        spec and rewords its description.
        """
        from ..walks.batch import BatchWalkEngine

        return BatchWalkEngine(
            self.graph, self.model, self._samplers, backend=backend
        )

    def sampler(self, node: int) -> NodeSampler | None:
        """The sampler of ``node`` (``None`` for isolated nodes): a view
        over its rows of the table arenas, made on first access and kept
        (see :class:`~repro.framework.node_samplers.SamplerSet`)."""
        return self._samplers[node]

    # ------------------------------------------------------------------
    # walking API
    # ------------------------------------------------------------------
    def walk(self, start: int, length: int, rng: RngLike = None) -> np.ndarray:
        """One second-order walk (Algorithm 1)."""
        return self._engine.walk(start, length, rng if rng is not None else self._rng)

    def generate_walks(
        self,
        *,
        num_walks: int,
        length: int,
        rng: RngLike = None,
        engine: str = "scalar",
        backend: str | None = None,
    ) -> list[np.ndarray]:
        """The node2vec pattern: ``num_walks`` walks of ``length`` per node.

        ``engine="batch"`` runs the vectorised assignment-aware engine
        (same walk distribution, different RNG stream; ``backend`` as in
        :meth:`batch_engine` — the kernel backend never changes the
        corpus, only its speed).
        """
        if engine not in ("scalar", "batch"):
            raise OptimizerError(
                f"unknown engine {engine!r}; choose from ('scalar', 'batch')"
            )
        if backend is not None and engine != "batch":
            raise OptimizerError(
                "kernel backends apply to engine='batch' only"
            )
        if engine == "batch":
            corpus = self.batch_engine(backend=backend).walks(
                num_walks=num_walks,
                length=length,
                rng=rng if rng is not None else self._rng,
            )
            return list(corpus)
        return self._engine.walks_all_nodes(
            num_walks=num_walks,
            length=length,
            rng=rng if rng is not None else self._rng,
        )

    # ------------------------------------------------------------------
    # dynamic budgets (Section 5.3)
    # ------------------------------------------------------------------
    def set_budget(self, new_budget: float) -> tuple[BudgetUpdate, float]:
        """Adapt to a new memory budget.

        Only available with the LP optimizer (the trace-based update).
        Returns the optimizer-level :class:`BudgetUpdate` plus the
        wall-clock seconds spent rebuilding the affected node samplers —
        together these are the Figure 9 "update cost".

        Nodes whose sampler kind changes are rebuilt.  Each table arena
        whose kind gains or loses a node is compacted
        (:meth:`~repro.framework.node_samplers.SamplerSet.updated`): a new
        arena takes the survivors' tables, copied slot range by slot range
        from their ``base`` offsets in the old one, then the rebuilt
        nodes' tables, and the old arena is freed with the old sampler set
        once the update commits.  Both arenas of a kind are alive until
        then, so the traced peak of an update, a decrease included, is the
        old arenas plus the new ones plus one block pass of build
        temporaries (see :data:`~repro.bounding.blocks.BLOCK_ENTRIES`):
        more than either budget.  The update makes a new sampler set and
        never changes the old one, so a batch engine made before the
        update keeps walking (and holding) the old assignment's arenas,
        and its corpus is the one it walked before the update.
        """
        if self._adaptive is None:
            raise OptimizerError(
                "dynamic budgets require the 'lp' optimizer"
            )
        old = self._assignment
        # Charge the new samplers before dropping or building anything; if
        # the meter trips (or a build fails) the optimizer and the meter
        # roll back and the old sampler set stays in place.
        with self._adaptive.transaction(), self.meter.transaction():
            update = self._adaptive.set_budget(new_budget)
            new = self._adaptive.assignment
            started = time.perf_counter()
            changed = np.flatnonzero(old.samplers != new.samplers)
            self._release(changed, old.samplers[changed])
            self._charge(changed, new.samplers[changed])
            samplers = self._samplers.updated(new.samplers, self.extra_samplers)
        self._assignment = new
        self._samplers = samplers
        rebuild_seconds = time.perf_counter() - started
        self._engine = WalkEngine(self.graph, samplers)
        return update, rebuild_seconds

    # ------------------------------------------------------------------
    # memory-unaware baselines
    # ------------------------------------------------------------------
    @classmethod
    def memory_unaware(
        cls,
        graph: CSRGraph,
        model: SecondOrderModel,
        kind: SamplerKind,
        *,
        cost_params: CostParams | None = None,
        physical_memory: float | None = None,
        oom_policy: str = "raise",
        bounding_constants: BoundingConstants | None = None,
        rng: RngLike = None,
    ) -> "MemoryAwareFramework":
        """Build the all-``kind`` baseline (naive / rejection / alias).

        Bypasses the optimizer by granting an unbounded budget and forcing
        every (non-isolated) node onto ``kind``.  The memory meter still
        applies, so an all-alias build on a graph that does not fit the
        simulated physical memory raises :class:`SimulatedOOMError`
        exactly like the paper's Table 5 — unless ``oom_policy="degrade"``
        is requested, in which case the over-budget nodes are stepped down
        the sampler chain (alias → rejection → naive) until the baseline
        fits, with the downgrades recorded in ``degradation_log``.
        """
        if oom_policy not in OOM_POLICIES:
            raise OptimizerError(
                f"unknown oom_policy {oom_policy!r}; choose from {OOM_POLICIES}"
            )
        self = cls.__new__(cls)
        self.graph = graph
        self.model = model
        self.cost_params = cost_params or CostParams()
        check_table_widths(self.cost_params)
        self.optimizer_name = f"all-{SamplerKind(kind).name.lower()}"
        self.oom_policy = oom_policy
        self.degradation_log = None
        self.timings = FrameworkTimings()
        self.meter = MemoryMeter(physical_memory)
        self._rng = ensure_rng(rng)
        self._adaptive = None
        self.extra_samplers = []

        needs_constants = kind is SamplerKind.REJECTION
        started = time.perf_counter()
        if bounding_constants is None and needs_constants:
            bounding_constants = compute_bounding_constants(graph, model)
            self.timings.bounding_seconds = time.perf_counter() - started
        if bounding_constants is None:
            bounding_constants = BoundingConstants(
                values=np.ones(graph.num_nodes), exact=False
            )
        self.bounding_constants = bounding_constants
        self.cost_table = build_cost_table(
            graph, self.bounding_constants, self.cost_params
        )

        samplers = np.full(graph.num_nodes, int(kind), dtype=np.int8)
        isolated = graph.degrees == 0
        samplers[isolated] = int(SamplerKind.NAIVE)
        rows = np.arange(graph.num_nodes)
        used = float(self.cost_table.memory[rows, samplers].sum())
        self._assignment = Assignment(
            samplers=samplers,
            used_memory=used,
            total_time=float(self.cost_table.time[rows, samplers].sum()),
            budget=np.inf,
            algorithm=self.optimizer_name,
        )

        self._materialise_samplers()
        return self

    # ------------------------------------------------------------------
    # modeled-cost projections (used by the large-graph experiments)
    # ------------------------------------------------------------------
    def modeled_task_time(self, samples_per_node: np.ndarray | float) -> float:
        """Total modeled time units for a workload drawing the given number
        of e2e samples from each node under the current assignment."""
        rows = np.arange(self.graph.num_nodes)
        per_sample = self.cost_table.time[rows, self._assignment.samplers]
        if np.isscalar(samples_per_node):
            return float(per_sample.sum() * samples_per_node)
        samples = np.asarray(samples_per_node, dtype=np.float64)
        return float(np.dot(per_sample, samples))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _materialise_samplers(self) -> None:
        """Phase 3: degrade if policy demands, then build every sampler."""
        if self.oom_policy == "degrade":
            self._degrade_to_fit()
        started = time.perf_counter()
        columns = self._assignment.samplers
        self._charge(np.arange(self.graph.num_nodes), columns)
        self._samplers = SamplerSet.build(
            self.graph, self.model, columns, self.extra_samplers
        )
        self.timings.build_seconds = time.perf_counter() - started
        self._engine = WalkEngine(self.graph, self._samplers)

    def _chargeable_memory(self, samplers: np.ndarray) -> float:
        """Modeled bytes the meter will charge: non-isolated nodes only."""
        mask = self.graph.degrees > 0
        rows = np.arange(self.graph.num_nodes)
        return float(self.cost_table.memory[rows, samplers][mask].sum())

    def _degrade_to_fit(self) -> None:
        """Shrink the assignment until its footprint fits physical memory.

        LP assignments replay the greedy trace in reverse (the adaptive
        optimizer's own budget-decrease move, so its internal schedule
        cursor stays consistent); traceless assignments fall back to the
        highest-memory-first chain downgrade.  No-op when the footprint
        already fits.  Raises :class:`SimulatedOOMError` only when even
        the all-cheapest assignment cannot fit.
        """
        physical = self.meter.physical_bytes
        if physical is None:
            return
        limit = physical - self.meter.used_bytes
        mask = self.graph.degrees > 0
        initial = self._chargeable_memory(self._assignment.samplers)
        if initial <= limit:
            return

        if self._adaptive is not None:
            # Isolated nodes sit in the assignment's bookkeeping but are
            # never charged to the meter; shed against the shifted limit.
            overhead = self._adaptive.used_memory - initial
            popped = self._adaptive.shed_memory(limit + overhead)
            self._assignment = self._adaptive.assignment
            events = events_from_trace(
                self.cost_table, popped, initial, chargeable_mask=mask
            )
            final = self._chargeable_memory(self._assignment.samplers)
            if final > limit:
                raise SimulatedOOMError(
                    required_bytes=int(np.ceil(final)),
                    available_bytes=int(physical),
                    what="minimum sampler footprint after degradation",
                )
        else:
            samplers, events = chain_downgrade(
                self.cost_table, self._assignment.samplers, mask, limit
            )
            old = self._assignment
            self._assignment = Assignment(
                samplers=samplers,
                used_memory=float(self.cost_table.assignment_memory(samplers)),
                total_time=float(self.cost_table.assignment_time(samplers)),
                budget=old.budget,
                algorithm=f"{old.algorithm or self.optimizer_name}+degraded",
                trace=list(old.trace),
            )
            self._assignment.validate_against(self.cost_table)

        self.degradation_log = DegradationLog(
            physical_bytes=float(physical),
            initial_bytes=initial,
            events=events,
        )
        warnings.warn(
            DegradedRunWarning(self.degradation_log.describe()), stacklevel=3
        )

    def _sampler_names(self) -> list[str]:
        """The name of each cost-table column's sampler kind."""
        names = [kind.name.lower() for kind in SamplerKind]
        return names + [spec.name for spec in self.extra_samplers]

    def _charge(self, nodes: np.ndarray, columns: np.ndarray) -> None:
        """Charge the meter for the samplers of cost-table ``columns`` at
        ``nodes`` (isolated nodes hold none), in node order, before any
        table is built: an OOM names the first node that does not fit and
        leaves nothing half-built.  The ledger keeps one entry per kind,
        so no label is formatted per node."""
        nodes, columns, labels = self._metered(nodes, columns)
        names = self._sampler_names()
        self.meter.charge_many(
            self.cost_table.memory[nodes, columns],
            labels,
            groups=columns,
            name=lambda i: f"{names[columns[i]]} sampler at node {nodes[i]}",
        )

    def _release(self, nodes: np.ndarray, columns: np.ndarray) -> None:
        """Return the charge of the samplers of ``columns`` at ``nodes``
        to the meter, in node order, as :meth:`_charge` charged it."""
        nodes, columns, labels = self._metered(nodes, columns)
        self.meter.release_many(
            self.cost_table.memory[nodes, columns], labels, groups=columns
        )

    def _metered(
        self, nodes: np.ndarray, columns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The non-isolated ``nodes`` with their ``columns``, and each
        column's ledger entry."""
        active = self.graph.degrees[nodes] > 0
        labels = [f"{name} samplers" for name in self._sampler_names()]
        return nodes[active], np.asarray(columns, dtype=np.int64)[active], labels
