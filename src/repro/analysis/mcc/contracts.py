"""Memory-cost contract extraction for the ``repromcc`` checker.

The optimizer's whole guarantee — a sampler assignment never exceeds the
memory budget — rests on ``cost/model.py`` describing what the builders
in ``sampling/``, ``framework/node_samplers.py`` and
``graph/sharded.py`` actually allocate.  This module closes that loop
statically: each registered *structure* (one per row of the paper's
Table 1, plus the out-of-core layout's resident shard) is extracted
from the source on both sides of the contract:

* the **model side** — the return expression of the corresponding
  ``cost/model.py`` formula (or ``memory_bytes`` method), evaluated into
  a symbolic polynomial over the dims ``d`` (degree), ``d_max``, ``N``
  (nodes), ``E`` (edges) and the itemsizes ``b_f``/``b_i``;
* the **allocation side** — every *persistent* allocation site in the
  structure's builder (ndarray constructors, nested :class:`AliasTable`
  builds, list-comprehension fan-outs), sized through declared dims and
  summed into a polynomial in the same symbols, with ``if``/``else``
  branches joined by term-wise maximum (worst-case path).

The two polynomials must be identical; any missing term, wrong constant
or wrong itemsize is a MCC201 finding (see :mod:`.rules`).  The derived
contracts serialise into the committed ``memory-contracts.json``, which
the MSan runtime tracer (:mod:`repro.analysis.msan`) evaluates against
real ``nbytes`` during sanitized runs — model, static contract and
runtime reality are mutually pinned.

Symbol conventions: dims are ``d`` (node degree), ``d_max``, ``N``
(nodes), ``E`` (edges), ``n_s``/``E_s`` (per-shard nodes/edges);
itemsizes are ``b_f`` (one float) and ``b_i`` (one int), instantiated at
``float64``/``int64`` = 8 bytes by the numpy builders (the cost model's
*knapsack* units default to the paper's 4-byte instantiation — a scale
choice, not drift; see ``docs/performance.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ...exceptions import CostModelError
from ..lint.engine import SourceFile, dotted_name

# ----------------------------------------------------------------------
# symbolic byte polynomials
# ----------------------------------------------------------------------
#: monomial: sorted ((symbol, exponent), ...); polynomial: monomial -> coeff.
Monomial = "tuple[tuple[str, int], ...]"
Poly = "dict[tuple, float]"

#: canonical symbol order for rendering (dims first, itemsizes last).
_SYM_ORDER = {
    "d": 0,
    "d_max": 1,
    "N": 2,
    "E": 3,
    "n_s": 4,
    "E_s": 5,
    "b_f": 6,
    "b_i": 7,
}

#: runtime itemsize instantiation of the symbolic widths (numpy builders
#: allocate float64/int64); the MSan conformance layer evaluates the
#: contract terms with exactly these values.
ITEMSIZE = {"b_f": 8, "b_i": 8}

_EPS = 1e-9


def _mono_key(mono) -> tuple:
    return tuple(
        (_SYM_ORDER.get(sym, 99), sym, exp) for sym, exp in mono
    )


def _make_mono(pairs: Iterable[tuple[str, int]]):
    merged: dict[str, int] = {}
    for sym, exp in pairs:
        merged[sym] = merged.get(sym, 0) + exp
    items = [(s, e) for s, e in merged.items() if e != 0]
    items.sort(key=lambda it: (_SYM_ORDER.get(it[0], 99), it[0]))
    return tuple(items)


def poly_const(value: float):
    """The constant polynomial ``value`` (``{}`` when zero)."""
    return {(): float(value)} if abs(value) > _EPS else {}


def poly_sym(sym: str):
    """The polynomial ``sym``."""
    return {((sym, 1),): 1.0}


def poly_add(*polys):
    """Sum of polynomials, dropping vanishing terms."""
    out: dict = {}
    for poly in polys:
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0.0) + coeff
    return {m: c for m, c in out.items() if abs(c) > _EPS}


def poly_scale(poly, factor: float):
    """``factor * poly``."""
    if abs(factor) <= _EPS:
        return {}
    return {m: c * factor for m, c in poly.items()}


def poly_mul(a, b):
    """Product of two polynomials."""
    out: dict = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = _make_mono(list(mono_a) + list(mono_b))
            out[mono] = out.get(mono, 0.0) + coeff_a * coeff_b
    return {m: c for m, c in out.items() if abs(c) > _EPS}


def poly_pow(poly, exponent: int):
    """``poly ** exponent`` for a non-negative integer exponent."""
    out = poly_const(1.0)
    for _ in range(int(exponent)):
        out = poly_mul(out, poly)
    return out


def poly_div(a, b):
    """``a / b`` when ``b`` is a single monomial (else ``None``)."""
    if len(b) != 1:
        return None
    (mono_b, coeff_b), = b.items()
    if abs(coeff_b) <= _EPS:
        return None
    inverse = {_make_mono((sym, -exp) for sym, exp in mono_b): 1.0 / coeff_b}
    return poly_mul(a, inverse)


def poly_max(a, b):
    """Term-wise maximum — the worst-case join of two branch footprints."""
    out: dict = {}
    for mono in set(a) | set(b):
        coeff = max(a.get(mono, 0.0), b.get(mono, 0.0))
        if abs(coeff) > _EPS:
            out[mono] = coeff
    return out


def substitute_sym(poly, sym: str, replacement):
    """``poly`` with every occurrence of ``sym`` replaced by a polynomial."""
    out: dict = {}
    for mono, coeff in poly.items():
        rest = [(s, e) for s, e in mono if s != sym]
        exp = next((e for s, e in mono if s == sym), 0)
        term = {_make_mono(rest): coeff}
        if exp:
            term = poly_mul(term, poly_pow(replacement, exp))
        for m, c in term.items():
            out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if abs(c) > _EPS}


def _render_mono(mono) -> str:
    parts = []
    for sym, exp in mono:
        parts.append(sym if exp == 1 else f"{sym}**{exp}")
    return "*".join(parts)


def _fmt_coeff(coeff: float) -> str:
    if abs(coeff - round(coeff)) <= _EPS:
        return str(int(round(coeff)))
    return f"{coeff:g}"


def render_poly(poly) -> str:
    """Canonical human-readable form (``2*d*b_f + d*b_i``; ``0`` empty)."""
    if not poly:
        return "0"
    ordered = sorted(
        poly.items(),
        key=lambda item: (-sum(e for _, e in item[0]), _mono_key(item[0])),
    )
    parts = []
    for mono, coeff in ordered:
        if not mono:
            parts.append(_fmt_coeff(coeff))
        elif abs(coeff - 1.0) <= _EPS:
            parts.append(_render_mono(mono))
        else:
            parts.append(f"{_fmt_coeff(coeff)}*{_render_mono(mono)}")
    return " + ".join(parts)


def poly_terms(poly) -> list:
    """JSON-ready term list: ``[{"coeff": c, "monomial": {sym: exp}}]``."""
    ordered = sorted(
        poly.items(),
        key=lambda item: (-sum(e for _, e in item[0]), _mono_key(item[0])),
    )
    return [
        {"coeff": coeff, "monomial": {sym: exp for sym, exp in mono}}
        for mono, coeff in ordered
    ]


def eval_terms(terms: Iterable[Mapping], values: Mapping[str, float]) -> float:
    """Evaluate serialized contract terms with concrete symbol values.

    ``values`` must cover every symbol appearing in ``terms``; itemsize
    symbols default to :data:`ITEMSIZE` when absent.
    """
    total = 0.0
    for term in terms:
        product = float(term["coeff"])
        for sym, exp in term["monomial"].items():
            if sym in values:
                base = float(values[sym])
            elif sym in ITEMSIZE:
                base = float(ITEMSIZE[sym])
            else:
                raise CostModelError(f"no value for contract symbol {sym!r}")
            product *= base ** exp
        total += product
    return total


def polys_equal(a, b) -> bool:
    """Exact symbolic equality (up to floating tolerance)."""
    for mono in set(a) | set(b):
        if abs(a.get(mono, 0.0) - b.get(mono, 0.0)) > _EPS:
            return False
    return True


def diff_polys(model, allocation) -> list[str]:
    """Human-readable per-term drift between model and allocation."""
    out: list[str] = []
    for mono in sorted(set(model) | set(allocation), key=_mono_key):
        cm = model.get(mono, 0.0)
        ca = allocation.get(mono, 0.0)
        if abs(cm - ca) <= _EPS:
            continue
        term = _render_mono(mono) or "constant"
        if abs(ca) <= _EPS:
            out.append(f"term {term}: model has {_fmt_coeff(cm)}, allocation has none")
        elif abs(cm) <= _EPS:
            out.append(f"term {term}: allocation has {_fmt_coeff(ca)}, model has none")
        else:
            out.append(
                f"term {term}: model coefficient {_fmt_coeff(cm)} vs "
                f"allocation {_fmt_coeff(ca)}"
            )
    return out


def parse_poly(text: str):
    """Parse a declared contract expression (``"d*b_f + 8"``) to a poly."""
    node = ast.parse(text, mode="eval").body
    syms = {name: poly_sym(name) for name in _SYM_ORDER}
    poly = eval_expr(node, syms)
    if poly is None:
        raise CostModelError(f"cannot parse contract expression {text!r}")
    return poly


# ----------------------------------------------------------------------
# symbolic expression evaluation over the AST
# ----------------------------------------------------------------------
#: calls transparent to byte/size arithmetic.  ``sum`` reads per node:
#: a table arena sized ``sum(f(degrees))`` holds ``f(d)`` for each node,
#: which is what a per-node contract prices.
_TRANSPARENT_CALLS = {"int", "float", "len", "sum"}


def eval_expr(
    node: ast.AST,
    env: Mapping[str, "dict"],
    *,
    call_dims: "Mapping[str, str] | None" = None,
    call_subs: "Mapping[str, dict] | None" = None,
):
    """Evaluate an expression into a byte/size polynomial, or ``None``.

    ``env`` maps dotted names (``degree``, ``params.float_bytes``,
    ``self._neighbors``) to polynomials — for array names the polynomial
    is the array's *length*.  ``call_dims`` maps callee tails (e.g.
    ``neighbor_weights``) to the symbolic length of their result;
    ``call_subs`` maps callee tails (e.g. ``memory_bytes``) directly to a
    result polynomial.  Unknown constructs yield ``None`` (the caller
    reports an unsizeable expression instead of guessing).
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return None
        return poly_const(node.value)
    if isinstance(node, (ast.Name, ast.Attribute)):
        chain = dotted_name(node)
        if not chain:
            return None
        if chain in env:
            return env[chain]
        tail = chain.rsplit(".", 1)[-1]
        return env.get(tail)
    if isinstance(node, ast.UnaryOp):
        inner = eval_expr(node.operand, env, call_dims=call_dims, call_subs=call_subs)
        if inner is None:
            return None
        if isinstance(node.op, ast.USub):
            return poly_scale(inner, -1.0)
        if isinstance(node.op, ast.UAdd):
            return inner
        return None
    if isinstance(node, ast.BinOp):
        left = eval_expr(node.left, env, call_dims=call_dims, call_subs=call_subs)
        right = eval_expr(node.right, env, call_dims=call_dims, call_subs=call_subs)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return poly_add(left, right)
        if isinstance(node.op, ast.Sub):
            return poly_add(left, poly_scale(right, -1.0))
        if isinstance(node.op, ast.Mult):
            return poly_mul(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return poly_div(left, right)
        if isinstance(node.op, ast.Pow):
            if list(right) == [()] and abs(right[()] - round(right[()])) <= _EPS:
                return poly_pow(left, int(round(right[()])))
            return None
        return None
    if isinstance(node, ast.Call):
        tail = dotted_name(node.func).rsplit(".", 1)[-1]
        if tail in _TRANSPARENT_CALLS and node.args:
            return eval_expr(
                node.args[0], env, call_dims=call_dims, call_subs=call_subs
            )
        if call_subs and tail in call_subs:
            return call_subs[tail]
        if call_dims and tail in call_dims:
            return poly_sym(call_dims[tail])
        return None
    return None


# ----------------------------------------------------------------------
# dtype -> (itemsize symbol, byte width)
# ----------------------------------------------------------------------
_DTYPE_WIDTHS = {
    "float64": ("b_f", 8),
    "float_": ("b_f", 8),
    "float": ("b_f", 8),
    "double": ("b_f", 8),
    "float32": ("b_f", 4),
    "float16": ("b_f", 2),
    "int64": ("b_i", 8),
    "int_": ("b_i", 8),
    "int": ("b_i", 8),
    "intp": ("b_i", 8),
    "int32": ("b_i", 4),
    "int16": ("b_i", 2),
    "int8": ("b_i", 1),
    "uint64": ("b_i", 8),
    "uint32": ("b_i", 4),
    "bool_": ("b_i", 1),
    "bool": ("b_i", 1),
}

#: ndarray constructors the builder extraction can size, with the dtype
#: assumed when the call does not pass one (numpy defaults).
_BUILDER_ALLOC_DEFAULTS = {
    "empty": "float64",
    "zeros": "float64",
    "ones": "float64",
    "full": "float64",
    "empty_like": "float64",
    "zeros_like": "float64",
    "ones_like": "float64",
    "full_like": "float64",
    "arange": "int64",
    "array": "float64",
    "asarray": "float64",
    "ascontiguousarray": "float64",
    "clip": "float64",
    "cumsum": "float64",
    "where": "float64",
}

#: size comes from the first argument's *length* (an existing array)
#: rather than from a shape expression.
_LENGTH_OF_ARG = {
    "empty_like",
    "zeros_like",
    "ones_like",
    "full_like",
    "array",
    "asarray",
    "ascontiguousarray",
    "clip",
    "cumsum",
    "where",
}

#: structure-class constructors treated as nested substructure builds.
_SUBSTRUCTURE_CLASSES = {"AliasTable": "alias_table"}


def _dtype_token(node: ast.Call) -> "str | None":
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            chain = dotted_name(keyword.value)
            if chain:
                return chain.rsplit(".", 1)[-1]
            if isinstance(keyword.value, ast.Constant) and isinstance(
                keyword.value.value, str
            ):
                return keyword.value.value
            return "<dynamic>"
    return None


# ----------------------------------------------------------------------
# structure specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StructureSpec:
    """One memory-costed structure: where it is built, how it is modeled."""

    name: str
    module: str
    symbol: str  # builder qualname ("Class.__init__") or class name
    #: model formula location, or ``None`` for declared-only structures.
    model_module: "str | None" = None
    model_symbol: "str | None" = None
    #: dotted parameter/attribute names -> dim symbol, for the model body.
    model_env: "tuple[tuple[str, str], ...]" = ()
    #: callee tails in the model body substituted by another structure's
    #: model polynomial (e.g. ``memory_bytes`` -> ``alias_table``).
    model_call_subs: "tuple[tuple[str, str], ...]" = ()
    #: dotted names with a known symbolic length inside the builder.
    dims: "tuple[tuple[str, str], ...]" = ()
    #: callee tails whose result length is a known dim inside the builder.
    call_dims: "tuple[tuple[str, str], ...]" = ()
    #: constructor parameters carrying an externally-built substructure
    #: whose bytes the model covers: (param, structure name).
    carried: "tuple[tuple[str, str], ...]" = ()
    #: canonical allocation expression — fallback when the structure is
    #: referenced from a run that does not include its builder module,
    #: and the contract of record for declared-only structures.
    declared_alloc: "str | None" = None
    #: named allocation variants (e.g. rejection's closed-form-bound path
    #: that never materialises the per-edge factor array).
    variants: "tuple[tuple[str, str], ...]" = ()
    #: the builder must contain no persistent scaled allocation at all
    #: (the naive sampler: its model charge is an amortised shared
    #: scratch share, not per-node state).
    expect_empty: bool = False
    note: str = ""


#: the registry, in extraction order (substructures before users).
STRUCTURE_SPECS: tuple[StructureSpec, ...] = (
    StructureSpec(
        name="alias_table",
        module="sampling/alias.py",
        symbol="AliasTable.__init__",
        model_module="sampling/alias.py",
        model_symbol="AliasTable.memory_bytes",
        model_env=(
            ("self.num_outcomes", "d"),
            ("num_outcomes", "d"),
            ("int_bytes", "b_i"),
            ("float_bytes", "b_f"),
        ),
        dims=(("n", "d"), ("p", "d"), ("weights", "d")),
        declared_alloc="d*b_f + d*b_i",
        note="prob (float) + alias (int) tables: the (b_f + b_i)*d term",
    ),
    StructureSpec(
        name="rejection_sampler",
        module="sampling/rejection.py",
        symbol="RejectionSampler.__init__",
        model_module="sampling/rejection.py",
        model_symbol="RejectionSampler.memory_bytes",
        model_env=(
            ("self.num_outcomes", "d"),
            ("num_outcomes", "d"),
            ("int_bytes", "b_i"),
            ("float_bytes", "b_f"),
        ),
        model_call_subs=(("memory_bytes", "alias_table"),),
        dims=(("acceptance", "d"),),
        carried=(("proposal_sampler", "alias_table"),),
        declared_alloc="2*d*b_f + d*b_i",
        note="carried proposal tables plus one acceptance float per outcome",
    ),
    StructureSpec(
        name="rejection_state",
        module="framework/node_samplers.py",
        symbol="RejectionNodeSampler._state_buffers",
        model_module="cost/model.py",
        model_symbol="rejection_memory",
        model_env=(
            ("degree", "d"),
            ("params.float_bytes", "b_f"),
            ("params.int_bytes", "b_i"),
        ),
        dims=(("degrees", "d"),),
        declared_alloc="2*d*b_f + d*b_i",
        variants=(("bounded", "d*b_f + d*b_i"),),
        note=(
            "n2e alias table + per-edge acceptance factors; the 'bounded' "
            "variant (closed-form max_ratio_bound) never materialises the "
            "factor array, under-filling the model's worst case"
        ),
    ),
    StructureSpec(
        name="alias_state",
        module="framework/node_samplers.py",
        symbol="AliasNodeSampler._state_buffers",
        model_module="cost/model.py",
        model_symbol="alias_memory",
        model_env=(
            ("degree", "d"),
            ("params.float_bytes", "b_f"),
            ("params.int_bytes", "b_i"),
        ),
        dims=(("degrees", "d"),),
        declared_alloc="d**2*b_f + d**2*b_i + d*b_f + d*b_i",
        note="one e2e alias table per incoming edge (d**2) plus the n2e table",
    ),
    StructureSpec(
        name="naive_state",
        module="framework/node_samplers.py",
        symbol="NaiveNodeSampler",
        model_module="cost/model.py",
        model_symbol="naive_memory",
        model_env=(
            ("max_degree", "d_max"),
            ("num_nodes", "N"),
            ("params.float_bytes", "b_f"),
            ("params.int_bytes", "b_i"),
        ),
        expect_empty=True,
        note=(
            "no persistent per-node state; the model charges the amortised "
            "share b_f*d_max/N of one shared scratch buffer"
        ),
    ),
    StructureSpec(
        name="resident_shard",
        module="graph/sharded.py",
        symbol="ShardResidencyManager",
        declared_alloc="8*n_s + 16*E_s + 8",
        note=(
            "int64 indptr (n_s+1) + int64 indices (E_s) + float64 weights "
            "(E_s); manifest counts and residency arithmetic checked by "
            "MCC205"
        ),
    ),
)


# ----------------------------------------------------------------------
# extraction results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocationSite:
    """One persistent allocation folded into a structure's byte expression."""

    path: str
    line: int
    col: int
    kind: str  # "ndarray" | "substructure" | "fanout" | "carried"
    expr: str  # rendered byte polynomial of this site

    def to_dict(self) -> dict:
        """JSON-ready payload for ``memory-contracts.json``."""
        return {
            "path": self.path,
            "line": self.line,
            "kind": self.kind,
            "bytes": self.expr,
        }


@dataclass
class StructureContract:
    """Both sides of one structure's memory-cost contract."""

    spec: StructureSpec
    builder_path: "str | None" = None
    builder_line: int = 0
    model_path: "str | None" = None
    model_line: int = 0
    model: "dict | None" = None  # poly
    allocation: "dict | None" = None  # poly
    sites: list[AllocationSite] = field(default_factory=list)
    #: (path, line, message) extraction failures — surfaced as MCC201.
    problems: "list[tuple[str, int, str]]" = field(default_factory=list)
    variants: "dict[str, dict]" = field(default_factory=dict)  # name -> poly

    @property
    def comparable(self) -> bool:
        """Both sides extracted — the drift diff is meaningful."""
        return self.model is not None and self.allocation is not None

    @property
    def match(self) -> "bool | None":
        """Whether allocation equals model (``None`` when not comparable).

        ``expect_empty`` structures match when the builder holds no
        persistent scaled state at all — their model term is an
        amortised share of a shared buffer, not a per-node allocation.
        """
        if self.spec.expect_empty:
            if self.allocation is None:
                return None
            return not self.allocation
        if not self.comparable:
            return None
        return polys_equal(self.model, self.allocation)

    def to_dict(self) -> dict:
        """JSON-ready payload for ``memory-contracts.json``."""
        return {
            "name": self.spec.name,
            "module": self.spec.module,
            "symbol": self.spec.symbol,
            "model": None if self.model is None else render_poly(self.model),
            "allocation": (
                None if self.allocation is None else render_poly(self.allocation)
            ),
            "match": self.match,
            "terms": poly_terms(
                self.allocation
                if self.allocation is not None
                else parse_poly(self.spec.declared_alloc)
                if self.spec.declared_alloc
                else {}
            ),
            "variants": {
                name: {"expr": render_poly(poly), "terms": poly_terms(poly)}
                for name, poly in sorted(self.variants.items())
            },
            "sites": [site.to_dict() for site in self.sites],
            "note": self.spec.note,
        }


@dataclass
class MccProgram:
    """Everything the MCC rules need, extracted in one sweep."""

    sources: dict[str, SourceFile]
    #: module_path -> source, for spec-module lookup (fixtures impersonate
    #: real modules through ``# reprolint: module=`` directives).
    by_module: dict[str, SourceFile]
    structures: dict[str, StructureContract]


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def find_class(src: SourceFile, name: str) -> "ast.ClassDef | None":
    """Top-level (or nested) class definition named ``name``."""
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def find_symbol(src: SourceFile, qualname: str):
    """Resolve ``Class.method``/``function``/``Class`` to its AST node."""
    if "." in qualname:
        cls_name, _, meth = qualname.partition(".")
        cls = find_class(src, cls_name)
        if cls is None:
            return None
        for node in cls.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == meth
            ):
                return node
        return None
    for node in src.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == qualname:
            return node
    return find_class(src, qualname)


def _last_return(func: ast.FunctionDef) -> "ast.Return | None":
    last = None
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            last = node
    return last


# ----------------------------------------------------------------------
# builder-side extraction
# ----------------------------------------------------------------------
class _BuilderExtractor:
    """Sums the persistent allocation bytes of one builder function.

    Persistence: a site counts only when its value is stored on ``self``
    (directly or through a local later assigned to an attribute) or
    referenced from a ``return`` — transient scratch (worklists, the
    normalised copy of the input weights) is free by design, exactly as
    the paper's Table 1 counts only held state.
    """

    def __init__(
        self,
        src: SourceFile,
        spec: StructureSpec,
        resolve: "Callable[[str], dict]",
    ) -> None:
        self.src = src
        self.spec = spec
        self.resolve = resolve
        self.env = {name: poly_sym(sym) for name, sym in spec.dims}
        self.call_dims = dict(spec.call_dims)
        self.sites: list[AllocationSite] = []
        self.problems: list[tuple[str, int, str]] = []
        self._persistent_names: set[str] = set()
        self._persistent_nodes: set[int] = set()

    # -- persistence pre-pass ------------------------------------------
    def _collect_persistence(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    value = node.value
                    self._persistent_nodes.add(id(value))
                    if isinstance(value, ast.Name):
                        self._persistent_names.add(value.id)
            if isinstance(node, ast.Return) and node.value is not None:
                self._persistent_nodes.add(id(node.value))
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        self._persistent_names.add(sub.id)

    def _is_persistent(self, stmt: ast.stmt, value: ast.expr) -> bool:
        if id(value) in self._persistent_nodes:
            return True
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        return any(
            isinstance(t, ast.Name) and t.id in self._persistent_names
            for t in targets
        )

    # -- allocation expression sizing ----------------------------------
    def _dim_of(self, node: ast.expr):
        return eval_expr(node, self.env, call_dims=self.call_dims)

    def _problem(self, node: ast.AST, message: str) -> None:
        self.problems.append(
            (self.src.display_path, getattr(node, "lineno", 1), message)
        )

    def _itemsize_poly(self, node: ast.Call, tail: str):
        token = _dtype_token(node) or _BUILDER_ALLOC_DEFAULTS[tail]
        if token == "<dynamic>":
            self._problem(node, "cannot resolve allocation dtype statically")
            return None
        if token not in _DTYPE_WIDTHS:
            self._problem(node, f"unknown allocation dtype {token!r}")
            return None
        sym, width = _DTYPE_WIDTHS[token]
        if width != ITEMSIZE[sym]:
            self._problem(
                node,
                f"allocation dtype {token} ({width} bytes) drifts from the "
                f"contract itemsize {sym}={ITEMSIZE[sym]}",
            )
        return poly_sym(sym)

    def _count_of_alloc(self, node: ast.Call, tail: str):
        if not node.args:
            return None
        first = node.args[0]
        if tail in _LENGTH_OF_ARG:
            if isinstance(first, (ast.List, ast.Tuple)):
                return poly_const(len(first.elts))
            if isinstance(first, (ast.ListComp, ast.GeneratorExp)):
                return self._comp_multiplier(first)
            return self._dim_of(first)
        if tail == "arange" and len(node.args) >= 2:
            start = self._dim_of(node.args[0])
            stop = self._dim_of(node.args[1])
            if start is None or stop is None:
                return None
            return poly_add(stop, poly_scale(start, -1.0))
        if isinstance(first, ast.Tuple):
            total = poly_const(1.0)
            for elt in first.elts:
                dim = self._dim_of(elt)
                if dim is None:
                    return None
                total = poly_mul(total, dim)
            return total
        return self._dim_of(first)

    def _comp_multiplier(self, comp: "ast.ListComp | ast.GeneratorExp"):
        if len(comp.generators) != 1 or comp.generators[0].ifs:
            return None
        return self._dim_of(comp.generators[0].iter)

    def _alloc_poly(self, node: ast.expr) -> "tuple[dict | None, str | None]":
        """``(bytes-poly, kind)`` of an allocation expression, else
        ``(None, None)``; ``(None, kind)`` flags an unsizeable site."""
        if isinstance(node, ast.Call):
            tail = dotted_name(node.func).rsplit(".", 1)[-1]
            if tail in _SUBSTRUCTURE_CLASSES:
                if not node.args:
                    return None, None
                dim = self._dim_of(node.args[0])
                if dim is None:
                    self._problem(
                        node, f"cannot size nested {tail} construction"
                    )
                    return None, "substructure"
                ref = self.resolve(_SUBSTRUCTURE_CLASSES[tail])
                return substitute_sym(ref, "d", dim), "substructure"
            if tail in _BUILDER_ALLOC_DEFAULTS:
                count = self._count_of_alloc(node, tail)
                if count is None:
                    self._problem(
                        node,
                        f"cannot size persistent allocation `{tail}(...)` "
                        "— declare its dim in the structure spec",
                    )
                    return None, "ndarray"
                itemsize = self._itemsize_poly(node, tail)
                if itemsize is None:
                    return None, "ndarray"
                return poly_mul(count, itemsize), "ndarray"
            return None, None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            inner, kind = self._alloc_poly(node.elt)
            if kind is None:
                return None, None
            multiplier = self._comp_multiplier(node)
            if inner is None or multiplier is None:
                self._problem(node, "cannot size allocation fan-out")
                return None, "fanout"
            return poly_mul(multiplier, inner), "fanout"
        return None, None

    # -- statement / block walk ----------------------------------------
    def _stmt_poly(self, stmt: ast.stmt):
        value: "ast.expr | None" = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            value = stmt.value
        elif isinstance(stmt, ast.Return):
            value = stmt.value
        if value is None:
            return {}
        if not self._is_persistent(stmt, value):
            # Transient scratch (worklists, cumulative-sum buffers fed
            # straight into a pick) is free by design: Table 1 counts
            # only held state, so unsizeable transients are not problems.
            return {}
        poly, kind = self._alloc_poly(value)
        if kind is None or poly is None:
            return {}
        self.sites.append(
            AllocationSite(
                path=self.src.display_path,
                line=value.lineno,
                col=value.col_offset + 1,
                kind=kind,
                expr=render_poly(poly),
            )
        )
        return poly

    def _block_poly(self, stmts: Iterable[ast.stmt]):
        total: dict = {}
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                branch = poly_max(
                    self._block_poly(stmt.body), self._block_poly(stmt.orelse)
                )
                total = poly_add(total, branch)
            elif isinstance(stmt, (ast.For, ast.While)):
                body = list(stmt.body) + list(stmt.orelse)
                inner = self._block_poly(body)
                if inner:
                    multiplier = (
                        self._dim_of(stmt.iter)
                        if isinstance(stmt, ast.For)
                        else None
                    )
                    if multiplier is None:
                        self._problem(
                            stmt,
                            "persistent allocation inside a loop with "
                            "unknown trip count",
                        )
                    else:
                        total = poly_add(total, poly_mul(multiplier, inner))
            elif isinstance(stmt, ast.With):
                total = poly_add(total, self._block_poly(stmt.body))
            elif isinstance(stmt, ast.Try):
                body = list(stmt.body) + list(stmt.finalbody)
                total = poly_add(total, self._block_poly(body))
            else:
                total = poly_add(total, self._stmt_poly(stmt))
        return total

    # -- entry points ---------------------------------------------------
    def extract_function(self, func: ast.FunctionDef):
        self._collect_persistence(func)
        total = self._block_poly(func.body)
        for param, structure in self.spec.carried:
            params = {
                a.arg
                for a in func.args.posonlyargs
                + func.args.args
                + func.args.kwonlyargs
            }
            if param in params:
                carried = substitute_sym(self.resolve(structure), "d", poly_sym("d"))
                total = poly_add(total, carried)
                self.sites.append(
                    AllocationSite(
                        path=self.src.display_path,
                        line=func.lineno,
                        col=func.col_offset + 1,
                        kind="carried",
                        expr=render_poly(carried),
                    )
                )
        return total

    def extract_class(self, cls: ast.ClassDef):
        total: dict = {}
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_persistence(node)
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                total = poly_add(total, self._block_poly(node.body))
        return total


# ----------------------------------------------------------------------
# whole-program extraction
# ----------------------------------------------------------------------
def _module_source(
    sources: Mapping[str, SourceFile], module: str
) -> "SourceFile | None":
    for src in sources.values():
        if src.module_path == module:
            return src
    return None


def _extract_model(
    src: SourceFile,
    spec: StructureSpec,
    resolve: "Callable[[str], dict]",
) -> "tuple[dict | None, int, list[tuple[str, int, str]]]":
    node = find_symbol(src, spec.model_symbol or "")
    if not isinstance(node, ast.FunctionDef):
        return (
            None,
            0,
            [
                (
                    src.display_path,
                    1,
                    f"model formula {spec.model_symbol!r} not found in "
                    f"{spec.model_module}",
                )
            ],
        )
    ret = _last_return(node)
    if ret is None or ret.value is None:
        return (
            None,
            node.lineno,
            [(src.display_path, node.lineno, "model formula has no return")],
        )
    env = {name: poly_sym(sym) for name, sym in spec.model_env}
    call_subs = {
        tail: resolve(structure) for tail, structure in spec.model_call_subs
    }
    poly = eval_expr(ret.value, env, call_subs=call_subs)
    if poly is None:
        return (
            None,
            node.lineno,
            [
                (
                    src.display_path,
                    ret.lineno,
                    "cannot evaluate model formula symbolically",
                )
            ],
        )
    return poly, node.lineno, []


def build_mcc_program(sources: dict[str, SourceFile]) -> MccProgram:
    """Extract both sides of every structure contract from one lint run.

    Structures whose builder or model module is absent from the run are
    left partially extracted (``comparable`` False); the rules skip them,
    so fixture runs exercise exactly the structures they impersonate.
    """
    by_module: dict[str, SourceFile] = {}
    for src in sources.values():
        by_module.setdefault(src.module_path, src)

    structures: dict[str, StructureContract] = {}

    def resolve(name: str):
        contract = structures.get(name)
        if contract is not None and contract.allocation is not None:
            return contract.allocation
        spec = next((s for s in STRUCTURE_SPECS if s.name == name), None)
        if spec is not None and spec.declared_alloc:
            return parse_poly(spec.declared_alloc)
        return {}

    for spec in STRUCTURE_SPECS:
        contract = StructureContract(spec=spec)
        builder_src = by_module.get(spec.module)

        if spec.model_module is None and spec.declared_alloc is not None:
            # Declared-only structure: its contract of record is the
            # declared expression, verified structurally (MCC204/MCC205)
            # and at runtime (MSan) rather than by builder extraction.
            if builder_src is not None:
                node = find_symbol(builder_src, spec.symbol)
                if node is None:
                    contract.problems.append(
                        (
                            builder_src.display_path,
                            1,
                            f"declared structure {spec.symbol!r} not found "
                            f"in {spec.module} — the contract registry is "
                            "stale",
                        )
                    )
                else:
                    contract.builder_path = builder_src.display_path
                    contract.builder_line = node.lineno
                declared = parse_poly(spec.declared_alloc)
                contract.allocation = declared
                contract.model = declared
            for name, expr in spec.variants:
                contract.variants[name] = parse_poly(expr)
            structures[spec.name] = contract
            continue

        if builder_src is not None:
            node = find_symbol(builder_src, spec.symbol)
            if node is None:
                contract.problems.append(
                    (
                        builder_src.display_path,
                        1,
                        f"builder {spec.symbol!r} not found in {spec.module} "
                        "— the contract registry is stale",
                    )
                )
            else:
                contract.builder_path = builder_src.display_path
                contract.builder_line = node.lineno
                extractor = _BuilderExtractor(builder_src, spec, resolve)
                if isinstance(node, ast.ClassDef):
                    poly = extractor.extract_class(node)
                else:
                    poly = extractor.extract_function(node)
                contract.sites = extractor.sites
                contract.problems.extend(extractor.problems)
                contract.allocation = poly
                if spec.expect_empty and poly:
                    contract.problems.append(
                        (
                            builder_src.display_path,
                            node.lineno,
                            f"{spec.name} must hold no persistent scaled "
                            f"state but allocates {render_poly(poly)}",
                        )
                    )

        if spec.model_module is not None:
            model_src = by_module.get(spec.model_module)
            if model_src is not None:
                poly, line, problems = _extract_model(model_src, spec, resolve)
                contract.model = poly
                contract.model_path = model_src.display_path
                contract.model_line = line
                # Model-side problems only matter when the builder side is
                # present too — a fixture run impersonating the builder
                # module alone must stay silent.
                if builder_src is not None:
                    contract.problems.extend(problems)
        elif spec.declared_alloc is not None and builder_src is not None:
            contract.model = parse_poly(spec.declared_alloc)

        for name, expr in spec.variants:
            contract.variants[name] = parse_poly(expr)

        structures[spec.name] = contract

    return MccProgram(
        sources=sources, by_module=by_module, structures=structures
    )


# ----------------------------------------------------------------------
# memory-contracts.json
# ----------------------------------------------------------------------
def contracts_payload(program: MccProgram) -> dict:
    """The ``memory-contracts.json`` payload (deterministic ordering)."""
    return {
        "version": 1,
        "itemsize": dict(sorted(ITEMSIZE.items())),
        "structures": [
            program.structures[name].to_dict()
            for name in sorted(program.structures)
        ],
    }


def render_memory_contracts_json(payload: dict) -> str:
    """Serialise the payload exactly as the committed file stores it."""
    import json

    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
