"""Kernel contract extraction for the ``reprokcc`` checker.

The seven step-centric kernels promise a *rigid boundary*: flat arrays +
pre-drawn uniforms + the ``xp`` handle first, sentinel error returns,
identical signatures across backends (minus ``xp``, which compiled
backends have no use for).  That promise is written down in docstrings
and — since this module exists — **derived from the source**: the
reference backend's annotated signatures are parsed into
:class:`KernelContract` records that

* the parity pass (KCC101) diffs against every other backend module,
* the abstract interpreter (KCC102) seeds its dtype/shape environment
  from,
* the uniform-draw accounting pass (KCC105) uses to bound how many
  uniform arrays each ``kernel_scope`` block must pre-draw, and
* ``kernel-contracts.json`` serialises for a future backend (the CuPy
  port in the roadmap) to implement against.

Symbolic shape dims come from ``# kcc: dims=param:DIM,...`` directives
next to each kernel definition — the one piece of the contract Python
annotations cannot carry.  Dims are single uppercase letters by
convention (``W`` walkers, ``G`` groups, ``E`` gathered edges, ``N``
nodes, ``T`` flat table slots).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable

from ..lint.engine import SourceFile, dotted_name, has_decorator

#: module_path pattern identifying a kernel backend module.
_BACKEND_MODULE = re.compile(r"(?:^|/)walks/kernels/(?P<name>\w+)_backend\.py$")

#: the backend whose annotated signatures *are* the contract.
REFERENCE_BACKEND = "numpy"

#: ``# kcc: dims=a:W,b:G`` — symbolic shape declaration for one kernel.
_DIMS_DIRECTIVE = re.compile(r"#\s*kcc:\s*dims\s*=\s*([\w:,\s]+)")

#: generator methods that consume the chunk RNG stream (mirrors the
#: reproflow draw-method list; kept local so kcc has no flow dependency).
DRAW_METHODS = {
    "random",
    "integers",
    "choice",
    "uniform",
    "normal",
    "standard_normal",
    "exponential",
    "standard_exponential",
    "geometric",
    "poisson",
    "binomial",
    "multinomial",
    "gamma",
    "standard_gamma",
    "beta",
    "shuffle",
    "permutation",
    "permuted",
    "bytes",
}

#: parameter names conventionally carrying the chunk generator, plus the
#: constructors whose result is one.
_GEN_PARAM_NAMES = {"gen", "rng", "generator"}
_GEN_CONSTRUCTORS = {"ensure_rng", "spawn_rng", "make_chunk_rng", "default_rng"}

_DTYPE_TOKENS = {
    "bool": "bool",
    "bool_": "bool",
    "int32": "int32",
    "int64": "int64",
    "intp": "int64",
    "int": "int64",
    "float32": "float32",
    "float64": "float64",
    "float": "float64",
}


def normalise_annotation(node: "ast.expr | None") -> str:
    """Canonical text of an annotation, independent of import aliases.

    ``npt.NDArray[np.float64]``, ``numpy.typing.NDArray[numpy.float64]``
    and ``np.typing.NDArray[np.float64]`` all normalise to
    ``NDArray[float64]`` so the parity diff compares *meaning*, not the
    module's import style.
    """
    if node is None:
        return ""
    text = ast.unparse(node).replace('"', "").replace("'", "")
    text = re.sub(r"\b(?:numpy\.typing|np\.typing|npt)\.NDArray\b", "NDArray", text)
    text = re.sub(r"\b(?:numpy|np)\.", "", text)
    text = text.replace("bool_", "bool")
    return re.sub(r"\s+", " ", text)


def _annotation_dtype(annotation: str) -> tuple[str, str]:
    """``(dtype, kind)`` implied by a normalised annotation string."""
    match = re.fullmatch(r"NDArray\[(\w+)\]", annotation)
    if match:
        return _DTYPE_TOKENS.get(match.group(1), "unknown"), "array"
    if annotation == "ndarray":
        return "unknown", "array"
    if annotation in _DTYPE_TOKENS:
        return _DTYPE_TOKENS[annotation], "scalar"
    return "unknown", "other"


@dataclass(frozen=True)
class ParamContract:
    """One kernel parameter: name, role, dtype, and symbolic dim."""

    name: str
    role: str  # "xp" | "array" | "uniform" | "scalar"
    dtype: str  # "bool" | "int32" | "int64" | "float32" | "float64" | "unknown" | ""
    dim: "str | None"
    annotation: str

    def to_dict(self) -> dict:
        """JSON-ready payload for ``kernel-contracts.json``."""
        return {
            "name": self.name,
            "role": self.role,
            "dtype": self.dtype,
            "dim": self.dim,
            "annotation": self.annotation,
        }


@dataclass(frozen=True)
class KernelContract:
    """The derived signature contract of one reference kernel."""

    name: str
    params: tuple[ParamContract, ...]
    returns: str
    return_dtypes: tuple[str, ...]
    sentinel: bool
    mutates: tuple[str, ...]
    line: int

    @property
    def uniform_params(self) -> tuple[str, ...]:
        """Names of the pre-drawn uniform parameters, in order."""
        return tuple(p.name for p in self.params if p.role == "uniform")

    @property
    def engine_params(self) -> tuple[ParamContract, ...]:
        """Parameters minus ``xp`` — the engine-facing arity every
        backend (whose loader binds or omits the handle) shares."""
        return tuple(p for p in self.params if p.role != "xp")

    def to_dict(self) -> dict:
        """JSON-ready payload for ``kernel-contracts.json``."""
        return {
            "name": self.name,
            "params": [p.to_dict() for p in self.params],
            "returns": self.returns,
            "sentinel": self.sentinel,
            "mutates": list(self.mutates),
            "uniform_params": list(self.uniform_params),
        }


@dataclass
class BackendModule:
    """One ``walks/kernels/*_backend.py`` module found in the lint run."""

    name: str
    src: SourceFile
    functions: dict[str, ast.FunctionDef]
    kernel_names: "tuple[str, ...] | None"  # the KERNEL_NAMES literal
    dims: dict[str, dict[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ScopeSite:
    """One ``with kernel_scope(name)`` block and its chunk-RNG draws."""

    path: str
    function: str
    scope: str
    draws: int
    line: int

    def to_dict(self) -> dict:
        """JSON-ready payload for ``kernel-contracts.json``."""
        return {
            "path": self.path,
            "function": self.function,
            "scope": self.scope,
            "draws": self.draws,
        }


@dataclass(frozen=True)
class KernelCallSite:
    """One driver-side invocation of a contract kernel."""

    path: str
    function: str
    kernel: str
    line: int
    col: int
    #: (param_name, argument_name) for each uniform-role position whose
    #: argument is a plain name; non-name arguments are not traced.
    uniform_args: tuple[tuple[str, str], ...]


@dataclass
class KccProgram:
    """Everything the KCC rules need, extracted in one sweep."""

    sources: dict[str, SourceFile]
    reference: "BackendModule | None"
    backends: dict[str, BackendModule]
    contracts: dict[str, KernelContract]
    scopes: list[ScopeSite]
    calls: list[KernelCallSite]
    #: (path, function, name) -> scope the name was drawn under
    #: (``None`` when the draw happened outside any kernel_scope).
    drawn: dict[tuple[str, str, str], "str | None"]


def _parse_dims(src: SourceFile, func: ast.FunctionDef) -> dict[str, str]:
    """``param -> dim`` from ``# kcc: dims=`` lines inside ``func``."""
    dims: dict[str, str] = {}
    end = func.end_lineno or func.lineno
    for lineno in range(func.lineno, end + 1):
        match = _DIMS_DIRECTIVE.search(src.line_text(lineno))
        if match is None:
            continue
        for pair in match.group(1).split(","):
            if ":" in pair:
                param, _, dim = pair.partition(":")
                dims[param.strip()] = dim.strip()
    return dims


def _kernel_names_literal(tree: ast.Module) -> "tuple[str, ...] | None":
    """The ``KERNEL_NAMES = (...)`` string tuple, when present."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "KERNEL_NAMES" not in targets:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            names = []
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.append(elt.value)
            return tuple(names)
    return None


def _mutated_params(func: ast.FunctionDef) -> tuple[str, ...]:
    """Parameters written through subscript stores — in-place outputs."""
    params = {a.arg for a in func.args.posonlyargs + func.args.args}
    out: list[str] = []
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in params
                and target.value.id not in out
            ):
                out.append(target.value.id)
    return tuple(out)


def _return_dtypes(returns: str) -> tuple[str, ...]:
    """Per-element dtype expectations parsed from a return annotation."""
    if not returns or returns == "None":
        return ()
    inner = returns
    if returns.startswith("tuple[") and returns.endswith("]"):
        inner = returns[len("tuple[") : -1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i].strip())
                start = i + 1
        parts.append(inner[start:].strip())
        return tuple(_annotation_dtype(p)[0] for p in parts)
    return (_annotation_dtype(inner)[0],)


def derive_contract(
    src: SourceFile, func: ast.FunctionDef, dims: dict[str, str]
) -> KernelContract:
    """Parse one reference kernel definition into its contract."""
    params: list[ParamContract] = []
    for index, arg in enumerate(func.args.posonlyargs + func.args.args):
        annotation = normalise_annotation(arg.annotation)
        dtype, kind = _annotation_dtype(annotation)
        if index == 0 and arg.arg == "xp":
            role, dtype = "xp", ""
        elif kind == "array" and (
            arg.arg == "uniforms" or arg.arg.startswith("u_")
        ):
            role = "uniform"
        elif kind == "array":
            role = "array"
        else:
            role = "scalar"
        params.append(
            ParamContract(
                name=arg.arg,
                role=role,
                dtype=dtype,
                dim=dims.get(arg.arg),
                annotation=annotation,
            )
        )
    returns = normalise_annotation(func.returns)
    return KernelContract(
        name=func.name,
        params=tuple(params),
        returns=returns,
        return_dtypes=_return_dtypes(returns),
        sentinel=returns.startswith("tuple[") and returns.endswith("int]"),
        mutates=_mutated_params(func),
        line=func.lineno,
    )


def _collect_backend_modules(
    sources: dict[str, SourceFile],
) -> dict[str, BackendModule]:
    """Every backend module in the run, keyed by backend name."""
    out: dict[str, BackendModule] = {}
    for src in sources.values():
        match = _BACKEND_MODULE.search(src.module_path)
        if match is None:
            continue
        functions = {
            node.name: node
            for node in src.tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
        }
        module = BackendModule(
            name=match.group("name"),
            src=src,
            functions=functions,
            kernel_names=_kernel_names_literal(src.tree),
        )
        module.dims = {
            name: _parse_dims(src, func) for name, func in functions.items()
        }
        out[module.name] = module
    return out


class _DriverScanner(ast.NodeVisitor):
    """One-pass scan of a driver function for scopes, draws and calls."""

    def __init__(
        self,
        src: SourceFile,
        function: str,
        gen_names: set[str],
        kernel_names: set[str],
    ) -> None:
        self.src = src
        self.function = function
        self.gen_names = gen_names
        self.kernel_names = kernel_names
        self.scope_stack: list[str] = []
        self.scope_draws: dict[int, int] = {}  # id(with-node) -> count
        self.scopes: list[ScopeSite] = []
        self.calls: list[KernelCallSite] = []
        self.drawn: dict[str, "str | None"] = {}

    def _current_scope(self) -> "str | None":
        return self.scope_stack[-1] if self.scope_stack else None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are scanned as their own driver functions

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    @staticmethod
    def _scope_name(item: ast.withitem) -> "str | None":
        call = item.context_expr
        if not isinstance(call, ast.Call):
            return None
        if not dotted_name(call.func).endswith("kernel_scope"):
            return None
        if call.args and isinstance(call.args[0], ast.Constant):
            value = call.args[0].value
            if isinstance(value, str):
                return value
        return ""

    def visit_With(self, node: ast.With) -> None:
        scope = None
        for item in node.items:
            scope = self._scope_name(item)
            if scope is not None:
                break
        if scope is None:
            self.generic_visit(node)
            return
        self.scope_stack.append(scope)
        self.scope_draws[id(node)] = 0
        for child in node.body:
            self.visit(child)
        self.scope_stack.pop()
        self.scopes.append(
            ScopeSite(
                path=self.src.display_path,
                function=self.function,
                scope=scope,
                draws=self.scope_draws.pop(id(node)),
                line=node.lineno,
            )
        )

    def _is_chunk_draw(self, node: ast.Call) -> bool:
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in DRAW_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.gen_names
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call) and self._is_chunk_draw(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.drawn[target.id] = self._current_scope()
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_chunk_draw(node) and self.scope_draws:
            # ``scope_draws`` holds only currently-open blocks (popped on
            # exit), so the last key is the innermost enclosing scope.
            self.scope_draws[next(reversed(self.scope_draws))] += 1
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self.kernel_names
        ):
            self.calls.append(
                KernelCallSite(
                    path=self.src.display_path,
                    function=self.function,
                    kernel=func.attr,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    uniform_args=(),  # filled by the caller with contracts
                )
            )
        self.generic_visit(node)


def _function_gen_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound to the chunk generator inside ``func``."""
    names = {
        a.arg
        for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        if a.arg in _GEN_PARAM_NAMES
    }
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        callee = dotted_name(value.func)
        if callee.rsplit(".", 1)[-1] in _GEN_CONSTRUCTORS:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _attach_uniform_args(
    calls: list[KernelCallSite],
    call_nodes: dict[tuple[str, int, int], ast.Call],
    contracts: dict[str, KernelContract],
) -> list[KernelCallSite]:
    """Resolve which argument names fill each call's uniform positions."""
    out: list[KernelCallSite] = []
    for site in calls:
        contract = contracts.get(site.kernel)
        node = call_nodes.get((site.path, site.line, site.col))
        if contract is None or node is None:
            out.append(site)
            continue
        engine_params = contract.engine_params
        pairs: list[tuple[str, str]] = []
        for position, arg in enumerate(node.args):
            if position >= len(engine_params):
                break
            param = engine_params[position]
            if param.role == "uniform" and isinstance(arg, ast.Name):
                pairs.append((param.name, arg.id))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            match = next(
                (p for p in engine_params if p.name == keyword.arg), None
            )
            if (
                match is not None
                and match.role == "uniform"
                and isinstance(keyword.value, ast.Name)
            ):
                pairs.append((match.name, keyword.value.id))
        out.append(
            KernelCallSite(
                path=site.path,
                function=site.function,
                kernel=site.kernel,
                line=site.line,
                col=site.col,
                uniform_args=tuple(pairs),
            )
        )
    return out


def build_kcc_program(sources: dict[str, SourceFile]) -> KccProgram:
    """Extract contracts, scopes, draws and kernel calls from a run."""
    backends = _collect_backend_modules(sources)
    reference = backends.pop(REFERENCE_BACKEND, None)

    contracts: dict[str, KernelContract] = {}
    if reference is not None:
        for name, func in reference.functions.items():
            if has_decorator(func, "hot_path"):
                contracts[name] = derive_contract(
                    reference.src, func, reference.dims.get(name, {})
                )

    kernel_names = set(contracts)
    scopes: list[ScopeSite] = []
    calls: list[KernelCallSite] = []
    drawn: dict[tuple[str, str, str], "str | None"] = {}
    call_nodes: dict[tuple[str, int, int], ast.Call] = {}

    backend_paths = {m.src.display_path for m in backends.values()}
    if reference is not None:
        backend_paths.add(reference.src.display_path)

    for src in sources.values():
        if src.display_path in backend_paths:
            continue  # kernels never call kernels; drivers only
        for func in _walk_named_functions(src.tree):
            qualname = src.enclosing_symbol(func.body[0].lineno) or func.name
            scanner = _DriverScanner(
                src, qualname, _function_gen_names(func), kernel_names
            )
            for stmt in func.body:
                scanner.visit(stmt)
            scopes.extend(scanner.scopes)
            calls.extend(scanner.calls)
            for name, scope in scanner.drawn.items():
                drawn[(src.display_path, qualname, name)] = scope
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    key = (src.display_path, node.lineno, node.col_offset + 1)
                    call_nodes.setdefault(key, node)

    calls = _attach_uniform_args(calls, call_nodes, contracts)
    scopes.sort(key=lambda s: (s.path, s.line))
    calls.sort(key=lambda c: (c.path, c.line, c.col))
    return KccProgram(
        sources=sources,
        reference=reference,
        backends=backends,
        contracts=contracts,
        scopes=scopes,
        calls=calls,
        drawn=drawn,
    )


def _walk_named_functions(
    tree: ast.Module,
) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def draws_per_call(program: KccProgram) -> dict[str, int]:
    """Static per-invocation chunk-RNG draw-call bound, by scope name.

    For a scope naming a contract kernel the bound *is* the kernel's
    uniform-parameter count; pseudo-scopes (driver-level attribution
    like ``walker_streams``) take the draw count observed at their
    (consistent) sites.  This is the table the DSan conformance test
    checks runtime per-kernel draw attribution against.
    """
    table: dict[str, int] = {
        name: len(contract.uniform_params)
        for name, contract in program.contracts.items()
    }
    for site in program.scopes:
        if site.scope not in program.contracts:
            table.setdefault(site.scope, site.draws)
    return table


def contracts_payload(program: KccProgram) -> dict:
    """The ``kernel-contracts.json`` payload (deterministic ordering)."""
    return {
        "version": 1,
        "reference": (
            program.reference.src.module_path
            if program.reference is not None
            else None
        ),
        "backends": sorted([REFERENCE_BACKEND, *program.backends])
        if program.reference is not None
        else sorted(program.backends),
        "kernels": [
            program.contracts[name].to_dict()
            for name in sorted(program.contracts)
        ],
        "scopes": [site.to_dict() for site in program.scopes],
        "draws_per_call": dict(sorted(draws_per_call(program).items())),
    }


def render_contracts_json(payload: dict) -> str:
    """Serialise the payload exactly as the committed file stores it."""
    import json

    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
