"""Dtype/shape abstract interpretation over kernel bodies (KCC102).

A deliberately small domain: the dtype lattice is ``bool``, ``int64``,
``float64`` plus ``unknown`` (the kernels only ever traffic in those
three concrete dtypes — the contract annotations pin them), and shapes
are single symbolic dims seeded from ``# kcc: dims=`` directives.  The
interpreter walks each kernel body once, statement by statement,
propagating an environment of :class:`AbstractValue` and emitting an
*event* wherever the arithmetic would silently change meaning on a
stricter backend:

* ``float-index`` — a subscript whose index expression is float-typed
  (numpy raises at runtime; a compiled kernel may happily truncate);
* ``implicit-cast`` — a store into a known-dtype buffer, or a return
  against the contract annotation, whose value dtype differs without an
  explicit ``astype``/``int()``/``float()`` cast;
* ``shape-mismatch`` — an elementwise combination of two arrays carrying
  *different* known symbolic dims.

Branches are interpreted on forked environments and joined (disagreeing
dtypes degrade to ``unknown`` — the analysis under-reports rather than
guesses).  Loops interpret their body once: the kernels are data-flow
simple enough that one pass reaches every store and return.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Callable

#: event callback: (node, category, message)
EmitFn = Callable[[ast.AST, str, str], None]

_NUMERIC = ("bool", "int64", "float64")

#: xp/np functions returning int64 arrays regardless of input dtype.
_INT_ARRAY_FUNCS = {"searchsorted", "argsort", "flatnonzero", "argmin", "argmax"}

#: xp/np functions whose result is always float64.
_FLOAT_FUNCS = {"sqrt", "exp", "log", "log2", "log10", "divide", "true_divide"}

_ALLOC_DEFAULT_FLOAT = {"empty", "zeros", "ones"}

_DTYPE_TOKENS = {
    "bool": "bool",
    "bool_": "bool",
    "int8": "int64",
    "int32": "int64",
    "int64": "int64",
    "intp": "int64",
    "int": "int64",
    "float32": "float64",
    "float64": "float64",
    "float": "float64",
}


@dataclass(frozen=True)
class AbstractValue:
    """One point of the abstract domain: dtype × kind × symbolic dim."""

    dtype: str = "unknown"  # bool | int64 | float64 | unknown
    kind: str = "other"  # array | scalar | tuple | module | shape | dtype | other
    dim: "str | None" = None
    elems: tuple = ()  # populated when kind == "tuple"

    @property
    def is_array(self) -> bool:
        """Whether this value denotes an ndarray (vs scalar/other)."""
        return self.kind == "array"


UNKNOWN = AbstractValue()


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound used at control-flow merges."""
    return AbstractValue(
        dtype=a.dtype if a.dtype == b.dtype else "unknown",
        kind=a.kind if a.kind == b.kind else "other",
        dim=a.dim if a.dim == b.dim else None,
    )


def _arith_dtype(a: str, b: str, *, division: bool = False) -> str:
    if division:
        return "float64" if a in _NUMERIC and b in _NUMERIC else "unknown"
    if a == "unknown" or b == "unknown":
        return "unknown"
    if "float64" in (a, b):
        return "float64"
    return "int64"  # bool arithmetic promotes to int64


class KernelInterpreter:
    """Abstract execution of one kernel function."""

    def __init__(
        self,
        env: dict[str, AbstractValue],
        expected_return: tuple[str, ...],
        emit: EmitFn,
    ) -> None:
        self.env = env
        self.expected_return = expected_return
        self.emit = emit

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval(self, node: "ast.expr | None") -> AbstractValue:
        """Abstract value of an expression (:data:`UNKNOWN` when opaque)."""
        if node is None:
            return UNKNOWN
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return UNKNOWN
        return method(node)

    def _eval_Constant(self, node: ast.Constant) -> AbstractValue:
        value = node.value
        if isinstance(value, bool):
            return AbstractValue("bool", "scalar")
        if isinstance(value, int):
            return AbstractValue("int64", "scalar")
        if isinstance(value, float):
            return AbstractValue("float64", "scalar")
        return UNKNOWN

    def _eval_Name(self, node: ast.Name) -> AbstractValue:
        return self.env.get(node.id, UNKNOWN)

    def _eval_Tuple(self, node: ast.Tuple) -> AbstractValue:
        return AbstractValue(
            kind="tuple", elems=tuple(self.eval(e) for e in node.elts)
        )

    _eval_List = _eval_Tuple

    def _combine(
        self,
        node: ast.AST,
        values: list[AbstractValue],
        dtype: "str | None" = None,
        *,
        division: bool = False,
    ) -> AbstractValue:
        """Elementwise combination: dtype promotion + dim agreement."""
        out_dtype = dtype
        if out_dtype is None:
            if division and len(values) >= 2:
                out_dtype = _arith_dtype(
                    values[0].dtype, values[1].dtype, division=True
                )
            else:
                out_dtype = values[0].dtype if values else "unknown"
                for value in values[1:]:
                    out_dtype = _arith_dtype(out_dtype, value.dtype)
        arrays = [v for v in values if v.is_array]
        dims = {v.dim for v in arrays if v.dim is not None}
        if len(dims) > 1:
            self.emit(
                node,
                "shape-mismatch",
                "elementwise combination of arrays with different "
                f"symbolic dims {sorted(dims)}",
            )
            out_dim = None
        else:
            out_dim = next(iter(dims)) if dims else None
        kind = "array" if arrays else "scalar"
        return AbstractValue(out_dtype, kind, out_dim)

    def _eval_BinOp(self, node: ast.BinOp) -> AbstractValue:
        left, right = self.eval(node.left), self.eval(node.right)
        division = isinstance(node.op, ast.Div)
        return self._combine(node, [left, right], division=division)

    def _eval_BoolOp(self, node: ast.BoolOp) -> AbstractValue:
        values = [self.eval(v) for v in node.values]
        return self._combine(node, values, dtype="bool")

    def _eval_Compare(self, node: ast.Compare) -> AbstractValue:
        values = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
        return self._combine(node, values, dtype="bool")

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> AbstractValue:
        operand = self.eval(node.operand)
        if isinstance(node.op, ast.Not):
            return replace(operand, dtype="bool")
        return operand

    def _eval_IfExp(self, node: ast.IfExp) -> AbstractValue:
        self.eval(node.test)
        return join(self.eval(node.body), self.eval(node.orelse))

    def _eval_Subscript(self, node: ast.Subscript) -> AbstractValue:
        base = self.eval(node.value)
        if isinstance(node.slice, ast.Slice):
            for part in (node.slice.lower, node.slice.upper, node.slice.step):
                self._check_index(node, self.eval(part))
            if base.is_array:
                return AbstractValue(base.dtype, "array", None)
            return UNKNOWN
        index = self.eval(node.slice)
        self._check_index(node, index)
        if base.kind == "shape":
            return AbstractValue("int64", "scalar")
        if base.kind == "tuple":
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, int
            ):
                i = node.slice.value
                if 0 <= i < len(base.elems):
                    return base.elems[i]
            return UNKNOWN
        if base.is_array:
            if index.is_array:
                return AbstractValue(base.dtype, "array", index.dim)
            return AbstractValue(base.dtype, "scalar")
        return UNKNOWN

    def _check_index(self, node: ast.AST, index: AbstractValue) -> None:
        if index.dtype == "float64":
            self.emit(
                node,
                "float-index",
                "indexing with a float-typed expression "
                "(fancy indexing requires integer or boolean indices)",
            )

    def _eval_Attribute(self, node: ast.Attribute) -> AbstractValue:
        if node.attr == "shape":
            return AbstractValue("int64", "shape")
        if node.attr in ("size", "ndim"):
            return AbstractValue("int64", "scalar")
        if node.attr in _DTYPE_TOKENS:
            return AbstractValue(_DTYPE_TOKENS[node.attr], "dtype")
        if node.attr == "T":
            return self.eval(node.value)
        return UNKNOWN

    # -- calls ----------------------------------------------------------
    def _dtype_of_arg(self, node: "ast.expr | None") -> str:
        if node is None:
            return "unknown"
        value = self.eval(node)
        if value.kind == "dtype":
            return value.dtype
        if isinstance(node, ast.Name) and node.id in _DTYPE_TOKENS:
            return _DTYPE_TOKENS[node.id]
        if isinstance(node, ast.Attribute) and node.attr in _DTYPE_TOKENS:
            return _DTYPE_TOKENS[node.attr]
        return "unknown"

    def _kwarg(self, node: ast.Call, name: str) -> "ast.expr | None":
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _eval_Call(self, node: ast.Call) -> AbstractValue:
        func = node.func
        args = [self.eval(a) for a in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value)

        if isinstance(func, ast.Name):
            if func.id == "int":
                return AbstractValue("int64", "scalar")
            if func.id == "float":
                return AbstractValue("float64", "scalar")
            if func.id == "bool":
                return AbstractValue("bool", "scalar")
            if func.id == "len":
                return AbstractValue("int64", "scalar")
            if func.id == "range":
                return AbstractValue("int64", "range")
            if func.id in ("min", "max", "abs"):
                return self._combine(node, args) if args else UNKNOWN
            return UNKNOWN

        if not isinstance(func, ast.Attribute):
            return UNKNOWN

        receiver = self.eval(func.value)
        name = func.attr

        # dtype constructors: np.int64(0), xp.float64(x)
        if name in _DTYPE_TOKENS and isinstance(
            func.value, ast.Name
        ):
            return AbstractValue(_DTYPE_TOKENS[name], "scalar")

        # array/scalar *methods*
        if receiver.kind in ("array", "scalar"):
            if name == "astype":
                target = self._dtype_of_arg(
                    node.args[0] if node.args else self._kwarg(node, "dtype")
                )
                return AbstractValue(target, receiver.kind, receiver.dim)
            if name == "copy":
                return receiver
            if name in ("sum", "min", "max", "prod", "item"):
                dtype = receiver.dtype
                if name == "sum" and dtype == "bool":
                    dtype = "int64"
                return AbstractValue(dtype, "scalar")
            if name == "cumsum":
                dtype = "int64" if receiver.dtype == "bool" else receiver.dtype
                return AbstractValue(dtype, "array", receiver.dim)
            return UNKNOWN

        # module-level xp./np. functions
        return self._eval_module_call(node, name, args)

    def _eval_module_call(
        self, node: ast.Call, name: str, args: list[AbstractValue]
    ) -> AbstractValue:
        dtype_arg = self._kwarg(node, "dtype")

        if name in _ALLOC_DEFAULT_FLOAT:
            positional = node.args[1] if len(node.args) > 1 else None
            dtype = self._dtype_of_arg(dtype_arg or positional)
            if (dtype_arg or positional) is None:
                dtype = "float64"
            return AbstractValue(dtype, "array", None)
        if name == "full":
            positional = node.args[2] if len(node.args) > 2 else None
            explicit = dtype_arg or positional
            if explicit is not None:
                return AbstractValue(self._dtype_of_arg(explicit), "array", None)
            fill = args[1] if len(args) > 1 else UNKNOWN
            return AbstractValue(fill.dtype, "array", None)
        if name in ("empty_like", "zeros_like", "ones_like", "full_like"):
            dtype = (
                self._dtype_of_arg(dtype_arg)
                if dtype_arg is not None
                else (args[0].dtype if args else "unknown")
            )
            dim = args[0].dim if args else None
            return AbstractValue(dtype, "array", dim)
        if name == "arange":
            if dtype_arg is not None:
                return AbstractValue(self._dtype_of_arg(dtype_arg), "array", None)
            dtypes = {a.dtype for a in args}
            if dtypes <= {"int64", "bool"} and dtypes:
                return AbstractValue("int64", "array", None)
            if "float64" in dtypes:
                return AbstractValue("float64", "array", None)
            return AbstractValue("unknown", "array", None)
        if name == "cumsum":
            src = args[0] if args else UNKNOWN
            dtype = "int64" if src.dtype == "bool" else src.dtype
            return AbstractValue(dtype, "array", src.dim)
        if name in ("concatenate", "hstack", "stack"):
            elems = args[0].elems if args and args[0].kind == "tuple" else args
            dtype = elems[0].dtype if elems else "unknown"
            for value in elems[1:]:
                dtype = _arith_dtype(dtype, value.dtype)
            return AbstractValue(dtype, "array", None)
        if name in ("repeat", "tile"):
            src = args[0] if args else UNKNOWN
            return AbstractValue(src.dtype, "array", None)
        if name in _INT_ARRAY_FUNCS:
            dim = None
            if name == "searchsorted" and len(args) > 1:
                dim = args[1].dim
            elif name == "argsort" and args:
                dim = args[0].dim
            return AbstractValue("int64", "array", dim)
        if name == "clip":
            return self._combine(node, args)
        if name in ("minimum", "maximum", "fmin", "fmax", "mod", "power"):
            return self._combine(node, args)
        if name == "where":
            if len(args) == 3:
                branches = self._combine(node, args[1:])
                dims = {
                    v.dim for v in (args[0], branches) if v.is_array and v.dim
                }
                if len(dims) > 1:
                    self.emit(
                        node,
                        "shape-mismatch",
                        "where() condition and branches carry different "
                        f"symbolic dims {sorted(dims)}",
                    )
                return AbstractValue(
                    branches.dtype, "array", branches.dim or args[0].dim
                )
            return UNKNOWN
        if name == "unique":
            src = args[0] if args else UNKNOWN
            inverse = self._kwarg(node, "return_inverse")
            if inverse is not None:
                return AbstractValue(
                    kind="tuple",
                    elems=(
                        AbstractValue(src.dtype, "array", None),
                        AbstractValue("int64", "array", src.dim),
                    ),
                )
            return AbstractValue(src.dtype, "array", None)
        if name in _FLOAT_FUNCS:
            src = args[0] if args else UNKNOWN
            return AbstractValue("float64", src.kind if src.is_array else "scalar", src.dim)
        if name == "abs":
            return args[0] if args else UNKNOWN
        if name in ("sum", "min", "max", "dot"):
            src = args[0] if args else UNKNOWN
            dtype = "int64" if (name == "sum" and src.dtype == "bool") else src.dtype
            return AbstractValue(dtype, "scalar")
        if name in ("logical_and", "logical_or", "logical_not", "isfinite"):
            src = args[0] if args else UNKNOWN
            return AbstractValue("bool", "array" if src.is_array else "scalar", src.dim)
        return UNKNOWN

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def run(self, body: list[ast.stmt]) -> None:
        """Interpret a statement list in order, mutating the environment."""
        for stmt in body:
            self.exec(stmt)

    def exec(self, stmt: ast.stmt) -> None:
        """Interpret one statement (unknown statement kinds are no-ops)."""
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt)

    def _store(self, target: ast.expr, value: AbstractValue, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Tuple) and value.kind == "tuple":
            for elt, elem in zip(target.elts, value.elems):
                self._store(elt, elem, node)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._store(elt, UNKNOWN, node)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value)
            if not isinstance(target.slice, ast.Slice):
                self._check_index(target, self.eval(target.slice))
            if (
                base.is_array
                and base.dtype in _NUMERIC
                and value.dtype in _NUMERIC
                and base.dtype != value.dtype
            ):
                direction = (
                    "widening"
                    if _NUMERIC.index(value.dtype) < _NUMERIC.index(base.dtype)
                    else "narrowing"
                )
                self.emit(
                    node,
                    "implicit-cast",
                    f"implicit {direction} store: {value.dtype} value "
                    f"written into {base.dtype} buffer "
                    "(use an explicit astype/int()/float() cast)",
                )

    def _exec_Assign(self, stmt: ast.Assign) -> None:
        value = self.eval(stmt.value)
        for target in stmt.targets:
            self._store(target, value, stmt)

    def _exec_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self._store(stmt.target, self.eval(stmt.value), stmt)

    def _exec_AugAssign(self, stmt: ast.AugAssign) -> None:
        current = (
            self.eval(stmt.target)
            if not isinstance(stmt.target, ast.Name)
            else self.env.get(stmt.target.id, UNKNOWN)
        )
        value = self._combine(
            stmt, [current, self.eval(stmt.value)],
            division=isinstance(stmt.op, ast.Div),
        )
        self._store(stmt.target, value, stmt)

    def _exec_Expr(self, stmt: ast.Expr) -> None:
        self.eval(stmt.value)

    def _exec_Return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        value = self.eval(stmt.value)
        expected = self.expected_return
        if not expected:
            return
        actual = value.elems if value.kind == "tuple" else (value,)
        for position, want in enumerate(expected):
            if position >= len(actual) or want == "unknown":
                continue
            got = actual[position].dtype
            if got in _NUMERIC and want in _NUMERIC and got != want:
                direction = (
                    "widening"
                    if _NUMERIC.index(got) > _NUMERIC.index(want)
                    else "narrowing"
                )
                self.emit(
                    stmt,
                    "implicit-cast",
                    f"silent dtype {direction}: returns {got} where the "
                    f"contract annotation declares {want} "
                    f"(return position {position})",
                )

    def _exec_If(self, stmt: ast.If) -> None:
        self.eval(stmt.test)
        before = dict(self.env)
        self.run(stmt.body)
        after_body = self.env
        self.env = dict(before)
        self.run(stmt.orelse)
        merged = {}
        for key in set(after_body) | set(self.env):
            merged[key] = join(
                after_body.get(key, UNKNOWN), self.env.get(key, UNKNOWN)
            )
        self.env = merged

    def _exec_For(self, stmt: ast.For) -> None:
        iterable = self.eval(stmt.iter)
        if iterable.kind == "range":
            element = AbstractValue("int64", "scalar")
        elif iterable.is_array:
            element = AbstractValue(iterable.dtype, "scalar")
        else:
            element = UNKNOWN
        self._store(stmt.target, element, stmt)
        self.run(stmt.body)
        self.run(stmt.orelse)

    def _exec_While(self, stmt: ast.While) -> None:
        self.eval(stmt.test)
        self.run(stmt.body)
        self.run(stmt.orelse)

    def _exec_With(self, stmt: ast.With) -> None:
        for item in stmt.items:
            self.eval(item.context_expr)
        self.run(stmt.body)

    def _exec_Try(self, stmt: ast.Try) -> None:
        self.run(stmt.body)
        for handler in stmt.handlers:
            self.run(handler.body)
        self.run(stmt.orelse)
        self.run(stmt.finalbody)


def seed_environment(
    params: "list[tuple[str, str, str, str | None]]",
) -> dict[str, AbstractValue]:
    """Initial env from ``(name, role, dtype, dim)`` contract params.
    Declared widths join their lattice class (a float32 table is a float
    array to the interpreter)."""
    env: dict[str, AbstractValue] = {}
    for name, role, dtype, dim in params:
        dtype = _DTYPE_TOKENS.get(dtype, dtype)
        if role == "xp":
            env[name] = AbstractValue(kind="module")
        elif role in ("array", "uniform"):
            env[name] = AbstractValue(dtype or "unknown", "array", dim)
        else:
            env[name] = AbstractValue(dtype or "unknown", "scalar")
    return env


def interpret_kernel(
    func: ast.FunctionDef,
    env: dict[str, AbstractValue],
    expected_return: tuple[str, ...],
    emit: EmitFn,
) -> None:
    """Abstractly execute ``func`` emitting dtype/shape events."""
    KernelInterpreter(dict(env), expected_return, emit).run(func.body)
