"""Vectorized (numpy) execution of analyzable kernels.

The sequential interpreter (:mod:`repro.oclc.interp`) is the semantic
reference but interprets one work-item at a time — far too slow for the
multi-megabyte arrays the benchmark uses. This module *specializes* a
kernel: it flattens the iteration domain (NDRange × counted loop nest)
and evaluates the innermost body once, with every scalar replaced by a
numpy array over the whole domain. For STREAM-style kernels this is
exact, and the test suite proves it by comparing both paths on random
small instances.

Specialization refuses (raises :class:`UnsupportedKernelError`) when
vectorized evaluation could diverge from sequential semantics:

* data-dependent control flow (``if``/``while``/``break``) in the body,
* a kernel that both reads and writes the same buffer argument,
* loop-carried scalar state (a local read before it is written in the
  same iteration).

Callers fall back to the interpreter in those cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import UnsupportedKernelError
from ..ocl import types as T
from . import cast
from .analysis import KernelIR, LoopMode, analyze
from .interp import BufferArg
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    swizzle_indices,
    vector_memory_builtin,
)

__all__ = ["SpecializedKernel", "specialize"]


def specialize(program: CheckedProgram, kernel_name: str | None = None) -> "SpecializedKernel":
    """Build a vectorized executor for the kernel, or raise if unsafe."""
    ir = analyze(program, kernel_name)
    return SpecializedKernel(ir)


@dataclass
class _Reduction:
    """One recognized sum-reduction: ``acc = acc + <expr>`` in the body."""

    var: str
    value: cast.Expr
    stmt: cast.Stmt


@dataclass
class _Body:
    """The straight-line innermost statements plus outer-level decls.

    ``epilogue`` holds statements after the outermost loop (e.g. the
    final ``c[0] = acc;`` of a dot product); ``reductions`` the
    recognized sum-accumulations, which execute as vectorized sums.
    """

    outer_decls: list[cast.DeclStmt]
    inner: list[cast.Stmt]
    epilogue: list[cast.Stmt]
    reductions: list[_Reduction]


class SpecializedKernel:
    """Runs a kernel by vectorized evaluation over its iteration domain."""

    def __init__(self, ir: KernelIR):
        self.ir = ir
        self.program = ir.program
        self._check_safe()
        self._body = self._extract_body()
        self._check_loop_carried()

    # -- safety ---------------------------------------------------------------

    def _check_safe(self) -> None:
        ir = self.ir
        if ir.has_control_flow:
            raise UnsupportedKernelError(
                f"kernel {ir.name!r} has data-dependent control flow; "
                "use the interpreter"
            )
        read_params = {a.param for a in ir.reads}
        write_params = {a.param for a in ir.writes}
        overlap = read_params & write_params
        if overlap:
            raise UnsupportedKernelError(
                f"kernel {ir.name!r} reads and writes {sorted(overlap)}; "
                "vectorized order is not guaranteed to match sequential order"
            )

    def _extract_body(self) -> _Body:
        """Peel the counted loop nest, collecting straight-line code.

        Outer levels may contain only declarations (which become uniform
        or per-domain values) around exactly one loop; the innermost
        level is the straight-line body that gets vectorized.
        """
        outer_decls: list[cast.DeclStmt] = []

        def flatten(stmt: cast.Stmt) -> list[cast.Stmt]:
            if isinstance(stmt, cast.Block):
                out: list[cast.Stmt] = []
                for s in stmt.body:
                    out.extend(flatten(s))
                return out
            if isinstance(stmt, cast.Pragma):
                return []
            if isinstance(stmt, cast.Return) and stmt.value is None:
                return []
            return [stmt]

        epilogue: list[cast.Stmt] = []

        def peel(
            stmts: list[cast.Stmt], loops_left: int, outermost: bool
        ) -> list[cast.Stmt]:
            if loops_left == 0:
                for s in stmts:
                    if not isinstance(s, (cast.DeclStmt, cast.ExprStmt)):
                        raise UnsupportedKernelError(
                            f"unsupported statement {type(s).__name__} "
                            f"at line {s.line} in innermost body"
                        )
                return stmts
            loop: cast.For | None = None
            for s in stmts:
                if isinstance(s, cast.For):
                    if loop is not None:
                        raise UnsupportedKernelError(
                            "multiple sibling loops are not supported"
                        )
                    loop = s
                elif isinstance(s, cast.DeclStmt) and loop is None:
                    outer_decls.append(s)
                elif loop is not None and outermost:
                    # statements after the loop: a scalar epilogue
                    # (e.g. storing a reduction result)
                    if not isinstance(s, (cast.DeclStmt, cast.ExprStmt)):
                        raise UnsupportedKernelError(
                            f"unsupported epilogue statement "
                            f"{type(s).__name__} at line {s.line}"
                        )
                    epilogue.append(s)
                else:
                    raise UnsupportedKernelError(
                        f"unsupported statement {type(s).__name__} at line "
                        f"{s.line} outside the innermost loop"
                    )
            if loop is None:  # pragma: no cover - analyze() counted the loops
                raise UnsupportedKernelError("loop nest shallower than analyzed")
            return peel(flatten(loop.body), loops_left - 1, outermost=False)

        inner = peel(
            flatten(self.ir.func.body), len(self.ir.loops), outermost=True
        )
        # Loop induction variables are bound by the domain, not by decls;
        # drop decls that shadow them.
        loop_vars = {loop.var for loop in self.ir.loops}
        outer = [d for d in outer_decls if d.name not in loop_vars]
        return _Body(outer_decls=outer, inner=inner, epilogue=epilogue, reductions=[])

    def _check_loop_carried(self) -> None:
        """Classify loop-carried locals: reductions or refusal.

        A variable declared outside the innermost body and *read before
        it is (re)assigned inside the body* depends on the previous
        iteration. The one shape we can vectorize exactly is a **sum
        reduction** (``acc = acc + <expr>`` / ``acc += <expr>`` where
        ``acc`` appears nowhere else in the body): integer sums are
        associative mod 2^width, and float sums match the sequential
        result to validation tolerance. Anything else is refused so the
        caller falls back to the interpreter.
        """
        outer_names = {d.name for d in self._body.outer_decls}

        def refs(expr: cast.Expr) -> list[str]:
            out: list[str] = []

            def walk(e: cast.Expr) -> None:
                if isinstance(e, cast.Ident):
                    out.append(e.name)
                elif isinstance(e, cast.Assign):
                    walk(e.value)
                    if isinstance(e.target, cast.Index):
                        walk(e.target.index)
                elif isinstance(e, cast.Binary):
                    walk(e.left)
                    walk(e.right)
                elif isinstance(e, cast.Unary):
                    walk(e.operand)
                elif isinstance(e, cast.Conditional):
                    walk(e.cond)
                    walk(e.then)
                    walk(e.other)
                elif isinstance(e, cast.Call):
                    for a in e.args:
                        walk(a)
                elif isinstance(e, cast.Index):
                    walk(e.base)
                    walk(e.index)
                elif isinstance(e, cast.Swizzle):
                    walk(e.base)
                elif isinstance(e, cast.Cast):
                    walk(e.operand)
                elif isinstance(e, cast.VectorLiteral):
                    for el in e.elements:
                        walk(el)

            walk(expr)
            return out

        def as_reduction(stmt: cast.Stmt) -> _Reduction | None:
            if not (isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign)):
                return None
            assign = stmt.expr
            if not isinstance(assign.target, cast.Ident):
                return None
            var = assign.target.name
            if var not in outer_names:
                return None
            if assign.op == "+=":
                if var in refs(assign.value):
                    return None
                return _Reduction(var=var, value=assign.value, stmt=stmt)
            if assign.op == "=" and isinstance(assign.value, cast.Binary):
                b = assign.value
                if b.op == "+":
                    if isinstance(b.left, cast.Ident) and b.left.name == var:
                        if var not in refs(b.right):
                            return _Reduction(var=var, value=b.right, stmt=stmt)
                    if isinstance(b.right, cast.Ident) and b.right.name == var:
                        if var not in refs(b.left):
                            return _Reduction(var=var, value=b.left, stmt=stmt)
            return None

        assigned_in_body: set[str] = set()
        for stmt in self._body.inner:
            if isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign):
                if isinstance(stmt.expr.target, cast.Ident):
                    assigned_in_body.add(stmt.expr.target.name)
            if isinstance(stmt, cast.DeclStmt):
                assigned_in_body.add(stmt.name)

        # pass 1: recognize reductions
        reductions: dict[str, _Reduction] = {}
        for stmt in self._body.inner:
            red = as_reduction(stmt)
            if red is not None:
                if red.var in reductions:
                    raise UnsupportedKernelError(
                        f"local {red.var!r} accumulates in more than one "
                        f"statement (line {stmt.line}); use the interpreter"
                    )
                reductions[red.var] = red

        # pass 2: every remaining read-before-write of an outer local is
        # genuinely loop-carried -> refuse; a reduction variable used in
        # any *other* statement of the body is also unsafe
        seen_assigned: set[str] = set()
        for stmt in self._body.inner:
            is_reduction_stmt = any(r.stmt is stmt for r in reductions.values())
            exprs: list[cast.Expr] = []
            if isinstance(stmt, cast.DeclStmt) and stmt.init is not None:
                exprs.append(stmt.init)
            elif isinstance(stmt, cast.ExprStmt):
                exprs.append(stmt.expr)
            for expr in exprs:
                for name in refs(expr):
                    if name in reductions and not is_reduction_stmt:
                        raise UnsupportedKernelError(
                            f"reduction variable {name!r} is also used at "
                            f"line {stmt.line}; use the interpreter"
                        )
                    if (
                        name in outer_names
                        and name not in reductions
                        and name in assigned_in_body
                        and name not in seen_assigned
                    ):
                        raise UnsupportedKernelError(
                            f"local {name!r} carries state across loop "
                            f"iterations (line {stmt.line}); use the interpreter"
                        )
            if isinstance(stmt, cast.DeclStmt):
                seen_assigned.add(stmt.name)
            elif isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign):
                if isinstance(stmt.expr.target, cast.Ident):
                    seen_assigned.add(stmt.expr.target.name)

        self._body.reductions = list(reductions.values())

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        global_size: tuple[int, ...] | int,
        args: Mapping[str, object],
        local_size: tuple[int, ...] | None = None,
    ) -> None:
        """Execute the kernel. Signature mirrors the interpreter's."""
        if isinstance(global_size, int):
            global_size = (global_size,)
        if len(global_size) != 1:
            raise UnsupportedKernelError(
                "specialized execution supports 1-D NDRanges only"
            )
        n_items = int(global_size[0])
        env = build_domain_env(self.ir, n_items)
        buffers = bind_arguments(self.program, self.ir, args, env)
        evaluator = _VecEval(self.program, env, buffers, n_items)
        for decl in self._body.outer_decls:
            evaluator.exec_decl(decl)
        reduction_by_stmt = {id(r.stmt): r for r in self._body.reductions}
        for stmt in self._body.inner:
            red = reduction_by_stmt.get(id(stmt))
            if red is not None:
                evaluator.exec_reduction(red.var, red.value)
            else:
                evaluator.exec_stmt(stmt)
        # the epilogue runs once, over scalar values (reduction results
        # are scalars; anything else uniform would be too)
        for stmt in self._body.epilogue:
            evaluator.exec_stmt(stmt)


def _coerce_scalar(value: object, ty: T.Type) -> object:
    if isinstance(ty, T.ScalarType):
        return ty.dtype.type(value)
    if isinstance(ty, T.VectorType):
        arr = np.asarray(value, dtype=ty.dtype)
        if arr.shape == ():
            arr = np.full(ty.width, arr)
        return arr
    raise UnsupportedKernelError(f"cannot pass {ty} by value")


_MATH_IMPL = {
    "min": np.minimum,
    "max": np.maximum,
    "clamp": lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
    "fabs": np.abs,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "floor": np.floor,
    "ceil": np.ceil,
    "fma": lambda a, b, c: a * b + c,
    "mad": lambda a, b, c: a * b + c,
    "mul24": lambda a, b: a * b,
    "mad24": lambda a, b, c: a * b + c,
}

_CMP_IMPL = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}

_ARITH_IMPL = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
}


# -- shared vectorized semantics ------------------------------------------------
#
# Module-level so the compiled-closure lane (repro.oclc.compile) executes
# the *same* code paths as the tree-walking _VecEval below: one
# implementation, two drivers, no chance of semantic drift.


def align_streams(left: object, right: object) -> tuple[object, object]:
    """Broadcast a (N,) scalar stream against a (N, w) vector stream."""
    la = np.asarray(left)
    ra = np.asarray(right)
    if la.ndim == 1 and ra.ndim == 2 and la.shape[0] == ra.shape[0]:
        return la[:, None], ra
    if ra.ndim == 1 and la.ndim == 2 and ra.shape[0] == la.shape[0]:
        return la, ra[:, None]
    return left, right


def cast_value(value: object, ty: T.Type) -> object:
    if isinstance(ty, (T.ScalarType, T.VectorType)):
        arr = np.asarray(value)
        if arr.dtype != ty.dtype:
            with np.errstate(over="ignore", invalid="ignore"):
                arr = arr.astype(ty.dtype)
        return arr
    return value


def apply_unary(op: str, value: object, ty: T.Type, line: int) -> object:
    with np.errstate(over="ignore"):
        if op == "-":
            return cast_value(np.negative(value), ty)
        if op == "+":
            return value
        if op == "!":
            return (np.asarray(value) == 0).astype(np.int32)
        if op == "~":
            return cast_value(np.invert(np.asarray(value)), ty)
    raise UnsupportedKernelError(f"unary {op} at line {line}")


def apply_binary(op: str, left: object, right: object, ty: T.Type) -> object:
    left_a, right_a = align_streams(left, right)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if op in ("&&", "||"):
            lb = np.asarray(left_a) != 0
            rb = np.asarray(right_a) != 0
            out = np.logical_and(lb, rb) if op == "&&" else np.logical_or(lb, rb)
            return out.astype(np.int32)
        if op in _CMP_IMPL:
            raw = _CMP_IMPL[op](left_a, right_a)
            if isinstance(ty, T.VectorType):
                return -raw.astype(ty.dtype)
            return raw.astype(np.int32)
        if op == "/" and not ty.is_float():
            la = np.asarray(left_a, dtype=np.int64)
            ra = np.asarray(right_a, dtype=np.int64)
            raw = (np.sign(la) * np.sign(ra)) * (np.abs(la) // np.abs(ra))
        elif op == "%":
            la = np.asarray(left_a, dtype=np.int64)
            ra = np.asarray(right_a, dtype=np.int64)
            raw = la - (np.sign(la) * np.sign(ra)) * (np.abs(la) // np.abs(ra)) * ra
        else:
            raw = _ARITH_IMPL[op](left_a, right_a)
        return cast_value(raw, ty)


def apply_math(name: str, args: list[object], ty: T.Type) -> object:
    aligned = args
    if len(args) == 2:
        aligned = list(align_streams(args[0], args[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _MATH_IMPL[name](*aligned)
    return cast_value(raw, ty)


def reduce_sum(init: object, value: object) -> object:
    """Vectorized sum reduction step; wraps exactly like sequential ints."""
    value = np.asarray(value)
    with np.errstate(over="ignore", invalid="ignore"):
        total = value.sum(axis=0, dtype=value.dtype)
        result = np.asarray(init) + total
    dtype = np.asarray(init).dtype
    with np.errstate(over="ignore", invalid="ignore"):
        return result.astype(dtype) if result.dtype != dtype else result


def build_domain_env(ir: KernelIR, n_items: int) -> dict[str, object]:
    """Flatten the iteration domain into per-variable index arrays."""
    domain: list[tuple[str, np.ndarray]] = []
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars:
        domain.append(("gid0", np.arange(n_items, dtype=np.int64)))
    elif n_items != 1:
        # single work-item kernel launched with >1 items: every item
        # does identical work; semantics equal running once.
        domain.append(("gid0", np.arange(n_items, dtype=np.int64)))
    for loop in ir.loops:
        domain.append(
            (loop.var, np.arange(loop.start, loop.bound, loop.step, dtype=np.int64))
        )
    if not domain:
        domain = [("gid0", np.arange(n_items, dtype=np.int64))]

    sizes = [len(v) for _, v in domain]
    total = int(np.prod(sizes))
    env: dict[str, object] = {}
    rem = np.arange(total, dtype=np.int64)
    for var, values in reversed(domain):
        env[var] = values[rem % len(values)]
        rem = rem // len(values)
    return env


def bind_arguments(
    program: CheckedProgram,
    ir: KernelIR,
    args: Mapping[str, object],
    env: dict[str, object],
) -> dict[str, tuple[np.ndarray, T.Type]]:
    """Split kernel arguments into buffer bindings and scalar env entries."""
    buffers: dict[str, tuple[np.ndarray, T.Type]] = {}
    for name, ty in program.param_types[ir.name].items():
        if name not in args:
            raise UnsupportedKernelError(f"missing kernel argument {name!r}")
        value = args[name]
        if isinstance(ty, T.PointerType):
            if not isinstance(value, BufferArg):
                raise UnsupportedKernelError(f"argument {name!r} must be a BufferArg")
            buffers[name] = (value.array, ty.pointee)
        else:
            env[name] = _coerce_scalar(value, ty)
    return buffers


def buffer_view(
    buffers: Mapping[str, tuple[np.ndarray, T.Type]], name: str, line: int
) -> tuple[np.ndarray, T.Type]:
    if name not in buffers:
        raise UnsupportedKernelError(f"unknown buffer {name!r} at line {line}")
    arr, element = buffers[name]
    if isinstance(element, T.VectorType):
        width = element.width
        if arr.size % width:
            raise UnsupportedKernelError(
                f"buffer {name!r} size {arr.size} not divisible by vector width {width}"
            )
        return arr.reshape(-1, width), element
    return arr, element


def store_to_view(view: np.ndarray, idx: np.ndarray, value: object) -> None:
    arr = np.asarray(value)
    if view.ndim == 2 and arr.ndim == 1 and idx.ndim == 1:
        view[idx] = arr[:, None] if arr.shape[0] == idx.shape[0] else arr
    else:
        view[idx] = arr


def vector_view(
    buffers: Mapping[str, tuple[np.ndarray, T.Type]],
    name: str,
    width: int,
    line: int,
) -> np.ndarray:
    if name not in buffers:
        raise UnsupportedKernelError(f"unknown buffer {name!r} at line {line}")
    arr, _element = buffers[name]
    if arr.size % width:
        raise UnsupportedKernelError(
            f"buffer {name!r} size {arr.size} not divisible by {width}"
        )
    return arr.reshape(-1, width)


def vector_store(view: np.ndarray, offset: np.ndarray, data: object) -> None:
    value = np.asarray(data)
    if value.ndim == 1 and offset.ndim == 1 and value.shape[0] == offset.shape[0]:
        view[offset] = value[:, None]
    else:
        view[offset] = value


class _VecEval:
    """Vectorized evaluation of straight-line kernel statements.

    Every value is either a numpy scalar (uniform across the domain), a
    1-D array over the flattened domain, or — for vector types — a 2-D
    ``(domain, lanes)`` array.
    """

    def __init__(
        self,
        program: CheckedProgram,
        env: dict[str, object],
        buffers: dict[str, tuple[np.ndarray, T.Type]],
        n_items: int,
    ):
        self.program = program
        self.env = env
        self.buffers = buffers
        self.n_items = n_items

    # -- statements ----------------------------------------------------------

    def exec_decl(self, decl: cast.DeclStmt) -> None:
        ty = T.parse_type_name(decl.type_name)
        if decl.init is None:
            value: object = (
                np.zeros(ty.width, dtype=ty.dtype)
                if isinstance(ty, T.VectorType)
                else ty.dtype.type(0)  # type: ignore[union-attr]
            )
        else:
            value = self._cast_to(self.eval(decl.init), ty)
        self.env[decl.name] = value

    def exec_reduction(self, var: str, value_expr: cast.Expr) -> None:
        """Vectorized sum reduction: env[var] += sum(value over domain).

        Integer sums wrap exactly like the sequential loop (addition is
        associative modulo 2^width); float sums may differ by rounding
        order, within STREAM validation tolerance.
        """
        if var not in self.env:
            raise UnsupportedKernelError(f"reduction variable {var!r} unbound")
        self.env[var] = reduce_sum(self.env[var], self.eval(value_expr))

    def exec_stmt(self, stmt: cast.Stmt) -> None:
        if isinstance(stmt, cast.DeclStmt):
            self.exec_decl(stmt)
        elif isinstance(stmt, cast.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, cast.Block):
            for s in stmt.body:
                self.exec_stmt(s)
        elif isinstance(stmt, cast.Pragma):
            pass
        else:
            raise UnsupportedKernelError(
                f"unsupported statement {type(stmt).__name__} at line {stmt.line}"
            )

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: cast.Expr) -> object:
        ty = self.program.type_of(expr)
        if isinstance(expr, cast.IntLiteral):
            return ty.dtype.type(expr.value)  # type: ignore[union-attr]
        if isinstance(expr, cast.FloatLiteral):
            return ty.dtype.type(expr.value)  # type: ignore[union-attr]
        if isinstance(expr, cast.Ident):
            if expr.name not in self.env:
                raise UnsupportedKernelError(f"unbound {expr.name!r} at line {expr.line}")
            return self.env[expr.name]
        if isinstance(expr, cast.Unary):
            return self._unary(expr)
        if isinstance(expr, cast.Binary):
            return self._binary(expr)
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Conditional):
            cond = self.eval(expr.cond)
            then = self.eval(expr.then)
            other = self.eval(expr.other)
            return self._cast_to(np.where(np.asarray(cond) != 0, then, other), ty)
        if isinstance(expr, cast.Call):
            return self._call(expr)
        if isinstance(expr, cast.Index):
            return self._load(expr)
        if isinstance(expr, cast.Swizzle):
            base = np.asarray(self.eval(expr.base))
            base_ty = self.program.type_of(expr.base)
            assert isinstance(base_ty, T.VectorType)
            idx = swizzle_indices(expr.components, base_ty.width, expr.line)
            sel = base[..., list(idx)]
            if len(idx) == 1:
                return sel[..., 0]
            return sel
        if isinstance(expr, cast.Cast):
            return self._cast_to(self.eval(expr.operand), ty)
        if isinstance(expr, cast.VectorLiteral):
            assert isinstance(ty, T.VectorType)
            values = [np.asarray(self.eval(el), dtype=ty.dtype) for el in expr.elements]
            if len(values) == 1:
                values = values * ty.width
            return np.stack(np.broadcast_arrays(*values), axis=-1)
        raise UnsupportedKernelError(
            f"unsupported expression {type(expr).__name__} at line {expr.line}"
        )

    def _unary(self, expr: cast.Unary) -> object:
        if expr.op in ("++", "--", "p++", "p--"):
            raise UnsupportedKernelError(
                f"increment of locals at line {expr.line} is loop-carried state"
            )
        value = self.eval(expr.operand)
        return apply_unary(expr.op, value, self.program.type_of(expr), expr.line)

    def _binary(self, expr: cast.Binary) -> object:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return apply_binary(expr.op, left, right, self.program.type_of(expr))

    _align = staticmethod(align_streams)

    def _assign(self, expr: cast.Assign) -> object:
        ty = self.program.type_of(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            synthetic = cast.Binary(expr.op[:-1], expr.target, expr.value, line=expr.line)
            # register its type so _binary can look it up
            self.program.expr_types[id(synthetic)] = ty
            value = self._binary(synthetic)
        value = self._cast_to(value, ty)
        target = expr.target
        if isinstance(target, cast.Ident):
            self.env[target.name] = value
        elif isinstance(target, cast.Index):
            self._store(target, value)
        else:
            raise UnsupportedKernelError(
                f"unsupported store target at line {expr.line}"
            )
        return value

    # -- memory ----------------------------------------------------------------

    def _buffer_view(self, name: str, line: int) -> tuple[np.ndarray, T.Type]:
        return buffer_view(self.buffers, name, line)

    def _load(self, expr: cast.Index) -> object:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        view, element = self._buffer_view(expr.base.name, expr.line)
        idx = np.asarray(self.eval(expr.index), dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= view.shape[0]):
            raise UnsupportedKernelError(
                f"out-of-bounds load from {expr.base.name!r} at line {expr.line}"
            )
        return view[idx]

    def _store(self, target: cast.Index, value: object) -> None:
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        view, element = self._buffer_view(target.base.name, target.line)
        idx = np.asarray(self.eval(target.index), dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= view.shape[0]):
            raise UnsupportedKernelError(
                f"out-of-bounds store to {target.base.name!r} at line {target.line}"
            )
        store_to_view(view, idx, value)

    def _call(self, expr: cast.Call) -> object:
        name = expr.func
        ty = self.program.type_of(expr)
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory(expr, vec_mem)
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            if name == "get_work_dim":
                return np.int64(1)
            dim_expr = expr.args[0]
            dim = dim_expr.value if isinstance(dim_expr, cast.IntLiteral) else None
            if dim == 0:
                table = {
                    "get_global_id": self.env.get("gid0", np.int64(0)),
                    "get_global_size": np.int64(self.n_items),
                    "get_local_id": np.int64(0),
                    "get_local_size": np.int64(1),
                    "get_group_id": self.env.get("gid0", np.int64(0)),
                    "get_num_groups": np.int64(self.n_items),
                }
                return table[name]
            defaults = {
                "get_global_id": np.int64(0),
                "get_local_id": np.int64(0),
                "get_group_id": np.int64(0),
                "get_global_size": np.int64(1),
                "get_local_size": np.int64(1),
                "get_num_groups": np.int64(1),
            }
            return defaults[name]
        if name in BUILTIN_MATH_FUNCTIONS:
            args = [self.eval(a) for a in expr.args]
            return apply_math(name, args, ty)
        raise UnsupportedKernelError(f"unsupported call {name!r} at line {expr.line}")

    def _vector_memory(self, expr: cast.Call, vec_mem: tuple[str, int]) -> object:
        """Vectorized vloadN/vstoreN over the whole domain."""
        kind, width = vec_mem
        ptr_expr = expr.args[-1]
        if not isinstance(ptr_expr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer at line {expr.line}"
            )
        view = vector_view(self.buffers, ptr_expr.name, width, expr.line)
        if kind == "load":
            offset = np.asarray(self.eval(expr.args[0]), dtype=np.int64)
        else:
            data = self.eval(expr.args[0])
            offset = np.asarray(self.eval(expr.args[1]), dtype=np.int64)
        if np.any(offset < 0) or np.any(offset >= view.shape[0]):
            raise UnsupportedKernelError(
                f"vload/vstore out of bounds at line {expr.line}"
            )
        if kind == "load":
            return view[offset]
        vector_store(view, offset, data)
        return None

    _cast_to = staticmethod(cast_value)
