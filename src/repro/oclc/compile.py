"""Compiled-to-closures execution of analyzable kernels.

This lane evaluates a kernel body vectorized over its whole iteration
domain, like the array lane (:mod:`repro.oclc.vectorize`), but without
that lane's launch plans: it is the fallback for kernels and launches
the array lane refuses (an index that reads buffer contents or scalar
arguments, arguments aliased across the read/write split). It compiles
the body :func:`~repro.oclc.specialize.specialize` extracts **once**
into a flat list of Python closures — every type, operator ufunc,
builtin binding and swizzle index is resolved at compile time — so a
launch is just the domain binding plus one closure call per statement.

The semantics are shared, not re-implemented: every closure calls the
module-level primitives of :mod:`repro.oclc.specialize`
(:func:`~repro.oclc.specialize.apply_binary`,
:func:`~repro.oclc.specialize.cast_value`, …), and the safety analysis
(control flow, read/write overlap, loop-carried state) is exactly the
one ``specialize()`` performs — a kernel compiles iff it specializes.
The tree-walking interpreter remains the differential oracle for both.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..ocl import types as T
from . import cast
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    swizzle_indices,
    vector_memory_builtin,
)
from .specialize import (
    SpecializedKernel,
    apply_binary,
    apply_math,
    apply_unary,
    bind_arguments,
    buffer_view,
    build_domain_env,
    cast_value,
    reduce_sum,
    specialize,
    store_to_view,
    vector_store,
    vector_view,
)

__all__ = ["CompiledKernel", "compile_kernel"]


def compile_kernel(
    program: CheckedProgram, kernel_name: str | None = None
) -> "CompiledKernel":
    """Compile the kernel to closures, or raise if it cannot specialize."""
    with obs_trace.span("fastpath.compile", "fastpath") as span:
        spec = specialize(program, kernel_name)
        kernel = CompiledKernel(spec)
        span.set(kernel=kernel.ir.name)
    obs_metrics.count("fastpath.kernels.compiled")
    return kernel


class _Ctx:
    """Per-launch state threaded through the compiled closures."""

    __slots__ = ("env", "buffers", "n_items")

    def __init__(
        self,
        env: dict[str, object],
        buffers: dict[str, tuple[np.ndarray, T.Type]],
        n_items: int,
    ):
        self.env = env
        self.buffers = buffers
        self.n_items = n_items


_ExprFn = Callable[[_Ctx], object]
_StmtFn = Callable[[_Ctx], None]


class CompiledKernel:
    """Runs a kernel as a pre-compiled sequence of vectorized closures."""

    def __init__(self, spec: SpecializedKernel):
        self.ir = spec.ir
        self.program = spec.program
        body = spec._body
        comp = _Compiler(spec.program)
        steps: list[_StmtFn] = [comp.stmt(d) for d in body.outer_decls]
        by_stmt = {id(r.stmt): r for r in body.reductions}
        for stmt in body.inner:
            red = by_stmt.get(id(stmt))
            if red is not None:
                steps.append(comp.reduction(red.var, red.value))
            else:
                steps.append(comp.stmt(stmt))
        for stmt in body.epilogue:
            steps.append(comp.stmt(stmt))
        self._steps = steps

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
                "compiled execution supports 1-D NDRanges only"
            )
        n_items = int(global_size[0])
        env = build_domain_env(self.ir, n_items)
        buffers = bind_arguments(self.program, self.ir, args, env)
        ctx = _Ctx(env, buffers, n_items)
        for step in self._steps:
            step(ctx)


class _Compiler:
    """Turns the extracted straight-line body into closures.

    All AST dispatch, type lookup and builtin resolution happens here,
    once; the returned closures only touch per-launch state.
    """

    def __init__(self, program: CheckedProgram):
        self.program = program

    # -- statements ----------------------------------------------------------

    def stmt(self, stmt: cast.Stmt) -> _StmtFn:
        if isinstance(stmt, cast.DeclStmt):
            return self._decl(stmt)
        if isinstance(stmt, cast.ExprStmt):
            fn = self.expr(stmt.expr)

            def run_expr(ctx: _Ctx) -> None:
                fn(ctx)

            return run_expr
        if isinstance(stmt, cast.Block):
            subs = [self.stmt(s) for s in stmt.body]

            def run_block(ctx: _Ctx) -> None:
                for sub in subs:
                    sub(ctx)

            return run_block
        if isinstance(stmt, cast.Pragma):
            return lambda ctx: None
        raise UnsupportedKernelError(
            f"unsupported statement {type(stmt).__name__} at line {stmt.line}"
        )

    def _decl(self, decl: cast.DeclStmt) -> _StmtFn:
        ty = T.parse_type_name(decl.type_name)
        name = decl.name
        if decl.init is None:
            if isinstance(ty, T.VectorType):
                width, dtype = ty.width, ty.dtype

                def run_zero_vec(ctx: _Ctx) -> None:
                    ctx.env[name] = np.zeros(width, dtype=dtype)

                return run_zero_vec
            zero = ty.dtype.type(0)  # type: ignore[union-attr]

            def run_zero(ctx: _Ctx) -> None:
                ctx.env[name] = zero

            return run_zero
        init = self.expr(decl.init)

        def run_init(ctx: _Ctx) -> None:
            ctx.env[name] = cast_value(init(ctx), ty)

        return run_init

    def reduction(self, var: str, value_expr: cast.Expr) -> _StmtFn:
        value = self.expr(value_expr)

        def run_reduction(ctx: _Ctx) -> None:
            if var not in ctx.env:
                raise UnsupportedKernelError(f"reduction variable {var!r} unbound")
            ctx.env[var] = reduce_sum(ctx.env[var], value(ctx))

        return run_reduction

    # -- expressions ----------------------------------------------------------

    def expr(self, expr: cast.Expr) -> _ExprFn:
        ty = self.program.type_of(expr)
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral)):
            value = ty.dtype.type(expr.value)  # type: ignore[union-attr]
            return lambda ctx: value
        if isinstance(expr, cast.Ident):
            name, line = expr.name, expr.line

            def run_ident(ctx: _Ctx) -> object:
                try:
                    return ctx.env[name]
                except KeyError:
                    raise UnsupportedKernelError(
                        f"unbound {name!r} at line {line}"
                    ) from None

            return run_ident
        if isinstance(expr, cast.Unary):
            if expr.op in ("++", "--", "p++", "p--"):
                raise UnsupportedKernelError(
                    f"increment of locals at line {expr.line} is loop-carried state"
                )
            op, line = expr.op, expr.line
            operand = self.expr(expr.operand)
            return lambda ctx: apply_unary(op, operand(ctx), ty, line)
        if isinstance(expr, cast.Binary):
            op = expr.op
            left = self.expr(expr.left)
            right = self.expr(expr.right)
            return lambda ctx: apply_binary(op, left(ctx), right(ctx), ty)
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Conditional):
            cond = self.expr(expr.cond)
            then = self.expr(expr.then)
            other = self.expr(expr.other)

            def run_cond(ctx: _Ctx) -> object:
                chosen = np.where(
                    np.asarray(cond(ctx)) != 0, then(ctx), other(ctx)
                )
                return cast_value(chosen, ty)

            return run_cond
        if isinstance(expr, cast.Call):
            return self._call(expr, ty)
        if isinstance(expr, cast.Index):
            return self._load(expr)
        if isinstance(expr, cast.Swizzle):
            base = self.expr(expr.base)
            base_ty = self.program.type_of(expr.base)
            assert isinstance(base_ty, T.VectorType)
            idx = list(swizzle_indices(expr.components, base_ty.width, expr.line))
            if len(idx) == 1:
                only = idx[0]
                return lambda ctx: np.asarray(base(ctx))[..., only]
            return lambda ctx: np.asarray(base(ctx))[..., idx]
        if isinstance(expr, cast.Cast):
            operand = self.expr(expr.operand)
            return lambda ctx: cast_value(operand(ctx), ty)
        if isinstance(expr, cast.VectorLiteral):
            assert isinstance(ty, T.VectorType)
            elements = [self.expr(el) for el in expr.elements]
            width, dtype = ty.width, ty.dtype

            def run_vec(ctx: _Ctx) -> object:
                values = [np.asarray(el(ctx), dtype=dtype) for el in elements]
                if len(values) == 1:
                    values = values * width
                return np.stack(np.broadcast_arrays(*values), axis=-1)

            return run_vec
        raise UnsupportedKernelError(
            f"unsupported expression {type(expr).__name__} at line {expr.line}"
        )

    def _assign(self, expr: cast.Assign) -> _ExprFn:
        ty = self.program.type_of(expr.target)
        value = self.expr(expr.value)
        if expr.op != "=":
            op = expr.op[:-1]
            current = self.expr(expr.target)
            plain = value

            def compound(ctx: _Ctx) -> object:
                return apply_binary(op, current(ctx), plain(ctx), ty)

            value = compound
        target = expr.target
        if isinstance(target, cast.Ident):
            name = target.name

            def run_store_local(ctx: _Ctx) -> object:
                v = cast_value(value(ctx), ty)
                ctx.env[name] = v
                return v

            return run_store_local
        if isinstance(target, cast.Index):
            store = self._store(target)

            def run_store_mem(ctx: _Ctx) -> object:
                v = cast_value(value(ctx), ty)
                store(ctx, v)
                return v

            return run_store_mem
        raise UnsupportedKernelError(f"unsupported store target at line {expr.line}")

    # -- memory ----------------------------------------------------------------

    def _load(self, expr: cast.Index) -> _ExprFn:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        name, line = expr.base.name, expr.line
        index = self.expr(expr.index)

        def run_load(ctx: _Ctx) -> object:
            view, _element = buffer_view(ctx.buffers, name, line)
            idx = np.asarray(index(ctx), dtype=np.int64)
            if np.any(idx < 0) or np.any(idx >= view.shape[0]):
                raise UnsupportedKernelError(
                    f"out-of-bounds load from {name!r} at line {line}"
                )
            return view[idx]

        return run_load

    def _store(self, target: cast.Index) -> Callable[[_Ctx, object], None]:
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        name, line = target.base.name, target.line
        index = self.expr(target.index)

        def run_store(ctx: _Ctx, value: object) -> None:
            view, _element = buffer_view(ctx.buffers, name, line)
            idx = np.asarray(index(ctx), dtype=np.int64)
            if np.any(idx < 0) or np.any(idx >= view.shape[0]):
                raise UnsupportedKernelError(
                    f"out-of-bounds store to {name!r} at line {line}"
                )
            store_to_view(view, idx, value)

        return run_store

    # -- calls ----------------------------------------------------------------

    def _call(self, expr: cast.Call, ty: T.Type) -> _ExprFn:
        name = expr.func
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory(expr, vec_mem)
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            return self._workitem(expr, name)
        if name in BUILTIN_MATH_FUNCTIONS:
            args = [self.expr(a) for a in expr.args]
            return lambda ctx: apply_math(name, [a(ctx) for a in args], ty)
        raise UnsupportedKernelError(f"unsupported call {name!r} at line {expr.line}")

    def _workitem(self, expr: cast.Call, name: str) -> _ExprFn:
        if name == "get_work_dim":
            one = np.int64(1)
            return lambda ctx: one
        dim_expr = expr.args[0]
        dim = dim_expr.value if isinstance(dim_expr, cast.IntLiteral) else None
        zero = np.int64(0)
        if dim == 0:
            if name in ("get_global_id", "get_group_id"):
                return lambda ctx: ctx.env.get("gid0", zero)
            if name in ("get_global_size", "get_num_groups"):
                return lambda ctx: np.int64(ctx.n_items)
            value = zero if name == "get_local_id" else np.int64(1)
            return lambda ctx: value
        defaults = {
            "get_global_id": zero,
            "get_local_id": zero,
            "get_group_id": zero,
            "get_global_size": np.int64(1),
            "get_local_size": np.int64(1),
            "get_num_groups": np.int64(1),
        }
        value = defaults[name]
        return lambda ctx: value

    def _vector_memory(self, expr: cast.Call, vec_mem: tuple[str, int]) -> _ExprFn:
        kind, width = vec_mem
        ptr_expr = expr.args[-1]
        if not isinstance(ptr_expr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer at line {expr.line}"
            )
        name, line = ptr_expr.name, expr.line
        if kind == "load":
            offset_fn = self.expr(expr.args[0])

            def run_vload(ctx: _Ctx) -> object:
                view = vector_view(ctx.buffers, name, width, line)
                offset = np.asarray(offset_fn(ctx), dtype=np.int64)
                if np.any(offset < 0) or np.any(offset >= view.shape[0]):
                    raise UnsupportedKernelError(
                        f"vload/vstore out of bounds at line {line}"
                    )
                return view[offset]

            return run_vload
        data_fn = self.expr(expr.args[0])
        offset_fn = self.expr(expr.args[1])

        def run_vstore(ctx: _Ctx) -> object:
            view = vector_view(ctx.buffers, name, width, line)
            data = data_fn(ctx)
            offset = np.asarray(offset_fn(ctx), dtype=np.int64)
            if np.any(offset < 0) or np.any(offset >= view.shape[0]):
                raise UnsupportedKernelError(
                    f"vload/vstore out of bounds at line {line}"
                )
            vector_store(view, offset, data)
            return None

        return run_vstore
