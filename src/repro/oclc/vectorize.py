"""Whole-NDRange array execution with precomputed launch plans.

The compiled-closure lane (:mod:`repro.oclc.compile`) already evaluates
a kernel body as numpy arrays over the flattened iteration domain, but
it rebuilds the domain environment (``arange`` + mixed-radix decode) on
*every* launch, re-evaluates every index expression, bounds-checks every
access with full ``np.any`` passes, and gathers/scatters through fancy
integer indexing. For a STREAM kernel those overheads dwarf the four
vector ops the launch actually performs — and a sweep repeats the same
launch shape at many grid points.

:class:`VectorKernel` drives the same specializer semantics as the
compiled lane (one implementation of the vectorized primitives, two
drivers; the interpreter is their oracle). It exploits one
observation: in an analyzable kernel every load/store **index** is a
pure function of the iteration domain — ``gid0``, counted-loop
variables and constants — never of buffer contents or scalar
arguments. So indices can be
evaluated *once per launch shape*, bounds-checked once, and lowered to
native strided slices whenever they are affine in the flattened domain
(``c[gid] = a[gid]`` becomes ``c_view[0:N:1] = a_view[0:N:1]``, no index
vector materialized at all). The per-``(n_items, buffer sizes)`` result
is cached as a launch *plan*; a repeated launch is just the statement
closures over pre-lowered selections.

Eligibility is conservative and layered on the specializer's own gate
(no data-dependent control flow, no read/write parameter overlap, no
loop-carried state beyond sum reductions — see
:class:`~repro.oclc.specialize.SpecializedKernel`):

* every load/store index and vload/vstore offset must be **domain-pure**
  (reference only domain variables, domain-pure locals, literals and
  builtin calls thereof), so plans are launch-shape cacheable;
* no kernel argument may alias another in a way that crosses the
  read/write split (checked per launch with ``np.may_share_memory`` —
  slice loads are *views*, so aliasing that the gather-based lane
  tolerates must fall back here).

Anything else raises :class:`~repro.errors.UnsupportedKernelError` and
the caller (:meth:`repro.ocl.queue.CommandQueue._execute`) falls back to
the compiled-closure lane, then the interpreter.

The semantics are shared, not re-implemented: every closure calls the
module-level primitives of :mod:`repro.oclc.specialize`, and the
differential suite (``tests/test_vectorize_equivalence.py``) proves all
three lanes bit-identical on the full conformance grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..ocl import types as T
from . import cast
from .compile import _Compiler, _Ctx
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    vector_memory_builtin,
)
from .specialize import (
    SpecializedKernel,
    bind_arguments,
    build_domain_env,
    cast_value,
    specialize,
)

__all__ = ["VectorKernel", "vectorize_kernel"]

#: launch plans kept per kernel (FIFO); a sweep rarely cycles through
#: more than a couple of distinct (n_items, buffer-size) shapes at once
_PLAN_CACHE_SIZE = 4


def vectorize_kernel(
    program: CheckedProgram, kernel_name: str | None = None
) -> "VectorKernel":
    """Build the array-lane executor, or raise if the kernel is ineligible."""
    with obs_trace.span("fastpath.vectorize", "fastpath") as span:
        spec = specialize(program, kernel_name)
        kernel = VectorKernel(spec)
        span.set(kernel=kernel.ir.name, sites=len(kernel._sites))
    obs_metrics.count("fastpath.kernels.vectorized")
    return kernel


@dataclass
class _Site:
    """One memory access whose selection is precomputed per plan."""

    param: str
    width: int | None  # None: scalar-element view; int: (rows, width) view
    index: Callable[["_VCtx"], object]
    line: int


@dataclass
class _Plan:
    """Everything launch-shape-dependent, computed once and cached."""

    env_base: dict[str, object]
    sel: list[object]  # per _Site: slice | np.ndarray selection
    sel_len: list[int]  # per _Site: selected rows (-1: not a 1-D stream)


class _VCtx(_Ctx):
    """Per-launch state: compiled-lane ctx plus plan selections/views."""

    __slots__ = ("views", "sel", "sel_len")


def _lower_selection(idx: np.ndarray) -> object:
    """Replace a constant-stride index vector with a native slice.

    A slice selects the same elements in the same order, so values are
    bit-identical — but numpy serves it as a strided view instead of a
    gather/scatter through an index vector. Non-monotonic or irregular
    indices (e.g. the strided variant's ``(g % NI) * NJ + g / NI``
    permutation) stay as precomputed fancy indices.
    """
    if idx.size == 0:
        return slice(0, 0, 1)
    if idx.ndim != 1:
        return idx
    first = int(idx[0])
    if idx.size == 1:
        return slice(first, first + 1, 1)
    steps = np.diff(idx)
    step = int(steps[0])
    if step > 0 and bool(np.all(steps == step)):
        return slice(first, int(idx[-1]) + step, step)
    return idx


def _store_selected(
    view: np.ndarray, sel: object, sel_len: int, value: object
) -> None:
    """Scatter ``value`` into ``view[sel]``.

    Mirrors :func:`~repro.oclc.specialize.store_to_view` /
    :func:`~repro.oclc.specialize.vector_store` semantics exactly — a
    1-D value whose length matches the selection is a scalar *stream*
    and broadcasts across vector lanes.
    """
    arr = np.asarray(value)
    if view.ndim == 2 and arr.ndim == 1 and arr.shape[0] == sel_len:
        arr = arr[:, None]  # vector-element view
    view[sel] = arr


class VectorKernel:
    """Runs a kernel as statement closures over pre-lowered selections."""

    def __init__(self, spec: SpecializedKernel):
        self.ir = spec.ir
        self.program = spec.program
        body = spec._body
        self._sites: list[_Site] = []
        self._pure_decls: list[tuple[str, Callable[[_VCtx], object] | None, T.Type]] = []
        self._pure_names: set[str] = {"gid0"} | {loop.var for loop in self.ir.loops}
        self._declared: set[str] = set()
        self._plans: dict[tuple, _Plan] = {}
        self._writes = tuple(sorted({a.param for a in self.ir.writes}))
        self._reads = tuple(sorted({a.param for a in self.ir.reads}))

        comp = _VecCompiler(self.program, self)
        steps: list[Callable[[_VCtx], object]] = []
        by_stmt = {id(r.stmt): r for r in body.reductions}

        def add(stmt: cast.Stmt) -> None:
            red = by_stmt.get(id(stmt))
            if red is not None:
                steps.append(comp.reduction(red.var, red.value))
                return
            if isinstance(stmt, cast.DeclStmt) and self._classify_decl(stmt, comp):
                return
            self._refuse_pure_writes(stmt)
            steps.append(comp.stmt(stmt))

        for decl in body.outer_decls:
            add(decl)
        for stmt in body.inner:
            add(stmt)
        for stmt in body.epilogue:
            add(stmt)
        self._steps = steps
        # views needed per launch, keyed (param, width-or-None)
        self._view_keys = tuple(
            sorted({(site.param, site.width) for site in self._sites},
                   key=lambda k: (k[0], k[1] or 0))
        )

    # -- compile-time classification ------------------------------------------

    def _classify_decl(self, decl: cast.DeclStmt, comp: "_VecCompiler") -> bool:
        """Plan-compute a domain-pure local; returns False to run per launch."""
        if decl.name in self._pure_names or decl.name in self._declared:
            raise UnsupportedKernelError(
                f"duplicate declaration of {decl.name!r} at line {decl.line}"
            )
        self._declared.add(decl.name)
        if decl.init is not None and not self._is_pure(decl.init):
            return False
        ty = T.parse_type_name(decl.type_name)
        fn = comp.expr(decl.init) if decl.init is not None else None
        self._pure_decls.append((decl.name, fn, ty))
        self._pure_names.add(decl.name)
        return True

    def _refuse_pure_writes(self, stmt: cast.Stmt) -> None:
        """A runtime statement may not reassign a plan-computed local."""
        def walk(e: cast.Expr) -> None:
            if isinstance(e, cast.Assign):
                if isinstance(e.target, cast.Ident) and e.target.name in self._pure_names:
                    raise UnsupportedKernelError(
                        f"assignment to domain-pure local {e.target.name!r} "
                        f"at line {e.line}"
                    )
                walk(e.value)
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

        if isinstance(stmt, cast.ExprStmt):
            walk(stmt.expr)

    def _is_pure(self, expr: cast.Expr) -> bool:
        """Is ``expr`` a pure function of the iteration domain?"""
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral)):
            return True
        if isinstance(expr, cast.Ident):
            return expr.name in self._pure_names
        if isinstance(expr, cast.Unary):
            return expr.op not in ("++", "--", "p++", "p--") and self._is_pure(
                expr.operand
            )
        if isinstance(expr, cast.Binary):
            return self._is_pure(expr.left) and self._is_pure(expr.right)
        if isinstance(expr, cast.Conditional):
            return (
                self._is_pure(expr.cond)
                and self._is_pure(expr.then)
                and self._is_pure(expr.other)
            )
        if isinstance(expr, cast.Cast):
            return self._is_pure(expr.operand)
        if isinstance(expr, cast.Swizzle):
            return self._is_pure(expr.base)
        if isinstance(expr, cast.VectorLiteral):
            return all(self._is_pure(el) for el in expr.elements)
        if isinstance(expr, cast.Call):
            if vector_memory_builtin(expr.func) is not None:
                return False  # touches a buffer
            if expr.func in BUILTIN_WORKITEM_FUNCTIONS | BUILTIN_MATH_FUNCTIONS:
                return all(self._is_pure(a) for a in expr.args)
            return False
        return False  # Index (buffer load), Assign, anything unknown

    # -- plans ------------------------------------------------------------------

    def _element_width(self, param: str, line: int) -> int | None:
        types = self.program.param_types[self.ir.name]
        ty = types.get(param)
        if not isinstance(ty, T.PointerType):
            raise UnsupportedKernelError(
                f"indexed parameter {param!r} at line {line} is not a buffer"
            )
        pointee = ty.pointee
        if isinstance(pointee, T.VectorType):
            return pointee.width
        return None

    def _plan_for(self, n_items: int, sizes: Mapping[str, int]) -> _Plan:
        key = (n_items, tuple(sorted(sizes.items())))
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        plan = self._build_plan(n_items, sizes)
        if len(self._plans) >= _PLAN_CACHE_SIZE:
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan

    def _build_plan(self, n_items: int, sizes: Mapping[str, int]) -> _Plan:
        env = build_domain_env(self.ir, n_items)
        pctx = _VCtx(env, {}, n_items)
        for name, fn, ty in self._pure_decls:
            if fn is None:
                value: object = (
                    np.zeros(ty.width, dtype=ty.dtype)
                    if isinstance(ty, T.VectorType)
                    else ty.dtype.type(0)  # type: ignore[union-attr]
                )
            else:
                value = cast_value(fn(pctx), ty)
            env[name] = value
        sel: list[object] = []
        sel_len: list[int] = []
        for site in self._sites:
            size = sizes[site.param]
            width = site.width or 1
            if size % width:
                raise UnsupportedKernelError(
                    f"buffer {site.param!r} size {size} not divisible by "
                    f"vector width {width}"
                )
            rows = size // width
            idx = np.asarray(site.index(pctx), dtype=np.int64)
            if np.any(idx < 0) or np.any(idx >= rows):
                raise UnsupportedKernelError(
                    f"out-of-bounds access to {site.param!r} at line {site.line}"
                )
            sel_len.append(int(idx.shape[0]) if idx.ndim == 1 else -1)
            sel.append(_lower_selection(idx))
        return _Plan(env_base=env, sel=sel, sel_len=sel_len)

    # -- launches ----------------------------------------------------------------

    @staticmethod
    def _n_items(global_size: tuple[int, ...] | int) -> int:
        if isinstance(global_size, int):
            global_size = (global_size,)
        if len(global_size) != 1:
            raise UnsupportedKernelError(
                "vectorized execution supports 1-D NDRanges only"
            )
        return int(global_size[0])

    def _check_hazards(
        self, buffers: Mapping[str, tuple[np.ndarray, T.Type]]
    ) -> None:
        """Refuse launches where slice *views* could observe a store.

        The gather-based lanes copy on load; this lane reads through
        views, so an output array aliasing an input or another output
        must fall back.
        """
        for w in self._writes:
            for r in self._reads:
                if np.may_share_memory(buffers[w][0], buffers[r][0]):
                    raise UnsupportedKernelError(
                        f"output {w!r} may alias input {r!r}; "
                        "array-lane views are unsafe"
                    )
        for i, w in enumerate(self._writes):
            for other in self._writes[i + 1 :]:
                if np.may_share_memory(buffers[w][0], buffers[other][0]):
                    raise UnsupportedKernelError(
                        "output buffers alias each other; array-lane "
                        "store order is not defined"
                    )

    def _make_views(
        self, buffers: Mapping[str, tuple[np.ndarray, T.Type]]
    ) -> dict[tuple[str, int | None], np.ndarray]:
        views: dict[tuple[str, int | None], np.ndarray] = {}
        for key in self._view_keys:
            name, width = key
            arr = buffers[name][0]
            views[key] = arr if width is None else arr.reshape(-1, width)
        return views

    def run(
        self,
        global_size: tuple[int, ...] | int,
        args: Mapping[str, object],
        local_size: tuple[int, ...] | None = None,
    ) -> None:
        """Execute the kernel. Signature mirrors the interpreter's."""
        n_items = self._n_items(global_size)
        scalars: dict[str, object] = {}
        buffers = bind_arguments(self.program, self.ir, args, scalars)
        self._check_hazards(buffers)
        sizes = {name: arr.size for name, (arr, _ty) in buffers.items()}
        plan = self._plan_for(n_items, sizes)
        env = dict(plan.env_base)
        env.update(scalars)
        ctx = _VCtx(env, dict(buffers), n_items)
        ctx.views = self._make_views(buffers)
        ctx.sel = plan.sel
        ctx.sel_len = plan.sel_len
        for step in self._steps:
            step(ctx)


class _VecCompiler(_Compiler):
    """The closure compiler, with memory sites routed through the plan.

    Everything except loads/stores reuses :class:`~repro.oclc.compile._Compiler`
    verbatim — same primitives, same closures, bit-identical values. The
    memory overrides require domain-pure indices, register a
    :class:`_Site`, and emit closures that index pre-built views with
    pre-lowered selections (no per-launch index evaluation, no
    per-launch bounds check).
    """

    def __init__(self, program: CheckedProgram, owner: VectorKernel):
        super().__init__(program)
        self.owner = owner

    def _site(
        self, param: str, width: int | None, index_expr: cast.Expr, line: int
    ) -> int:
        if not self.owner._is_pure(index_expr):
            raise UnsupportedKernelError(
                f"index into {param!r} at line {line} is not a pure function "
                "of the iteration domain"
            )
        site_id = len(self.owner._sites)
        self.owner._sites.append(
            _Site(param=param, width=width, index=self.expr(index_expr), line=line)
        )
        return site_id

    def _load(self, expr: cast.Index):
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        name, line = expr.base.name, expr.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, expr.index, line)
        view_key = (name, width)

        def run_load(ctx: _VCtx) -> object:
            return ctx.views[view_key][ctx.sel[site]]

        return run_load

    def _store(self, target: cast.Index):
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        name, line = target.base.name, target.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, target.index, line)
        view_key = (name, width)

        def run_store(ctx: _VCtx, value: object) -> None:
            _store_selected(
                ctx.views[view_key], ctx.sel[site], ctx.sel_len[site], value
            )

        return run_store

    def _vector_memory(self, expr: cast.Call, vec_mem: tuple[str, int]):
        kind, width = vec_mem
        ptr_expr = expr.args[-1]
        if not isinstance(ptr_expr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer at line {expr.line}"
            )
        name, line = ptr_expr.name, expr.line
        # an explicit-width view, independent of the element type
        self.owner._element_width(name, line)  # must be a buffer
        view_key = (name, width)
        if kind == "load":
            site = self._site(name, width, expr.args[0], line)

            def run_vload(ctx: _VCtx) -> object:
                return ctx.views[view_key][ctx.sel[site]]

            return run_vload
        data_fn = self.expr(expr.args[0])
        site = self._site(name, width, expr.args[1], line)

        def run_vstore(ctx: _VCtx) -> object:
            _store_selected(
                ctx.views[view_key],
                ctx.sel[site],
                ctx.sel_len[site],
                data_fn(ctx),
            )
            return None

        return run_vstore
