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
arguments. So each index is lowered *once per launch shape* to a
selection and bounds-checked once; the per-``(n_items, buffer sizes)``
result is cached as a launch *plan*, and a repeated launch is just the
statement closures over pre-lowered selections.

Lowering is symbolic wherever the analysis found a quasi-affine form
(:class:`~repro.oclc.analysis.QuasiAffine`, a sum of
``coef * ((v // d) % m)`` terms). Each domain axis splits into mixed-radix
"digits" at the terms' divisors, which makes the index a linear function
of the digits: O(#terms) work, no N-sized array. A constant stride
becomes a native slice (``c[gid] = a[gid]`` is ``c_view[0:N:1] =
a_view[0:N:1]``); anything else becomes an N-d strided view — the
strided variant's ``(g % NI) * NJ + g / NI`` is ``x.reshape(NI, NJ).T``.
Bounds come exactly from the digit form. Indices outside the fragment,
sub-expressions that could wrap in their OpenCL type and stores that
are not provably injective are evaluated numerically over the domain,
as before; that evaluation is also the symbolic lowering's oracle
(``tests/test_vectorize_symbolic.py``). The domain environment and the
plan-time locals are built only for those fallbacks and for kernels
whose runtime statements read a domain variable.

A warm launch allocates no N-sized temporaries: ``+ - *`` write into
scratch arrays when numpy's result type already is the expression's
type (the same bits as a fresh result), overwriting an operand node's
dead result in place where numpy would elide the temporary. Only the
most recently launched plan keeps its scratch, so a sweep over many
kernels holds one set.

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

import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..ocl import types as T
from . import cast
from .analysis import QuasiAffine
from .compile import _Compiler, _Ctx
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    vector_memory_builtin,
)
from .specialize import (
    SpecializedKernel,
    apply_binary,
    bind_arguments,
    build_domain_env,
    cast_value,
    domain_axes,
    scratch_shape,
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
    is_write: bool
    quasi: QuasiAffine | None  # None: evaluate the index numerically


@dataclass
class _Plan:
    """Everything launch-shape-dependent, computed once and cached."""

    env_base: dict[str, object]
    sel: list[object]  # per _Site: slice | _Strided | np.ndarray selection
    sel_len: list[int]  # per _Site: selected rows (-1: not a 1-D stream)


class _VCtx(_Ctx):
    """Per-launch state: compiled-lane ctx plus plan selections/views."""

    __slots__ = ("views", "sel", "sel_len", "scratch")


class _Scratch(dict):
    """Output arrays of the ``+ - *`` nodes, keyed by node, for one plan.

    Per node: its operands' dtypes and shapes, the output shape
    :func:`~repro.oclc.specialize.scratch_shape` allowed for them (so a
    warm launch decides without recomputing), the node's own array and
    the array its last result went to.
    """

    def buffer(
        self,
        slot: int,
        left: object,
        right: object,
        ty: T.Type,
        children: tuple[int, ...],
    ) -> np.ndarray | None:
        """The output array of node ``slot`` for these operands.

        When an operand *is* the result array of one of the node's
        operand nodes (``children``), that array is dead after this node
        and is overwritten in place, as numpy elides temporaries.
        """
        try:
            key = (left.dtype, right.dtype, left.shape, right.shape)  # type: ignore[attr-defined]
        except AttributeError:  # a Python scalar operand
            return None
        entry = self.get(slot)
        if entry is None or entry[0] != key:
            entry = self[slot] = [key, scratch_shape(left, right, ty), None, None]
        shape = entry[1]
        if shape is None:
            return None
        out = None
        for child in children:
            dead = self[child][3] if child in self else None
            if dead is not None and (dead is left or dead is right):
                if dead.shape == shape and dead.dtype == ty.dtype:  # type: ignore[union-attr]
                    out = dead
                    break
        if out is None:
            if entry[2] is None:
                entry[2] = np.empty(shape, ty.dtype)  # type: ignore[union-attr]
            out = entry[2]
        entry[3] = out
        return out


class _Arena(threading.local):
    """The scratch of the most recently launched plan, per thread."""

    def __init__(self) -> None:
        self.plan: _Plan | None = None
        self.scratch = _Scratch()

    def for_plan(self, plan: "_Plan") -> _Scratch:
        if self.plan is not plan:
            self.plan = plan
            self.scratch = _Scratch()
        return self.scratch


_ARENA = _Arena()


@dataclass(frozen=True)
class _Strided:
    """A selection as an N-d strided view of the rows of a buffer view.

    ``offset`` is the lowest selected row and every stride (in rows) is
    non-negative; ``flip`` reverses the axes whose stride is negative in
    the index. The view's C order is the iteration order.
    """

    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    flip: tuple[slice, ...] | None
    length: int

    def view(self, base: np.ndarray, writeable: bool) -> np.ndarray:
        row = base.strides[0]
        arr = as_strided(
            base[self.offset :],
            shape=self.shape + base.shape[1:],
            strides=tuple(s * row for s in self.strides) + base.strides[1:],
            writeable=writeable,
        )
        return arr if self.flip is None else arr[self.flip]

    def load(self, base: np.ndarray) -> np.ndarray:
        return self.view(base, False).reshape((self.length,) + base.shape[1:])

    def store(self, base: np.ndarray, value: np.ndarray) -> None:
        target = self.view(base, True)
        full = np.broadcast_to(value, (self.length,) + base.shape[1:])
        target[...] = full.reshape(target.shape)


def _out_of_bounds(site: _Site) -> UnsupportedKernelError:
    return UnsupportedKernelError(
        f"out-of-bounds access to {site.param!r} at line {site.line}"
    )


def _lower_quasi(
    site: _Site, axes: list[tuple[str, int, int, int]], rows: int
) -> tuple[object, int] | None:
    """Lower a quasi-affine index to ``(selection, length)`` in O(#terms).

    Returns None when the form cannot be lowered exactly for this
    geometry (the caller evaluates it numerically). Raises the plan's
    out-of-bounds refusal when the exact index range leaves the buffer.
    """
    quasi = site.quasi
    assert quasi is not None
    axis_of = {var: k for k, (var, *_rest) in enumerate(axes)}
    forms = (quasi, *quasi.checks)
    for form in forms:
        for term in form.terms:
            # an unbound gid0 reads as 0 (a single work-item launch)
            if term.var not in axis_of and term.var != "gid0":
                return None
    if not quasi.names & axis_of.keys():
        # no domain variable: the index is one scalar, as numerically
        if any(not r.lo <= r.const <= r.hi for r in quasi.checks):
            return None
        if not 0 <= quasi.const < rows:
            raise _out_of_bounds(site)
        return np.asarray(quasi.const, dtype=np.int64), -1
    total = math.prod(extent for *_head, extent in axes)
    if total == 0:
        return slice(0, 0, 1), 0

    # split each axis into digits at the divisors of its quasi terms
    cuts: list[set[int]] = [{1} for _ in axes]
    for form in forms:
        for term in form.terms:
            k = axis_of.get(term.var)
            if k is None or (term.div == 1 and term.mod is None):
                continue
            _var, start, step, extent = axes[k]
            if (start, step) != (0, 1):
                return None
            cuts[k].add(term.div)
            if term.mod is not None and term.div * term.mod < extent:
                cuts[k].add(term.div * term.mod)
    digits: list[tuple[int, int, int]] = []  # (axis, place value, extent), C order
    for k, (_var, _start, _step, extent) in enumerate(axes):
        places = sorted(cuts[k])
        bounds = places[1:] + [extent]
        if any(hi % lo for lo, hi in zip(places, bounds)):
            return None
        digits.extend(
            (k, lo, hi // lo) for lo, hi in reversed(list(zip(places, bounds)))
        )
    extents = [e for _k, _p, e in digits]

    def linear(form) -> tuple[list[int], int]:
        """The form as ``const + sum(stride_j * digit_j)``."""
        strides = [0] * len(digits)
        const = form.const
        for term in form.terms:
            k = axis_of.get(term.var)
            if k is None:
                continue  # unbound gid0
            _var, start, step, extent = axes[k]
            if term.div == 1 and term.mod is None:
                const += term.coef * start
                scale, lo, hi = term.coef * step, 1, extent
            else:
                scale, lo = term.coef, term.div
                hi = extent if term.mod is None else min(extent, lo * term.mod)
            for j, (axis, place, _e) in enumerate(digits):
                if axis == k and lo <= place < hi:
                    strides[j] += scale * (place // lo)
        return strides, const

    def value_range(strides: list[int], const: int) -> tuple[int, int]:
        lo = hi = const
        for s, e in zip(strides, extents):
            lo += min(0, s * (e - 1))
            hi += max(0, s * (e - 1))
        return lo, hi

    for check in quasi.checks:
        lo, hi = value_range(*linear(check))
        if lo < check.lo or hi > check.hi:
            return None  # the kernel's own arithmetic could wrap
    strides, const = linear(quasi)
    lo, hi = value_range(strides, const)
    if lo < 0 or hi >= rows:
        raise _out_of_bounds(site)
    live = [(e, s) for e, s in zip(extents, strides) if e > 1]
    if site.is_write and not _injective(live):
        return None
    merged: list[tuple[int, int]] = []
    for e, s in live:
        if merged and merged[-1][1] == s * e:
            merged[-1] = (merged[-1][0] * e, s)
        else:
            merged.append((e, s))
    if not merged:
        return slice(const, const + 1, 1), total
    if len(merged) == 1 and merged[0][1] > 0:
        e, s = merged[0]
        return slice(const, const + s * e, s), total
    flip = tuple(slice(None, None, -1 if s < 0 else None) for _e, s in merged)
    return (
        _Strided(
            offset=lo,
            shape=tuple(e for e, _s in merged),
            strides=tuple(abs(s) for _e, s in merged),
            flip=flip if any(s < 0 for _e, s in merged) else None,
            length=total,
        ),
        total,
    )


def _injective(digits: list[tuple[int, int]]) -> bool:
    """Sufficient test that ``sum(s * d)`` over the digits never repeats:
    each stride exceeds the largest sum of all smaller ones."""
    reach = 0
    for e, s in sorted(digits, key=lambda d: abs(d[1])):
        if abs(s) <= reach:
            return False
        reach += abs(s) * (e - 1)
    return True


def _lower_selection(idx: np.ndarray) -> object:
    """Lower a numerically evaluated index vector.

    A constant positive stride becomes a native slice: it selects the
    same elements in the same order, so values are bit-identical, but
    numpy serves it as a strided view instead of a gather/scatter.
    Anything else (indices outside the quasi-affine fragment, or a
    store whose symbolic form is not provably injective) stays a
    precomputed fancy index.
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
    if isinstance(sel, _Strided):
        sel.store(view, arr)
    else:
        view[sel] = arr


def _load_selected(view: np.ndarray, sel: object) -> object:
    return sel.load(view) if isinstance(sel, _Strided) else view[sel]


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
        # the analysis's quasi-affine form of each index, by AST node
        self._quasi = {id(a.index): a.affine.quasi for a in self.ir.accesses}
        #: does a runtime statement read the domain environment?
        self._needs_env = False
        self._scratch_slots = 0

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
        fn = comp.plan_expr(decl.init) if decl.init is not None else None
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
        axes = domain_axes(self.ir, n_items)
        numeric: list[_VCtx] = []  # the domain env, built on first need

        def numeric_ctx() -> _VCtx:
            if not numeric:
                numeric.append(self._plan_ctx(n_items))
            return numeric[0]

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
            lowered = None if site.quasi is None else _lower_quasi(site, axes, rows)
            if lowered is None:
                idx = np.asarray(site.index(numeric_ctx()), dtype=np.int64)
                if np.any(idx < 0) or np.any(idx >= rows):
                    raise _out_of_bounds(site)
                lowered = (
                    _lower_selection(idx),
                    int(idx.shape[0]) if idx.ndim == 1 else -1,
                )
            sel.append(lowered[0])
            sel_len.append(lowered[1])
        env_base = numeric_ctx().env if self._needs_env else {}
        return _Plan(env_base=env_base, sel=sel, sel_len=sel_len)

    def _plan_ctx(self, n_items: int) -> _VCtx:
        """The numeric domain environment plus the plan-time locals."""
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
        return pctx

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
        ctx.scratch = _ARENA.for_plan(plan) if self._scratch_slots else None
        for step in self._steps:
            step(ctx)


class _VecCompiler(_Compiler):
    """The closure compiler, with memory sites routed through the plan.

    Everything except loads/stores and ``+ - *`` reuses
    :class:`~repro.oclc.compile._Compiler` verbatim — same primitives,
    same closures, bit-identical values. The memory overrides require
    domain-pure indices, register a :class:`_Site`, and emit closures
    that index pre-built views with pre-lowered selections (no
    per-launch index evaluation, no per-launch bounds check). Runtime
    ``+ - *`` nodes get a scratch slot; plan-time expressions (index
    values and domain-pure locals, cached in the plan) never do.
    """

    def __init__(self, program: CheckedProgram, owner: VectorKernel):
        super().__init__(program)
        self.owner = owner
        self._plan_time = False
        self._slots: dict[int, int] = {}  # id(Binary node) -> scratch slot

    def plan_expr(self, expr: cast.Expr):
        """Compile an expression evaluated at plan time only."""
        outer, self._plan_time = self._plan_time, True
        try:
            return self.expr(expr)
        finally:
            self._plan_time = outer

    def expr(self, expr: cast.Expr):
        if self._plan_time:
            return super().expr(expr)
        if isinstance(expr, cast.Ident) and expr.name in self.owner._pure_names:
            self.owner._needs_env = True
        if isinstance(expr, cast.Binary) and expr.op in ("+", "-", "*"):
            return self._scratch_binary(expr)
        return super().expr(expr)

    def _scratch_binary(self, expr: cast.Binary):
        op, ty = expr.op, self.program.type_of(expr)
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        slot = self.owner._scratch_slots
        self.owner._scratch_slots += 1
        self._slots[id(expr)] = slot
        # an operand node's result is read by this node only (locals go
        # through the env), so this node may overwrite it in place
        children = tuple(
            self._slots[id(e)] for e in (expr.left, expr.right) if id(e) in self._slots
        )

        def run_binary(ctx: _VCtx) -> object:
            lv, rv = left(ctx), right(ctx)
            pool = ctx.scratch
            if pool is None:
                return apply_binary(op, lv, rv, ty)
            return apply_binary(
                op, lv, rv, ty,
                scratch=lambda a, b, t: pool.buffer(slot, a, b, t, children),
            )

        return run_binary

    def _workitem(self, expr: cast.Call, name: str):
        if not self._plan_time and name in ("get_global_id", "get_group_id"):
            self.owner._needs_env = True  # reads gid0 from the domain env
        return super()._workitem(expr, name)

    def reduction(self, var: str, value_expr: cast.Expr):
        # the accumulator starts from its plan-time initial value
        self.owner._needs_env = True
        return super().reduction(var, value_expr)

    def _site(
        self,
        param: str,
        width: int | None,
        index_expr: cast.Expr,
        line: int,
        is_write: bool,
    ) -> int:
        if not self.owner._is_pure(index_expr):
            raise UnsupportedKernelError(
                f"index into {param!r} at line {line} is not a pure function "
                "of the iteration domain"
            )
        site_id = len(self.owner._sites)
        self.owner._sites.append(
            _Site(
                param=param,
                width=width,
                index=self.plan_expr(index_expr),
                line=line,
                is_write=is_write,
                quasi=self.owner._quasi.get(id(index_expr)),
            )
        )
        return site_id

    def _load(self, expr: cast.Index):
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        name, line = expr.base.name, expr.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, expr.index, line, is_write=False)
        view_key = (name, width)

        def run_load(ctx: _VCtx) -> object:
            return _load_selected(ctx.views[view_key], ctx.sel[site])

        return run_load

    def _store(self, target: cast.Index):
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        name, line = target.base.name, target.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, target.index, line, is_write=True)
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
            site = self._site(name, width, expr.args[0], line, is_write=False)

            def run_vload(ctx: _VCtx) -> object:
                return _load_selected(ctx.views[view_key], ctx.sel[site])

            return run_vload
        data_fn = self.expr(expr.args[0])
        site = self._site(name, width, expr.args[1], line, is_write=True)

        def run_vstore(ctx: _VCtx) -> object:
            _store_selected(
                ctx.views[view_key],
                ctx.sel[site],
                ctx.sel_len[site],
                data_fn(ctx),
            )
            return None

        return run_vstore
