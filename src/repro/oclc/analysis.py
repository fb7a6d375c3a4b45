"""Static analysis: extract a device-model-facing IR from checked kernels.

The device performance models never execute kernel code; they consume a
:class:`KernelIR` describing

* the **launch shape** the kernel expects (NDRange work-items vs a
  single work-item with a flat or nested loop — the paper's
  "loop management" parameter);
* the **loop nest** (induction variables, constant-resolved trip
  counts, unroll factors);
* every **global-memory access** (which argument, read or write,
  element width, and the index expression), plus an affine
  classification giving the per-loop-variable stride;
* kernel **attributes** (``reqd_work_group_size``,
  ``num_simd_work_items``, ``num_compute_units``, the ``xcl_*``
  SDAccel attributes);
* an **arithmetic intensity** estimate (ALU ops per innermost
  iteration), used by models to decide compute- vs memory-boundedness.

The same walk also derives a **quasi-affine** form for each index
(:class:`QuasiAffine`): a sum of ``coef * ((v // d) % m)`` terms over
``gid0`` and loop variables, e.g. the strided variant's
``(g % NI) * NJ + g / NI``. The array lane lowers that form to a slice
or a strided view per launch geometry without evaluating the index
(:mod:`repro.oclc.vectorize`); the device models keep reading the
affine classification.

Index expressions outside both fragments are still usable:
:func:`index_stream` evaluates any supported index expression
*numerically*, vectorized over the iteration domain; the device models
sample that stream for a dominant stride.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..errors import SemanticError, UnsupportedKernelError
from ..ocl import types as T
from . import cast
from .semantic import (
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    vector_memory_builtin,
)

__all__ = [
    "LoopMode",
    "LoopInfo",
    "AffineIndex",
    "QuasiTerm",
    "QuasiRange",
    "QuasiAffine",
    "MemAccess",
    "KernelIR",
    "analyze",
    "index_stream",
]


class LoopMode(enum.Enum):
    """The paper's "kernel loop management" axis."""

    NDRANGE = "ndrange"
    FLAT = "flat"
    NESTED = "nested"

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.value


@dataclass(frozen=True)
class LoopInfo:
    """One counted loop of the kernel's loop nest (outermost first)."""

    var: str
    start: int
    bound: int
    step: int
    unroll: int = 1
    depth: int = 0

    @property
    def trip_count(self) -> int:
        if self.step <= 0:
            raise UnsupportedKernelError(f"non-positive loop step in {self.var}")
        if self.bound <= self.start:
            return 0
        return (self.bound - self.start + self.step - 1) // self.step


@dataclass(frozen=True)
class QuasiTerm:
    """``coef * ((var // div) % mod)``; ``mod`` None means no modulo."""

    coef: int
    var: str
    div: int = 1
    mod: int | None = None


@dataclass(frozen=True)
class QuasiRange:
    """A sub-expression that must stay within its type's value range.

    The quasi-affine form computes with unbounded integers; the kernel
    computes each sub-expression in its OpenCL type. The two agree iff
    every sub-expression's value fits ``[lo, hi]``.
    """

    terms: tuple[QuasiTerm, ...]
    const: int
    lo: int
    hi: int


@dataclass(frozen=True)
class QuasiAffine:
    """An index as ``const + sum(terms)``, exact under ``checks``.

    ``/`` and ``%`` appear only by positive constants on operands that
    are non-negative, where C truncation equals floor division.
    ``names`` lists the variables the expression reads: without one
    from the iteration domain, its numeric value is a scalar rather
    than a per-item stream.
    """

    terms: tuple[QuasiTerm, ...]
    const: int
    names: frozenset[str]
    checks: tuple[QuasiRange, ...]


@dataclass(frozen=True)
class AffineIndex:
    """``sum(coeffs[v] * v) + const`` over loop/gid variables, if affine.

    ``quasi`` is the index's quasi-affine form, or None outside that
    fragment; an affine index has one with plain terms only.
    """

    coeffs: Mapping[str, int]
    const: int
    is_affine: bool = True
    quasi: QuasiAffine | None = None

    def stride_of(self, var: str) -> int:
        return int(self.coeffs.get(var, 0))


@dataclass(frozen=True)
class MemAccess:
    """One static global-memory access site in the kernel body."""

    param: str
    element: T.Type
    index: cast.Expr
    is_write: bool
    affine: AffineIndex
    line: int = 0
    #: number of counted loops enclosing the access site (0 = outside
    #: the loop nest, e.g. a reduction epilogue store)
    depth: int = 0

    @property
    def element_bytes(self) -> int:
        return self.element.size

    @property
    def vector_width(self) -> int:
        return self.element.width if isinstance(self.element, T.VectorType) else 1


@dataclass(frozen=True)
class KernelIR:
    """Everything a device model needs to cost a kernel.

    Frozen: one IR per checked kernel is shared by every device build,
    the array lane and the search scorer (:func:`analyze`).
    """

    name: str
    program: CheckedProgram
    func: cast.FunctionDef
    loop_mode: LoopMode
    loops: tuple[LoopInfo, ...]
    accesses: tuple[MemAccess, ...]
    attributes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    alu_ops_per_iteration: int = 0
    mul_ops_per_iteration: int = 0
    uses_double: bool = False
    has_control_flow: bool = False
    gid_vars: tuple[str, ...] = ()

    @property
    def reads(self) -> tuple[MemAccess, ...]:
        return tuple(a for a in self.accesses if not a.is_write)

    @property
    def writes(self) -> tuple[MemAccess, ...]:
        return tuple(a for a in self.accesses if a.is_write)

    @property
    def vector_width(self) -> int:
        """Widest vector element among global accesses (1 = scalar)."""
        return max((a.vector_width for a in self.accesses), default=1)

    @property
    def unroll_factor(self) -> int:
        """Innermost-loop unroll factor (1 when not unrolled/ndrange)."""
        inner = self.innermost_loop
        if inner is None:
            return 1
        hint = self.attributes.get("opencl_unroll_hint")
        if hint:
            return max(1, hint[0])
        return max(1, inner.unroll)

    @property
    def innermost_loop(self) -> Optional[LoopInfo]:
        return self.loops[-1] if self.loops else None

    def iterations_per_work_item(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.trip_count
        return total

    def bytes_per_iteration(self) -> int:
        """Global-memory traffic of one innermost iteration (all accesses)."""
        return sum(a.element_bytes for a in self.accesses)

    def elements_per_iteration(self) -> int:
        """Scalar words touched per innermost iteration."""
        return sum(a.vector_width for a in self.accesses)


# ---------------------------------------------------------------------------
# Analysis entry point
# ---------------------------------------------------------------------------


def analyze(program: CheckedProgram, kernel_name: str | None = None) -> KernelIR:
    """The :class:`KernelIR` for a kernel of a checked program.

    A pure function of ``(program, kernel)``, so the IR is built once
    and memoized on the program (``CheckedProgram.kernel_irs``).
    """
    func = program.kernel(kernel_name)
    ir = program.kernel_irs.get(func.name)
    if ir is None:
        ir = program.kernel_irs.setdefault(func.name, _Analyzer(program, func).run())
    return ir


class _Analyzer:
    def __init__(self, program: CheckedProgram, func: cast.FunctionDef):
        self.program = program
        self.func = func
        self.consts: dict[str, int] = {}
        self.gid_aliases: dict[str, str] = {}  # local name -> "gid0"/"gid1"/"gid2"
        self.expr_aliases: dict[str, "cast.Expr"] = {}  # local name -> defining expr
        self.const_inits: dict[str, "cast.Expr"] = {}  # const local -> its init
        self.decl_types: dict[str, T.Type] = {}
        self.loops: list[LoopInfo] = []
        self.accesses: list[MemAccess] = []
        self.alu_ops = 0
        self.mul_ops = 0
        self.has_control_flow = False
        self.uses_gid_directly = False

    def run(self) -> KernelIR:
        self._walk_stmt(self.func.body, depth=0)
        attrs = {a.name: a.args for a in self.func.attributes}
        gid_vars = tuple(sorted(set(self.gid_aliases.values())))
        if self.uses_gid_directly and "gid0" not in gid_vars:
            gid_vars = tuple(sorted(set(gid_vars) | {"gid0"}))
        mode = self._loop_mode(gid_vars)
        program = self.program
        uses_double = any(
            isinstance(a.element, (T.ScalarType, T.VectorType))
            and a.element.is_float()
            and a.element.kind.size == 8  # type: ignore[union-attr]
            for a in self.accesses
        )
        return KernelIR(
            name=self.func.name,
            program=program,
            func=self.func,
            loop_mode=mode,
            loops=tuple(self.loops),
            accesses=tuple(self.accesses),
            attributes=attrs,
            alu_ops_per_iteration=self.alu_ops,
            mul_ops_per_iteration=self.mul_ops,
            uses_double=uses_double,
            has_control_flow=self.has_control_flow,
            gid_vars=gid_vars,
        )

    def _loop_mode(self, gid_vars: tuple[str, ...]) -> LoopMode:
        counted = len(self.loops)
        if counted == 0:
            return LoopMode.NDRANGE
        if counted == 1:
            return LoopMode.FLAT
        return LoopMode.NESTED

    # -- statement walk -------------------------------------------------------

    def _walk_stmt(self, stmt: cast.Stmt, depth: int) -> None:
        if isinstance(stmt, cast.Block):
            for s in stmt.body:
                self._walk_stmt(s, depth)
        elif isinstance(stmt, cast.DeclStmt):
            self._note_decl(stmt)
            if stmt.init is not None:
                # integer locals are (almost always) index computations;
                # their arithmetic belongs to address generation, not the
                # data path, so it does not count toward ALU/DSP cost
                ty = T.parse_type_name(stmt.type_name)
                is_index_math = isinstance(ty, T.ScalarType) and ty.is_integer()
                self._walk_expr(stmt.init, depth, addr=is_index_math)
        elif isinstance(stmt, cast.ExprStmt):
            self._walk_expr(stmt.expr, depth)
        elif isinstance(stmt, cast.For):
            info = self._loop_info(stmt, depth)
            self.loops.append(info)
            self._walk_stmt(stmt.body, depth + 1)
        elif isinstance(stmt, cast.If):
            self.has_control_flow = True
            self._walk_expr(stmt.cond, depth)
            self._walk_stmt(stmt.then, depth)
            if stmt.other is not None:
                self._walk_stmt(stmt.other, depth)
        elif isinstance(stmt, cast.While):
            self.has_control_flow = True
            self._walk_expr(stmt.cond, depth)
            self._walk_stmt(stmt.body, depth)
        elif isinstance(stmt, cast.Return):
            if stmt.value is not None:
                self._walk_expr(stmt.value, depth)
        elif isinstance(stmt, (cast.Break, cast.Continue)):
            self.has_control_flow = True
        elif isinstance(stmt, cast.Pragma):
            pass
        else:  # pragma: no cover
            raise UnsupportedKernelError(f"unhandled stmt {type(stmt).__name__}")

    def _note_decl(self, stmt: cast.DeclStmt) -> None:
        init = stmt.init
        if init is None:
            return
        self.decl_types[stmt.name] = T.parse_type_name(stmt.type_name)
        # gid alias: size_t i = get_global_id(D);
        if (
            isinstance(init, cast.Call)
            and init.func == "get_global_id"
            and len(init.args) == 1
            and isinstance(init.args[0], cast.IntLiteral)
        ):
            self.gid_aliases[stmt.name] = f"gid{init.args[0].value}"
            return
        value = self._const_eval(init)
        if value is not None:
            self.consts[stmt.name] = value
            self.const_inits[stmt.name] = init
        else:
            # remember the defining expression so index analysis can see
            # through locals like `idx = (g % NI) * NJ + g / NI`
            self.expr_aliases[stmt.name] = init

    def _loop_info(self, stmt: cast.For, depth: int) -> LoopInfo:
        init = stmt.init
        var: Optional[str] = None
        start: Optional[int] = None
        if isinstance(init, cast.DeclStmt):
            var = init.name
            start = self._const_eval(init.init) if init.init is not None else 0
        elif isinstance(init, cast.ExprStmt) and isinstance(init.expr, cast.Assign):
            tgt = init.expr.target
            if isinstance(tgt, cast.Ident):
                var = tgt.name
                start = self._const_eval(init.expr.value)
        if var is None or start is None:
            raise UnsupportedKernelError(
                f"cannot analyze loop header at line {stmt.line}: "
                "need 'var = <const>' initialization"
            )
        bound = self._loop_bound(stmt.cond, var, stmt.line)
        step = self._loop_step(stmt.step, var, stmt.line)
        return LoopInfo(
            var=var, start=start, bound=bound, step=step, unroll=stmt.unroll, depth=depth
        )

    def _loop_bound(self, cond: Optional[cast.Expr], var: str, line: int) -> int:
        if not isinstance(cond, cast.Binary) or cond.op not in ("<", "<="):
            raise UnsupportedKernelError(
                f"loop at line {line} must use 'var < bound' or 'var <= bound'"
            )
        if not (isinstance(cond.left, cast.Ident) and cond.left.name == var):
            raise UnsupportedKernelError(
                f"loop condition at line {line} must test the induction variable"
            )
        bound = self._const_eval(cond.right)
        if bound is None:
            raise UnsupportedKernelError(
                f"loop bound at line {line} is not a compile-time constant"
            )
        return bound + 1 if cond.op == "<=" else bound

    def _loop_step(self, step: Optional[cast.Expr], var: str, line: int) -> int:
        if step is None:
            raise UnsupportedKernelError(f"loop at line {line} has no step")
        if isinstance(step, cast.Unary) and step.op in ("++", "p++"):
            return 1
        if isinstance(step, cast.Assign) and isinstance(step.target, cast.Ident):
            if step.target.name != var:
                raise UnsupportedKernelError(
                    f"loop step at line {line} must update the induction variable"
                )
            if step.op == "+=":
                value = self._const_eval(step.value)
                if value is not None:
                    return value
            if step.op == "=" and isinstance(step.value, cast.Binary):
                b = step.value
                if (
                    b.op == "+"
                    and isinstance(b.left, cast.Ident)
                    and b.left.name == var
                ):
                    value = self._const_eval(b.right)
                    if value is not None:
                        return value
        raise UnsupportedKernelError(
            f"unsupported loop step at line {line} (need ++, += const)"
        )

    # -- expression walk ----------------------------------------------------------

    def _walk_expr(
        self, expr: cast.Expr, depth: int, store: bool = False, addr: bool = False
    ) -> None:
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral, cast.Ident)):
            return
        if isinstance(expr, cast.Assign):
            self._walk_expr(expr.value, depth)
            if isinstance(expr.target, cast.Index):
                self._record_access(expr.target, depth, is_write=True)
                self._walk_expr(expr.target.index, depth, addr=True)
            else:
                self._walk_expr(expr.target, depth, store=True)
            if expr.op != "=":
                self.alu_ops += 1
                # compound assignment to memory also reads the target
                if isinstance(expr.target, cast.Index):
                    self._record_access(expr.target, depth, is_write=False)
            return
        if isinstance(expr, cast.Index):
            self._record_access(expr, depth, is_write=False)
            self._walk_expr(expr.index, depth, addr=True)
            return
        if isinstance(expr, cast.Binary):
            # address arithmetic lives in the LSU's address generator,
            # not the data path; only data ops count toward ALU/DSP cost
            if not addr:
                if expr.op in ("+", "-", "*", "/", "%"):
                    self.alu_ops += 1
                if expr.op in ("*", "/"):
                    self.mul_ops += 1
            self._walk_expr(expr.left, depth, addr=addr)
            self._walk_expr(expr.right, depth, addr=addr)
            return
        if isinstance(expr, cast.Unary):
            if not addr and expr.op in ("-", "~", "++", "--", "p++", "p--"):
                self.alu_ops += 1
            self._walk_expr(expr.operand, depth, addr=addr)
            return
        if isinstance(expr, cast.Conditional):
            self.has_control_flow = True
            self._walk_expr(expr.cond, depth)
            self._walk_expr(expr.then, depth)
            self._walk_expr(expr.other, depth)
            return
        if isinstance(expr, cast.Call):
            if expr.func == "get_global_id":
                self.uses_gid_directly = True
            vec_mem = vector_memory_builtin(expr.func)
            if vec_mem is not None:
                self._record_vector_memory(expr, vec_mem, depth)
                return
            if expr.func in ("fma", "mad", "mad24"):
                self.alu_ops += 2
                self.mul_ops += 1
            elif expr.func in ("mul24",):
                self.alu_ops += 1
                self.mul_ops += 1
            elif expr.func not in BUILTIN_WORKITEM_FUNCTIONS:
                self.alu_ops += 1
            for a in expr.args:
                self._walk_expr(a, depth)
            return
        if isinstance(expr, (cast.Swizzle, cast.Cast)):
            inner = expr.base if isinstance(expr, cast.Swizzle) else expr.operand
            self._walk_expr(inner, depth)
            return
        if isinstance(expr, cast.VectorLiteral):
            for el in expr.elements:
                self._walk_expr(el, depth)
            return
        raise UnsupportedKernelError(f"unhandled expr {type(expr).__name__}")

    def _record_access(self, expr: cast.Index, depth: int, is_write: bool) -> None:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(
                f"only direct parameter indexing is supported (line {expr.line})"
            )
        name = expr.base.name
        param_ty = self.program.param_types[self.func.name].get(name)
        if not isinstance(param_ty, T.PointerType):
            raise UnsupportedKernelError(
                f"indexing non-buffer {name!r} at line {expr.line}"
            )
        if param_ty.address_space != "__global":
            return  # local/constant memory is not modelled as DRAM traffic
        affine = self._affine(expr.index)
        self.accesses.append(
            MemAccess(
                param=name,
                element=param_ty.pointee,
                index=expr.index,
                is_write=is_write,
                affine=affine,
                line=expr.line,
                depth=depth,
            )
        )

    def _record_vector_memory(
        self, expr: cast.Call, vec_mem: tuple[str, int], depth: int
    ) -> None:
        """vloadN/vstoreN: a vector-width access through a scalar pointer."""
        kind, width = vec_mem
        if kind == "load":
            offset, ptr = expr.args
        else:
            data, offset, ptr = expr.args
            self._walk_expr(data, depth)
        self._walk_expr(offset, depth, addr=True)
        if not isinstance(ptr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer (line {expr.line})"
            )
        param_ty = self.program.param_types[self.func.name].get(ptr.name)
        if not isinstance(param_ty, T.PointerType):
            raise UnsupportedKernelError(
                f"vload/vstore on non-buffer {ptr.name!r} at line {expr.line}"
            )
        if param_ty.address_space != "__global":
            return
        assert isinstance(param_ty.pointee, T.ScalarType)
        element = T.vector(param_ty.pointee.kind.name, width)
        self.accesses.append(
            MemAccess(
                param=ptr.name,
                element=element,
                index=offset,
                is_write=(kind == "store"),
                affine=self._affine(offset),
                line=expr.line,
                depth=depth,
            )
        )

    # -- constant & affine evaluation ------------------------------------------

    def _const_eval(self, expr: Optional[cast.Expr]) -> Optional[int]:
        if expr is None:
            return None
        if isinstance(expr, cast.IntLiteral):
            return expr.value
        if isinstance(expr, cast.Ident):
            return self.consts.get(expr.name)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            inner = self._const_eval(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, cast.Cast):
            return self._const_eval(expr.operand)
        if isinstance(expr, cast.Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if left is None or right is None:
                return None
            try:
                return {
                    "+": lambda: left + right,
                    "-": lambda: left - right,
                    "*": lambda: left * right,
                    "/": lambda: int(left / right) if right else None,
                    "%": lambda: left - int(left / right) * right if right else None,
                    "<<": lambda: left << right,
                    ">>": lambda: left >> right,
                }[expr.op]()
            except KeyError:
                return None
        return None

    def _affine(self, expr: cast.Expr) -> AffineIndex:
        try:
            form = self._affine_walk(expr)
        except _NotAffine:
            return AffineIndex(coeffs={}, const=0, is_affine=False)
        quasi = None
        if form.lowerable:
            quasi = QuasiAffine(
                terms=_term_tuple(form.terms),
                const=form.const,
                names=frozenset(form.names),
                checks=tuple(dict.fromkeys(form.checks)),
            )
        if not form.affine:
            return AffineIndex(coeffs={}, const=0, is_affine=False, quasi=quasi)
        coeffs = {var: coef for (var, _div, _mod), coef in form.terms.items()}
        return AffineIndex(coeffs=coeffs, const=form.const, is_affine=True, quasi=quasi)

    def _affine_walk(self, expr: cast.Expr) -> "_Form":
        """One walk for both forms: affine coefficients and quasi-affine terms.

        Raises :class:`_NotAffine` outside the quasi-affine fragment. A
        ``/`` or ``%`` clears ``affine`` (the device models classify such
        sites by sampling); anything the array lane cannot lower exactly
        clears ``lowerable``.
        """
        if isinstance(expr, cast.IntLiteral):
            return self._typed(_Form({}, expr.value), expr)
        if isinstance(expr, cast.Ident):
            return self._ident_form(expr.name)
        if isinstance(expr, cast.Call) and expr.func == "get_global_id":
            arg = expr.args[0]
            if isinstance(arg, cast.IntLiteral):
                var = f"gid{arg.value}"
                return _Form({(var, 1, None): 1}, 0, names={var})
            raise _NotAffine()
        if isinstance(expr, cast.Cast):
            return self._typed(self._affine_walk(expr.operand), expr)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            inner = self._affine_walk(expr.operand)
            inner.terms = {k: -v for k, v in inner.terms.items()}
            inner.const = -inner.const
            return self._typed(inner, expr)
        if isinstance(expr, cast.Binary):
            if expr.op in ("+", "-"):
                left = self._affine_walk(expr.left)
                right = self._affine_walk(expr.right)
                sign = 1 if expr.op == "+" else -1
                merged = dict(left.terms)
                for k, v in right.terms.items():
                    merged[k] = merged.get(k, 0) + sign * v
                form = left.join(right)
                form.terms = {k: v for k, v in merged.items() if v}
                form.const = left.const + sign * right.const
                return self._typed(form, expr)
            if expr.op == "*":
                lconst = self._const_eval(expr.left)
                rconst = self._const_eval(expr.right)
                if lconst is not None:
                    factor, const_side, other = lconst, expr.left, expr.right
                elif rconst is not None:
                    factor, const_side, other = rconst, expr.right, expr.left
                else:
                    raise _NotAffine()
                form = self._affine_walk(other)
                form.absorb(self._const_form(const_side, factor))
                form.terms = {k: v * factor for k, v in form.terms.items()}
                form.const *= factor
                return self._typed(form, expr)
            if expr.op == "<<":
                shift = self._const_eval(expr.right)
                if shift is not None:
                    form = self._affine_walk(expr.left)
                    factor = 1 << shift
                    form.terms = {k: v * factor for k, v in form.terms.items()}
                    form.const *= factor
                    # numpy shifts of mixed-signedness operands do not
                    # follow C promotion; leave them to numeric evaluation
                    form.lowerable = False
                    return form
                raise _NotAffine()
            if expr.op in ("/", "%"):
                return self._typed(self._quasi_divmod(expr), expr)
        raise _NotAffine()

    def _quasi_divmod(self, expr: cast.Binary) -> "_Form":
        """``x / c`` or ``x % c`` for a constant ``c > 0`` and ``x >= 0``."""
        divisor = self._const_eval(expr.right)
        if divisor is None or divisor <= 0:
            raise _NotAffine()
        form = self._affine_walk(expr.left)
        form.absorb(self._const_form(expr.right, divisor))
        form.affine = False
        if not form.terms:
            if form.const < 0:
                raise _NotAffine()
            form.const = (
                form.const // divisor if expr.op == "/" else form.const % divisor
            )
            return form
        if len(form.terms) != 1 or form.const != 0:
            raise _NotAffine()
        ((var, div, mod), coef), = form.terms.items()
        if coef != 1 or not self._non_negative(var):
            raise _NotAffine()
        if mod is not None and mod % divisor:
            raise _NotAffine()
        if expr.op == "/":
            key = (var, div * divisor, None if mod is None else mod // divisor)
        else:
            key = (var, div, divisor)
        form.terms = {key: 1}
        return form

    def _ident_form(self, name: str) -> "_Form":
        # a local that shares a loop variable's name is rebound by the
        # domain at run time; only the affine view may resolve it
        shadows_loop = any(loop.var == name for loop in self.loops)
        if name in self.consts:
            value = self.consts[name]
            form = _Form({}, value)
            init = self.const_inits.get(name)
            form.absorb(self._const_form(init, value) if init is not None else None)
            form.lowerable = form.lowerable and not shadows_loop
            return self._typed_as(form, self.decl_types.get(name))
        if name in self.gid_aliases:
            var = self.gid_aliases[name]
            form = _Form({(var, 1, None): 1}, 0, names={var})
            form.lowerable = not shadows_loop
            return self._typed_as(form, self.decl_types.get(name))
        if name in self.expr_aliases:
            alias = self.expr_aliases.pop(name)  # cycle guard
            try:
                form = self._affine_walk(alias)
            finally:
                self.expr_aliases[name] = alias
            form.lowerable = form.lowerable and not shadows_loop
            return self._typed_as(form, self.decl_types.get(name))
        return _Form({(name, 1, None): 1}, 0, names={name})

    def _const_form(self, expr: cast.Expr, value: int) -> "_Form | None":
        """The checks of a constant operand, or None if its evaluation
        might differ from ``value`` (``_const_eval`` uses unbounded ints)."""
        try:
            form = self._affine_walk(expr)
        except _NotAffine:
            return None
        if form.terms or form.const != value:
            return None
        return form

    def _non_negative(self, var: str) -> bool:
        if var.startswith("gid"):
            return True
        loop = next((lp for lp in self.loops if lp.var == var), None)
        return loop is not None and loop.start >= 0 and loop.step > 0

    def _typed(self, form: "_Form", expr: cast.Expr) -> "_Form":
        try:
            ty: T.Type | None = self.program.type_of(expr)
        except SemanticError:
            ty = None
        return self._typed_as(form, ty)

    def _typed_as(self, form: "_Form", ty: T.Type | None) -> "_Form":
        """Record that ``form``'s value must fit ``ty``, as C computes it."""
        bounds = _value_range(ty)
        if bounds is None:
            form.lowerable = False
        elif not form.terms:
            # a constant: decide now
            if not bounds[0] <= form.const <= bounds[1]:
                form.lowerable = False
        else:
            form.checks.append(
                QuasiRange(_term_tuple(form.terms), form.const, *bounds)
            )
        return form


#: integer values numpy may carry through float64 when it promotes mixed
#: signed/unsigned 64-bit operands; beyond this the form falls back
_EXACT_FLOAT_INT = 1 << 53


def _value_range(ty: T.Type | None) -> tuple[int, int] | None:
    """Values an integer scalar type holds exactly, or None."""
    if not isinstance(ty, T.ScalarType) or not ty.is_integer():
        return None
    bits = 8 * ty.kind.size
    if ty.kind.signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return max(lo, -_EXACT_FLOAT_INT), min(hi, _EXACT_FLOAT_INT)


def _term_tuple(terms: Mapping[tuple[str, int, int | None], int]) -> tuple[QuasiTerm, ...]:
    return tuple(
        QuasiTerm(coef, var, div, mod) for (var, div, mod), coef in terms.items() if coef
    )


@dataclass
class _Form:
    """The walk's result for one sub-expression (see ``_affine_walk``)."""

    terms: dict[tuple[str, int, int | None], int]
    const: int
    names: set[str] = field(default_factory=set)
    affine: bool = True
    lowerable: bool = True
    checks: list[QuasiRange] = field(default_factory=list)

    def join(self, other: "_Form") -> "_Form":
        """A form carrying both operands' flags, names and checks."""
        return _Form(
            {},
            0,
            names=self.names | other.names,
            affine=self.affine and other.affine,
            lowerable=self.lowerable and other.lowerable,
            checks=self.checks + other.checks,
        )

    def absorb(self, operand: "_Form | None") -> None:
        """Take a constant operand's names and checks (None: not exact)."""
        if operand is None:
            self.lowerable = False
            return
        self.names |= operand.names
        self.lowerable = self.lowerable and operand.lowerable
        self.checks += operand.checks


class _NotAffine(Exception):
    pass


# ---------------------------------------------------------------------------
# Numeric index streams
# ---------------------------------------------------------------------------


def index_stream(
    ir: KernelIR,
    access: MemAccess,
    *,
    global_size: int = 1,
    max_elements: int | None = None,
) -> np.ndarray:
    """Element-index stream of ``access`` over the full iteration domain.

    The domain is the cartesian product of the NDRange (size
    ``global_size``, variable ``gid0``) and the counted loop nest,
    innermost varying fastest — i.e. program order for a single
    work-item, work-item-major across the range. Evaluation is
    vectorized; non-affine expressions (``%``, ``/``) are supported.

    ``max_elements`` truncates the stream (leading window) for sampled
    simulation of very large domains.
    """
    # (var, start, step, extent) per axis; the window is decoded from
    # the flat positions without materialising any full-length axis
    domain: list[tuple[str, int, int, int]] = []
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars:
        domain.append(("gid0", 0, 1, global_size))
    for loop in ir.loops:
        extent = len(range(loop.start, loop.bound, loop.step))
        domain.append((loop.var, loop.start, loop.step, extent))
    if not domain:
        domain = [("gid0", 0, 1, global_size)]

    total = math.prod(extent for *_head, extent in domain)
    limit = total if max_elements is None else min(total, max_elements)

    env: dict[str, np.ndarray] = {}
    rem = np.arange(limit, dtype=np.int64)
    # innermost (last domain entry) varies fastest
    for var, start, step, extent in reversed(domain):
        env[var] = start + step * (rem % extent)
        rem = rem // extent
    evaluator = _IndexEval(env, ir)
    return evaluator.eval(access.index)


class _IndexEval:
    """Vectorized integer evaluation of index expressions."""

    def __init__(self, env: dict[str, np.ndarray], ir: KernelIR):
        self.env = env
        self.ir = ir
        helper = _Analyzer(ir.program, ir.func)
        helper._walk_stmt(ir.func.body, depth=0)
        self._analyzer_consts = helper.consts
        self._gid_aliases = helper.gid_aliases
        self._expr_aliases = dict(helper.expr_aliases)

    def eval(self, expr: cast.Expr) -> np.ndarray:
        if isinstance(expr, cast.IntLiteral):
            return np.int64(expr.value)  # type: ignore[return-value]
        if isinstance(expr, cast.Ident):
            name = expr.name
            if name in self.env:
                return self.env[name]
            if name in self._gid_aliases and self._gid_aliases[name] in self.env:
                return self.env[self._gid_aliases[name]]
            if name in self._analyzer_consts:
                return np.int64(self._analyzer_consts[name])  # type: ignore[return-value]
            if name in self._expr_aliases:
                alias = self._expr_aliases.pop(name)  # cycle guard
                try:
                    return self.eval(alias)
                finally:
                    self._expr_aliases[name] = alias
            raise UnsupportedKernelError(
                f"index uses unknown variable {name!r} at line {expr.line}"
            )
        if isinstance(expr, cast.Call) and expr.func == "get_global_id":
            return self.env["gid0"]
        if isinstance(expr, cast.Cast):
            return self.eval(expr.operand)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            return -self.eval(expr.operand)
        if isinstance(expr, cast.Binary):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            ops = {
                "+": np.add,
                "-": np.subtract,
                "*": np.multiply,
                "/": lambda a, b: np.asarray(a) // np.asarray(b),
                "%": lambda a, b: np.asarray(a) % np.asarray(b),
                "<<": np.left_shift,
                ">>": np.right_shift,
                "&": np.bitwise_and,
                "|": np.bitwise_or,
                "^": np.bitwise_xor,
            }
            if expr.op not in ops:
                raise UnsupportedKernelError(
                    f"unsupported operator {expr.op!r} in index at line {expr.line}"
                )
            return ops[expr.op](left, right)
        raise UnsupportedKernelError(
            f"unsupported index expression at line {expr.line}"
        )
