"""OpenCL-C kernel source generation.

Mirrors the real MP-STREAM build scripts: every point of the tuning
space becomes concrete kernel *source text* — loop style, vector types,
unroll pragmas and vendor attributes included — which then goes through
the same front-end and device compilers as hand-written code. The
generated source is part of the public API (``generate(params).source``)
so users can inspect exactly what each configuration runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .kernels import KERNELS
from .params import AccessPattern, LoopManagement, TuningParameters

__all__ = ["GeneratedKernel", "generate"]


@dataclass(frozen=True)
class GeneratedKernel:
    """A concrete kernel build for one parameter point."""

    source: str
    kernel_name: str
    defines: dict[str, int]
    global_size: tuple[int, ...]
    local_size: Optional[tuple[int, ...]]
    #: scalar words per array the kernel actually touches
    touched_words: int
    params: TuningParameters

    @cached_property
    def frontend_key(self) -> tuple:
        """:func:`repro.oclc.frontend_key` of this build, computed once."""
        from ..oclc import frontend_key

        return frontend_key(self.source, self.defines)


def generate(params: TuningParameters) -> GeneratedKernel:
    """Generate the kernel for one tuning-parameter point."""
    spec = KERNELS[params.kernel]
    ty = params.type_name
    kernel_name = f"mpstream_{params.kernel.value}"
    two_d = (
        params.loop is LoopManagement.NESTED
        or params.pattern is AccessPattern.STRIDED
    )
    if two_d:
        rows, cols = params.shape_2d()
        elements = rows * cols
        defines = {"NI": rows, "NJ": cols, "N": elements}
    else:
        elements = params.element_count
        defines = {"N": elements}

    # -- signature ---------------------------------------------------------------
    arg_ty = params.dtype.cname if params.use_vload else ty
    args = [f"__global const {arg_ty} *{name}" for name in spec.reads]
    args.append(f"__global {arg_ty} *{spec.writes}")
    if spec.uses_scalar:
        args.append(f"const {params.dtype.cname} q")
    attributes = _attributes(params)

    # -- body -------------------------------------------------------------------
    srcs = list(spec.reads)
    if params.use_vload:
        w = params.vector_width
        value_expr = spec.expression.format(
            dst="",
            src1=f"vload{w}(idx, {srcs[0]})",
            src2=f"vload{w}(idx, {srcs[1]})" if len(srcs) > 1 else "",
            q="q",
        )
        # "{dst} = <value>;" with dst empty -> " = <value>;": extract the RHS
        rhs = value_expr.split("=", 1)[1].strip().rstrip(";")
        body_expr = f"vstore{w}({rhs}, idx, {spec.writes});"
    else:
        body_expr = spec.expression.format(
            dst=f"{spec.writes}[idx]",
            src1=f"{srcs[0]}[idx]",
            src2=f"{srcs[1]}[idx]" if len(srcs) > 1 else "",
            q="q",
        )
    body = _loop_body(params, body_expr)

    lines = ["// generated by mp-stream"]
    if attributes:
        lines.append("__kernel " + " ".join(attributes))
        lines.append(f"void {kernel_name}({', '.join(args)}) {{")
    else:
        lines.append(f"__kernel void {kernel_name}({', '.join(args)}) {{")
    lines.extend("    " + line for line in body)
    lines.append("}")
    source = "\n".join(lines) + "\n"

    # -- launch shape ---------------------------------------------------------------
    if params.loop is LoopManagement.NDRANGE:
        global_size: tuple[int, ...] = (elements,)
        local_size = (
            (params.reqd_work_group_size,)
            if params.reqd_work_group_size
            else None
        )
    else:
        global_size = (1,)
        local_size = None

    return GeneratedKernel(
        source=source,
        kernel_name=kernel_name,
        defines=defines,
        global_size=global_size,
        local_size=local_size,
        touched_words=elements * params.vector_width,
        params=params,
    )


def _attributes(params: TuningParameters) -> list[str]:
    attrs: list[str] = []
    if params.reqd_work_group_size is not None:
        attrs.append(
            f"__attribute__((reqd_work_group_size({params.reqd_work_group_size}, 1, 1)))"
        )
    if params.num_simd_work_items > 1:
        attrs.append(
            f"__attribute__((num_simd_work_items({params.num_simd_work_items})))"
        )
    if params.num_compute_units > 1:
        attrs.append(
            f"__attribute__((num_compute_units({params.num_compute_units})))"
        )
    if params.xcl_pipeline_loop:
        attrs.append("__attribute__((xcl_pipeline_loop))")
    if params.xcl_pipeline_workitems:
        attrs.append("__attribute__((xcl_pipeline_workitems))")
    if params.xcl_max_memory_ports:
        attrs.append("__attribute__((xcl_max_memory_ports(1)))")
    if params.xcl_memory_port_width is not None:
        attrs.append(
            f"__attribute__((xcl_memory_port_data_width({params.xcl_memory_port_width})))"
        )
    return attrs


def _loop_body(params: TuningParameters, body_expr: str) -> list[str]:
    strided = params.pattern is AccessPattern.STRIDED
    unroll = (
        [f"#pragma unroll {params.unroll}"] if params.unroll > 1 else []
    )
    if params.loop is LoopManagement.NDRANGE:
        if strided:
            return [
                "size_t g = get_global_id(0);",
                "// column-major walk of the row-major NI x NJ array",
                "size_t idx = (g % NI) * NJ + g / NI;",
                body_expr,
            ]
        return [
            "size_t idx = get_global_id(0);",
            body_expr,
        ]
    if params.loop is LoopManagement.FLAT:
        if strided:
            return [
                *unroll,
                "for (int t = 0; t < N; t++) {",
                "    int idx = (t % NI) * NJ + t / NI;",
                f"    {body_expr}",
                "}",
            ]
        return [
            *unroll,
            "for (int idx = 0; idx < N; idx++) {",
            f"    {body_expr}",
            "}",
        ]
    # nested 2-D loops
    if strided:
        return [
            "for (int j = 0; j < NJ; j++) {",
            *("    " + u for u in unroll),
            "    for (int i = 0; i < NI; i++) {",
            "        int idx = i * NJ + j;",
            f"        {body_expr}",
            "    }",
            "}",
        ]
    return [
        "for (int i = 0; i < NI; i++) {",
        *("    " + u for u in unroll),
        "    for (int j = 0; j < NJ; j++) {",
        "        int idx = i * NJ + j;",
        f"        {body_expr}",
        "    }",
        "}",
    ]
