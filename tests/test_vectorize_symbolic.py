"""Symbolic index plans against their numeric oracle.

The array lane lowers every quasi-affine index (``coef * ((v // d) % m)``
terms) to a slice or a strided view without evaluating it over the
iteration domain. The numeric evaluation it replaced — the domain
environment plus the compiled index closure — stays as the fallback and
is the oracle here: wherever the symbolic lowering answers, it must
select the same rows in the same order, refuse exactly when the numeric
index leaves the buffer (with the same message), and otherwise decline
so the numeric path runs.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import generate
from repro.core.kernels import KERNELS, SCALAR_Q, initial_arrays
from repro.core.params import AccessPattern, DataType, KernelName, TuningParameters
from repro.errors import UnsupportedKernelError
from repro.oclc import (
    compile_kernel,
    compile_source,
    compile_source_cached,
    index_stream,
    vectorize_kernel,
)
from repro.oclc.interp import BufferArg
from repro.oclc.specialize import domain_axes
from repro.oclc.vectorize import (
    _ARENA,
    _lower_quasi,
    _lower_selection,
    _out_of_bounds,
    _Strided,
)
from repro.verify.conformance import variant_grid


def _numeric(kernel, site, n_items: int) -> np.ndarray:
    return np.asarray(site.index(kernel._plan_ctx(n_items)), dtype=np.int64)


def _expand(sel: object, rows: int) -> np.ndarray:
    """The rows a selection picks, in order."""
    base = np.arange(rows, dtype=np.int64)
    if isinstance(sel, _Strided):
        return sel.load(base)
    return np.asarray(base[sel])


def _outcomes(kernel, n_items: int, rows_of) -> list[str]:
    """Compare every site's symbolic lowering with numeric evaluation.

    Returns per site ``"lowered"``, ``"fallback"`` or ``"refused"``.
    """
    axes = domain_axes(kernel.ir, n_items)
    out = []
    for site in kernel._sites:
        rows = rows_of(site)
        idx = _numeric(kernel, site, n_items)
        out_of_bounds = bool(np.any(idx < 0) or np.any(idx >= rows))
        if site.quasi is None:
            out.append("fallback")
            continue
        try:
            lowered = _lower_quasi(site, axes, rows)
        except UnsupportedKernelError as exc:
            assert out_of_bounds, "symbolic bounds refused an in-bounds index"
            assert str(exc) == str(_out_of_bounds(site))
            out.append("refused")
            continue
        if lowered is None:
            out.append("fallback")
            continue
        assert not out_of_bounds, "symbolic bounds missed an out-of-bounds index"
        sel, length = lowered
        assert length == (idx.shape[0] if idx.ndim == 1 else -1)
        got = _expand(sel, rows)
        assert got.shape == idx.shape
        assert np.array_equal(got, idx)
        numeric_sel = _lower_selection(idx)
        if isinstance(numeric_sel, slice):  # a constant stride stays a slice
            assert sel == numeric_sel
        out.append("lowered")
    return out


def _vk(source: str, defines: dict[str, int] | None = None):
    program = compile_source(source, {k: str(v) for k, v in (defines or {}).items()})
    return vectorize_kernel(program), program


def _run_both(program, n_items: int, arrays: dict[str, np.ndarray], scalars=None):
    """Outputs of the array lane and the compiled lane (or their refusal)."""
    results = []
    for factory in (vectorize_kernel, compile_kernel):
        bufs = {k: v.copy() for k, v in arrays.items()}
        args = {k: BufferArg(v) for k, v in bufs.items()}
        args.update(scalars or {})
        try:
            factory(program).run((n_items,), args)
        except UnsupportedKernelError:
            results.append(None)
            continue
        results.append({k: v.view(np.uint8).tobytes() for k, v in bufs.items()})
    return results


# -- random quasi-affine kernels ------------------------------------------------

#: loop variables per mode, with the divisors that split each one's extent
#: into whole digits (``g`` and ``t`` run over NI * NJ, ``i`` over NI,
#: ``j`` over NJ)
_VARS = {
    "ndrange": {"g": "NI"},
    "flat": {"t": "NI"},
    "nested": {"i": "NI", "j": "NJ"},
}


@st.composite
def _index(draw, variables: dict[str, str], dividing: bool) -> str:
    """A random quasi-affine index over ``variables``."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.sampled_from(sorted(variables)))
        coef = draw(st.sampled_from(["-3", "-1", "0", "1", "2", "3", "NI", "NJ"]))
        if dividing:
            d = draw(st.sampled_from(["1", variables[v]]))
            shape = draw(st.sampled_from(["v", "v % D", "v / D"]))
            if v in ("g", "t") and draw(st.booleans()):
                shape = "(v / NI) % NJ"
            expr = shape.replace("v", v).replace("D", d)
        else:
            shape = draw(st.sampled_from(
                ["v", "v % M", "v / D", "(v / D) % M", "(v % M) / D", "(v % M) % D"]
            ))
            expr = (
                shape.replace("v", v)
                .replace("M", str(draw(st.integers(1, 9))))
                .replace("D", str(draw(st.integers(1, 9))))
            )
        parts.append(f"{coef} * ({expr})")
    return " + ".join(parts)


@st.composite
def quasi_kernels(draw, dividing: bool):
    mode = draw(st.sampled_from(sorted(_VARS)))
    return dict(
        mode=mode,
        ni=draw(st.integers(1, 8)),
        nj=draw(st.integers(1, 8)),
        width=(width := draw(st.sampled_from([1, 2, 4]))),
        vload=width > 1 and draw(st.booleans()),
        unroll=draw(st.sampled_from([1, 2, 4])),
        index=draw(_index(_VARS[mode], dividing)),
        idx_type=draw(st.sampled_from(["int", "long", "size_t"])),
        gid_type="int" if dividing else draw(st.sampled_from(["int", "size_t"])),
    )


def _source(case: dict, idx_type: str, offset: int) -> str:
    width, vload, unroll = case["width"], case["vload"], case["unroll"]
    elem = "float" if width == 1 or vload else f"float{width}"
    if vload:
        body = f"vstore{width}(vload{width}(idx, a), idx, c);"
    else:
        body = "c[idx] = a[idx];"
    decl = f"{idx_type} idx = {case['index']} + {offset};"
    pragma = f"#pragma unroll {unroll}\n" if unroll > 1 else ""
    sig = f"__kernel void k(__global const {elem} *a, __global {elem} *c)"
    if case["mode"] == "ndrange":
        gid = f"{case['gid_type']} g = get_global_id(0);"
        return f"{sig} {{ {gid} {decl} {body} }}"
    if case["mode"] == "flat":
        return f"{sig} {{\n{pragma}for (int t = 0; t < NI * NJ; t++) {{ {decl} {body} }} }}"
    return (
        f"{sig} {{ for (int j = 0; j < NJ; j++) {{\n{pragma}"
        f"for (int i = 0; i < NI; i++) {{ {decl} {body} }} }} }}"
    )


def _check_case(case: dict, shift: int, slack: int) -> list[str]:
    defines = {"NI": case["ni"], "NJ": case["nj"]}
    n_items = case["ni"] * case["nj"] if case["mode"] == "ndrange" else 1
    # place the index range at the buffer's start, give or take a word,
    # so most cases are in bounds and both edges get exercised
    probe, _ = _vk(_source(case, "long", 0), defines)
    raw = _numeric(probe, probe._sites[0], n_items)
    lo, hi = int(raw.min()), int(raw.max())
    if max(abs(lo), abs(hi)) > 1 << 20:
        lo = hi = 0  # wrapped unsigned arithmetic: the lanes must agree anyway
    offset = shift - lo
    rows = max(1, hi - lo + 1 + max(shift, 0) + slack)
    kernel, program = _vk(_source(case, case["idx_type"], offset), defines)
    outcomes = _outcomes(kernel, n_items, lambda site: rows)
    words = rows * case["width"]
    arrays = {
        "a": np.arange(words, dtype=np.float32) + 1,
        "c": np.zeros(words, dtype=np.float32),
    }
    vec, comp = _run_both(program, n_items, arrays)
    assert (vec is None) == (comp is None)
    assert vec == comp
    return outcomes


@settings(max_examples=300, deadline=None)
@given(quasi_kernels(dividing=False), st.integers(-1, 1), st.integers(-1, 1))
def test_symbolic_selection_matches_numeric_oracle(case, shift, slack):
    """Element for element, refusal for refusal, on random index forms:
    non-dividing divisors, zero and negative coefficients, unsigned
    wrap-around, every loop mode, vector widths, unroll, vload/vstore."""
    _check_case(case, shift, slack)


@settings(max_examples=150, deadline=None)
@given(quasi_kernels(dividing=True), st.integers(-1, 1), st.integers(-1, 1))
def test_dividing_forms_always_lower(case, shift, slack):
    """Forms whose divisors split the extents never need the fallback for
    a load; a store falls back only when its map repeats a row."""
    outcomes = _check_case(case, shift, slack)
    if case["idx_type"] != "size_t":  # a negative coefficient may wrap it
        assert outcomes[0] in ("lowered", "refused")


@pytest.mark.parametrize("mode", ["ndrange", "flat"])
@pytest.mark.parametrize("index", [
    "(v % NI) * NJ + v / NI",  # the strided variant's column-major walk
    "v % NI + v / NI",  # equal strides on adjacent digits: not one slice
    "(v / NI) % NJ + NJ * (v % NI)",
    "-(v % NI) + NI * (v / NI)",  # a reversed axis
    "0 * v + (v / NI) * NI",  # a broadcast axis
    "(v % (NI * NJ)) / NI",
    "((v % (NI * NJ)) % NI) * NJ",
    "NI * NJ - 1 - v",
])
def test_known_forms_match_numeric_oracle(mode, index):
    for ni, nj in ((1, 1), (1, 5), (4, 1), (3, 4), (4, 4), (8, 2)):
        case = dict(
            mode=mode, ni=ni, nj=nj, width=1, vload=False, unroll=1,
            index=index.replace("v", "g" if mode == "ndrange" else "t"),
            idx_type="long", gid_type="int",
        )
        outcomes = _check_case(case, shift=0, slack=0)
        assert outcomes[0] == "lowered", (index, ni, nj)


def test_mixed_signedness_arithmetic_matches_compiled_lane():
    """``uint + int`` is ``uint`` in OpenCL but int64 in numpy: such a
    node must not compute into a ``uint`` scratch array."""
    kernel, program = _vk(
        "__kernel void k(__global const uint *a, __global const int *b,"
        " __global uint *c) { size_t g = get_global_id(0); c[g] = a[g] + b[g]; }"
    )
    arrays = {
        "a": np.arange(64, dtype=np.uint32) * 7,
        "b": -np.arange(64, dtype=np.int32),
        "c": np.zeros(64, dtype=np.uint32),
    }
    _vec, comp = _run_both(program, 64, arrays)
    for _ in range(2):  # cold, then warm with scratch
        c = arrays["c"].copy()
        args = {"a": BufferArg(arrays["a"]), "b": BufferArg(arrays["b"]), "c": BufferArg(c)}
        kernel.run((64,), args)
        assert c.tobytes() == comp["c"]


def test_fig2_walk_is_a_transposed_view():
    """``(g % NI) * NJ + g / NI`` is ``reshape(NI, NJ).T``: no index array."""
    params = TuningParameters(array_bytes=64 * 1024, pattern=AccessPattern.STRIDED)
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    kernel = vectorize_kernel(checked, gen.kernel_name)
    ni, nj = gen.defines["NI"], gen.defines["NJ"]
    sizes = {name: params.word_count for name in ("a", "c")}
    plan = kernel._plan_for(gen.global_size[0], sizes)
    for sel in plan.sel:
        assert sel == _Strided(
            offset=0, shape=(nj, ni), strides=(1, nj), flip=None, length=ni * nj
        )
    assert plan.env_base == {}
    x = np.arange(ni * nj)
    assert np.array_equal(plan.sel[0].load(x), x.reshape(ni, nj).T.reshape(-1))


@pytest.mark.parametrize("kernel_name", list(KernelName), ids=lambda k: k.value)
@pytest.mark.parametrize("array_bytes", [4096, 4080])
def test_conformance_grid_lowers_every_site(kernel_name, array_bytes):
    """No refusal, no numeric fallback and no domain env on the grid."""
    for dtype in DataType:
        for params in variant_grid(kernel_name, dtype, array_bytes):
            gen = generate(params)
            checked = compile_source_cached(
                gen.source, {k: str(v) for k, v in gen.defines.items()}
            )
            kernel = vectorize_kernel(checked, gen.kernel_name)
            n_items = gen.global_size[0]
            outcomes = _outcomes(
                kernel, n_items, lambda site: params.word_count // (site.width or 1)
            )
            assert outcomes == ["lowered"] * len(outcomes), params.describe()
            assert not kernel._needs_env, params.describe()


def test_out_of_fragment_forms_have_no_symbolic_form():
    for index in ("(g * g) % 64", "(g + 1) % 8", "(2 * g) / 4", "g % (g + 1)"):
        kernel, _ = _vk(
            "__kernel void k(__global const int *a, __global int *c)"
            f"{{ size_t g = get_global_id(0); c[g] = a[{index}]; }}"
        )
        load = next(s for s in kernel._sites if not s.is_write)
        assert load.quasi is None, index


def test_int32_wrapping_form_falls_back():
    """``t * 65536 * 65536`` wraps to 0 in ``int``: the symbolic form
    (unbounded) would leave the buffer, so the site is evaluated
    numerically and the kernel runs as the compiled lane does."""
    kernel, program = _vk(
        "__kernel void k(__global const int *a, __global int *c)"
        "{ for (int t = 0; t < 64; t++) { int idx = t * 65536 * 65536 + t;"
        " c[t] = a[idx]; } }"
    )
    assert _outcomes(kernel, 1, lambda site: 64) == ["fallback", "lowered"]
    arrays = {"a": np.arange(64, dtype=np.int32), "c": np.zeros(64, dtype=np.int32)}
    vec, comp = _run_both(program, 1, arrays)
    assert vec is not None and vec == comp


def test_non_injective_store_falls_back():
    kernel, program = _vk(
        "__kernel void k(__global const int *a, __global int *c)"
        "{ size_t g = get_global_id(0); c[g / 2] = a[g]; }"
    )
    by_kind = dict(zip(
        ("load" if not s.is_write else "store" for s in kernel._sites),
        _outcomes(kernel, 64, lambda site: 64),
    ))
    assert by_kind == {"load": "lowered", "store": "fallback"}
    arrays = {"a": np.arange(64, dtype=np.int32), "c": np.zeros(64, dtype=np.int32)}
    vec, comp = _run_both(program, 64, arrays)
    assert vec is not None and vec == comp


def test_out_of_bounds_refuses_with_the_numeric_message():
    source = (
        "__kernel void k(__global const int *a, __global int *c)\n"
        "{ size_t g = get_global_id(0);\n c[(g % 8) * 8 + g / 8 + 1] = a[g]; }"
    )
    messages = []
    for symbolic in (True, False):
        kernel, _ = _vk(source)
        if not symbolic:
            for site in kernel._sites:
                site.quasi = None
        with pytest.raises(UnsupportedKernelError) as exc:
            kernel._plan_for(64, {"a": 64, "c": 64})
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "out-of-bounds access to 'c' at line 3"


def test_runtime_read_of_a_domain_variable_builds_the_env():
    kernel, program = _vk(
        "__kernel void k(__global const float *a, __global float *c)"
        "{ size_t g = get_global_id(0); c[g] = a[g] + (float)g; }"
    )
    assert kernel._needs_env
    arrays = {"a": np.ones(32, dtype=np.float32), "c": np.zeros(32, dtype=np.float32)}
    vec, comp = _run_both(program, 32, arrays)
    assert vec is not None and vec == comp


def test_sampled_index_stream_is_a_prefix_and_stays_small():
    """The stride sampler's window decodes from flat positions: the same
    stream as the full one, without full-length axes."""
    params = TuningParameters(array_bytes=4 * 2**20, pattern=AccessPattern.STRIDED)
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    ir = vectorize_kernel(checked, gen.kernel_name).ir
    access = ir.accesses[0]
    n = gen.global_size[0]
    full = index_stream(ir, access, global_size=n)
    tracemalloc.start()
    try:
        window = index_stream(ir, access, global_size=n, max_elements=8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(window, full[:8192])
    assert peak < n * 8 // 8


# -- warm launches ------------------------------------------------------------


def _triad(words: int):
    params = TuningParameters(
        kernel=KernelName.TRIAD, dtype=DataType.FLOAT, array_bytes=words * 4,
        vector_width=4,
    )
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    arrays = initial_arrays(params.word_count, params.dtype)
    spec = KERNELS[params.kernel]
    call = {name: BufferArg(arrays[name]) for name in (*spec.reads, spec.writes)}
    call["q"] = SCALAR_Q
    return vectorize_kernel(checked, gen.kernel_name), gen, call


def test_warm_launch_allocates_nothing_n_sized():
    words = 1 << 20
    kernel, gen, call = _triad(words)
    kernel.run(gen.global_size, call)  # cold: plan + scratch
    tracemalloc.start()
    try:
        kernel.run(gen.global_size, call)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < words * 4 // 16


@pytest.mark.parametrize("body", [
    "c[g] = a[g] + q * b[g];",
    "c[g] = (a[g] + b[g]) * (a[g] - b[g]) + q;",
    "float x = a[g] * b[g]; c[g] = x * (x + q) - (a[g] + b[g]) * x;",
    "float x = a[g] - q; float y = x * x; c[g] = y + x * (y - x);",
    "float4 v = (float4)(a[g] * q); c[g] = v.x + v.w * b[g];",
])
def test_scratch_reuse_matches_compiled_lane_on_warm_launches(body):
    """Nodes write into scratch and overwrite their operand nodes' dead
    results in place; locals read twice must never be overwritten."""
    kernel, program = _vk(
        "__kernel void k(__global const float *a, __global const float *b,"
        f" __global float *c, const float q) {{ size_t g = get_global_id(0); {body} }}"
    )
    rng = np.random.default_rng(5)
    arrays = {
        "a": rng.standard_normal(256).astype(np.float32),
        "b": rng.standard_normal(256).astype(np.float32),
        "c": np.zeros(256, dtype=np.float32),
    }
    _vec, comp = _run_both(program, 256, arrays, {"q": 1.5})
    for _ in range(3):  # cold, then warm launches on the same plan
        c = np.zeros(256, dtype=np.float32)
        args = {"a": BufferArg(arrays["a"]), "b": BufferArg(arrays["b"]),
                "c": BufferArg(c), "q": 1.5}
        kernel.run((256,), args)
        assert c.view(np.uint8).tobytes() == comp["c"]


def _arrays(scratch) -> list[np.ndarray]:
    """The arrays a scratch pool holds (each entry's own array)."""
    return [entry[2] for entry in scratch.values() if entry[2] is not None]


def test_a_different_plan_drops_the_previous_scratch():
    big, big_gen, big_call = _triad(1 << 16)
    big.run(big_gen.global_size, big_call)
    held = _ARENA.scratch
    assert _arrays(held) and all(buf.size == 1 << 16 for buf in _arrays(held))
    small, small_gen, small_call = _triad(1 << 10)
    small.run(small_gen.global_size, small_call)
    assert _ARENA.scratch is not held
    assert all(buf.size == 1 << 10 for buf in _arrays(_ARENA.scratch))
