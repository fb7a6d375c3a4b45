"""Differential oracles for the CPU and GPU models' memory terms.

Both models decide cache reuse with one analytic rule,
``far_reuse_miss_fraction``, and the GPU model charges one memory
segment per strided access. The exact simulators in ``repro.memsim``
check both on the paper's own design points:

* the exact LRU :class:`Cache`, with the spec's LLC (cpu) or L2 (gpu)
  geometry, is driven with the full address stream of every Fig 2
  strided point (copy, int, vector width 1, NDRange);
* :func:`coalesce_fixed_groups`, with the spec's warp and segment size,
  is driven with the full address stream of a pattern x dtype x width
  x size grid on the gpu.

Every cell where model and oracle disagree is pinned below with its
reason (docs/MODELING.md, "Known deviations"). A cell fails when its
status changes in either direction, so the pinned set cannot go stale.
"""

from __future__ import annotations

import pytest

from repro.core.params import AccessPattern, DataType, KernelName, TuningParameters
from repro.devices.base import profile_accesses
from repro.memsim import Cache, coalesce_fixed_groups, far_reuse_miss_fraction
from repro.oclc.analysis import index_stream
from repro.units import KIB, MIB
from repro.verify.metamorphic import _model_launch

#: accesses fed to the exact cache per call; its state carries over, so
#: chunking only bounds the memory of the simulator's Python lists
_CHUNK = 1 << 16

#: absolute miss-fraction band within which rule and simulator agree
_MISS_BAND = 0.01

_SET_ALIASING = (
    "power-of-two column stride: the column's {lines} lines map onto "
    "{sets} of the {num_sets} sets, {per_set} lines per set against "
    "{ways} ways, so LRU evicts every line before its revisit (exact "
    "miss fraction 1.0); the rule sees only capacity and predicts {rule}"
)

#: Fig 2 strided cells where the exact cache disagrees with the rule
CACHE_DEVIATIONS = {
    "cpu-16MiB": _SET_ALIASING.format(
        lines=2048, sets=64, num_sets=8192, per_set=32, ways=20, rule="1/16"
    ),
    "cpu-64MiB": _SET_ALIASING.format(
        lines=4096, sets=32, num_sets=8192, per_set=128, ways=20, rule="1/16"
    ),
    "gpu-1KiB": (
        "the 64-B column stride is below the 128-B L2 line, so "
        "_reuse_window gives the stream no far reuse and the rule predicts "
        "1.0; in fact each line misses once for its 32 elements (exact 1/32)"
    ),
    "gpu-4MiB": _SET_ALIASING.format(
        lines=1024, sets=24, num_sets=768, per_set="about 43", ways=16, rule="1/32"
    ),
    "gpu-16MiB": _SET_ALIASING.format(
        lines=2048, sets=12, num_sets=768, per_set="about 171", ways=16, rule="1/32"
    ),
    "gpu-64MiB": _SET_ALIASING.format(
        lines=4096, sets=6, num_sets=768, per_set="about 683", ways=16, rule="1/32"
    ),
}

_WARP_SPANS_COLUMNS = (
    "a column holds only {rows} rows, fewer than the 32 lanes of a warp, "
    "so one warp walks {cols} neighbouring columns and lanes on the same "
    "row of neighbouring columns share a 128-B segment; the model charges "
    "one segment per strided access"
)

#: gpu cells where the coalescer's transaction count differs from the model's
COALESCE_DEVIATIONS = {
    "strided-int-vec1-1KiB": _WARP_SPANS_COLUMNS.format(rows=16, cols=2)
    + ", and the 64-B stride puts two rows in one segment",
    "strided-int-vec4-1KiB": _WARP_SPANS_COLUMNS.format(rows=8, cols=4),
    "strided-int-vec16-1KiB": _WARP_SPANS_COLUMNS.format(rows=4, cols=8),
    "strided-int-vec16-16KiB": _WARP_SPANS_COLUMNS.format(rows=16, cols=2),
    "strided-double-vec1-1KiB": _WARP_SPANS_COLUMNS.format(rows=8, cols=4),
    "strided-double-vec4-1KiB": _WARP_SPANS_COLUMNS.format(rows=4, cols=8),
    "strided-double-vec4-16KiB": _WARP_SPANS_COLUMNS.format(rows=16, cols=2),
}


def _size_name(size: int) -> str:
    return f"{size // MIB}MiB" if size >= MIB else f"{size // KIB}KiB"


def _streams(target: str, params: TuningParameters):
    """The model, its cache, and each distinct access stream's profile
    and byte addresses."""
    model, plan, launch = _model_launch(target, params)
    cache = model.spec.llc if target == "cpu" else model.spec.l2
    ir = plan.ir
    profiles = profile_accesses(ir, launch, line_bytes=cache.line_bytes)
    seen = set()
    streams = []
    for access, profile in zip(ir.accesses, profiles):
        key = (access.index, access.element_bytes)
        if key in seen:  # copy reads and writes through one index
            continue
        seen.add(key)
        stream = index_stream(ir, access, global_size=launch.work_items)
        streams.append((profile, stream * access.element_bytes))
    return model, cache, streams


def _cache_cells():
    for target in ("cpu", "gpu"):
        for k in range(9):  # Fig 2 sizes, 1 KiB ... 64 MiB
            size = KIB * 4**k
            slow = (pytest.mark.slow,) if size > 4 * MIB else ()
            yield pytest.param(target, size, id=f"{target}-{_size_name(size)}", marks=slow)


@pytest.mark.parametrize("target,size", _cache_cells())
def test_reuse_rule_against_exact_cache(target, size):
    params = TuningParameters(
        kernel=KernelName.COPY, array_bytes=size, pattern=AccessPattern.STRIDED
    )
    model, config, streams = _streams(target, params)
    agrees = True
    for profile, addresses in streams:
        rule = far_reuse_miss_fraction(
            profile.reuse_window_bytes, profile.element_bytes, config
        )
        # the model's own miss fraction is the rule's
        if target == "cpu":
            traffic = model._stream_traffic(profile)
            modeled = 1.0 - traffic["llc_bytes"] / profile.useful_bytes
        else:
            modeled = model._segments(profile)["dram_tx"] / profile.n_accesses
        assert modeled == pytest.approx(rule)

        cache = Cache(config)
        for lo in range(0, addresses.size, _CHUNK):
            cache.access(addresses[lo : lo + _CHUNK])
        exact = cache.stats.miss_ratio
        agrees &= abs(exact - rule) <= _MISS_BAND
    cell = f"{target}-{_size_name(size)}"
    assert agrees == (cell not in CACHE_DEVIATIONS), (
        f"{cell}: exact miss fraction {exact:.4f}, rule {rule:.4f}; "
        f"pinned deviation: {CACHE_DEVIATIONS.get(cell, 'none')}"
    )


def _coalesce_cells():
    for pattern in AccessPattern:
        for dtype in (DataType.INT, DataType.DOUBLE):
            for width in (1, 4, 16):
                for size in (KIB, 16 * KIB, MIB):
                    name = f"{pattern.value}-{dtype}-vec{width}-{_size_name(size)}"
                    yield pytest.param(pattern, dtype, width, size, id=name)


@pytest.mark.parametrize("pattern,dtype,width,size", _coalesce_cells())
def test_gpu_segments_against_coalescer(pattern, dtype, width, size):
    params = TuningParameters(
        kernel=KernelName.COPY,
        array_bytes=size,
        pattern=pattern,
        dtype=dtype,
        vector_width=width,
    )
    model, _, streams = _streams("gpu", params)
    spec = model.spec
    agrees = True
    for profile, addresses in streams:
        segments = model._segments(profile)
        modeled = segments["dram_tx"] + segments["l2_tx"]
        exact = coalesce_fixed_groups(
            addresses,
            profile.element_bytes,
            group_size=spec.warp_size,
            segment_bytes=spec.segment_bytes,
        ).transactions
        agrees &= modeled == exact
    cell = f"{pattern.value}-{dtype}-vec{width}-{_size_name(size)}"
    assert agrees == (cell not in COALESCE_DEVIATIONS), (
        f"{cell}: model {modeled:g} transactions, coalescer {exact}; "
        f"pinned deviation: {COALESCE_DEVIATIONS.get(cell, 'none')}"
    )
