"""Differential gate for the whole-NDRange vectorized execution lane.

One kernel semantics, three drivers: the work-item interpreter
(``repro.oclc.interp``, the oracle), the compiled scalar lane
(``repro.oclc.compile``) and the vectorized whole-array lane
(``repro.oclc.vectorize``). The acceptance criterion throughout this
file is *bitwise* identity — ``output_checksum`` hashes raw array
bytes and :meth:`RunResult.fingerprint` hashes the full result row —
never tolerance-based closeness. The array lane either produces the
exact same bits as the other two lanes or it must refuse the kernel
with :class:`UnsupportedKernelError` (which the queue turns into a
silent per-kernel fallback); silent divergence is the one outcome
these tests exist to make impossible.

Covers: the full 13-variant conformance grid x 4 kernels x 3 dtypes,
ragged tails (sizes that leave unroll/nested-loop remainders),
relaunch idempotence and the engine's one functional pass per attempt,
lane selection/fallback plumbing, hypothesis fuzzing with greedy
shrinking, golden-corpus pinning, and the ``vectorize`` fault site's
negative path on both scheduler backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.oclc.compile as oclc_compile
import repro.oclc.vectorize as oclc_vectorize
from repro.cli import main
from repro.core import explore
from repro.core.engine import ExecutionEngine
from repro.core.generator import generate
from repro.core.history import point_fingerprint
from repro.core.kernels import KERNELS, SCALAR_Q, initial_arrays
from repro.core.params import (
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    TuningParameters,
)
from repro.core.runner import BenchmarkRunner
from repro.core.sweep import ParameterSweep
from repro.errors import UnsupportedKernelError
from repro.faults import FAULT_SITES, FaultPlan, FaultSpec, InjectedLaunchFault
from repro.obs import metrics as obs_metrics
from repro.oclc import compile_kernel, compile_source_cached, vectorize_kernel
from repro.oclc.interp import BufferArg
from repro.verify.conformance import (
    _VARIANT_AXES,
    interpret_point,
    output_checksum,
    random_point,
    shrink_failure,
    variant_grid,
)
from repro.verify.golden import DEFAULT_GOLDEN_PATH, corpus_grid, load_corpus
from repro.units import KIB

ARRAY_BYTES = 4096
ALL_KERNELS = tuple(KernelName)
ALL_DTYPES = tuple(DataType)


def _run_lane(
    params: TuningParameters, factory, launches: int = 1
) -> dict[str, np.ndarray]:
    """Launch one point ``launches`` times through a driver factory on
    the same fresh STREAM arrays."""
    gen = generate(params)
    checked = compile_source_cached(
        gen.source, {k: str(v) for k, v in gen.defines.items()}
    )
    initial = initial_arrays(params.word_count, params.dtype)
    arrays = {name: initial[name].copy() for name in ("a", "b", "c")}
    spec = KERNELS[params.kernel]
    call = {name: BufferArg(arrays[name]) for name in (*spec.reads, spec.writes)}
    if spec.uses_scalar:
        call["q"] = SCALAR_Q
    runner = factory(checked, gen.kernel_name)
    for _ in range(launches):
        runner.run(gen.global_size, call, gen.local_size)
    return arrays


def _checksum(params: TuningParameters, factory) -> str:
    return output_checksum(_run_lane(params, factory))


# -- full conformance grid: vectorized == compiled, bit for bit ---------------


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
@pytest.mark.parametrize("dtype", ALL_DTYPES, ids=lambda d: d.value)
def test_vectorized_matches_compiled_full_grid(kernel, dtype):
    """Every conformance variant vectorizes — no fallback — bit-exactly."""
    points = variant_grid(kernel, dtype, ARRAY_BYTES)
    assert len(points) == len(_VARIANT_AXES)
    for params in points:
        # the conformance grid is the supported envelope: a refusal
        # here is a regression in the eligibility gate, not a fallback
        got = _checksum(params, vectorize_kernel)
        want = _checksum(params, compile_kernel)
        assert got == want, params.describe()


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_vectorized_matches_interpreter_subset(kernel):
    """Tier-1 oracle leg: a representative slice against the interpreter."""
    for dtype in (DataType.INT, DataType.DOUBLE):
        for params in variant_grid(kernel, dtype, ARRAY_BYTES)[::4]:
            got = _checksum(params, vectorize_kernel)
            want = output_checksum(interpret_point(params))
            assert got == want, params.describe()


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
@pytest.mark.parametrize("dtype", ALL_DTYPES, ids=lambda d: d.value)
def test_vectorized_matches_interpreter_full_grid(kernel, dtype):
    """The full three-lane cross (interpreter leg is slow: --runslow)."""
    for params in variant_grid(kernel, dtype, ARRAY_BYTES):
        interp = output_checksum(interpret_point(params))
        assert _checksum(params, vectorize_kernel) == interp, params.describe()
        assert _checksum(params, compile_kernel) == interp, params.describe()


# -- ragged tails -------------------------------------------------------------

#: sizes chosen so the generated loops carry remainders: unroll factors
#: that do not divide the trip count, nested loops over awkward totals,
#: strided re-indexing, and an odd element count at width 8
RAGGED_VARIANTS = (
    dict(array_bytes=1020, loop=LoopManagement.FLAT, unroll=4),
    dict(array_bytes=1008, vector_width=4, loop=LoopManagement.FLAT, unroll=2),
    dict(array_bytes=1016, vector_width=2, loop=LoopManagement.NESTED),
    dict(array_bytes=1012, loop=LoopManagement.NESTED, unroll=2),
    dict(array_bytes=1020, pattern=AccessPattern.STRIDED, loop=LoopManagement.FLAT),
    dict(
        array_bytes=1056,
        vector_width=8,
        use_vload=True,
        loop=LoopManagement.NDRANGE,
    ),
)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
def test_ragged_tails_bit_identical(kernel):
    for changes in RAGGED_VARIANTS:
        params = TuningParameters(
            kernel=kernel, dtype=DataType.FLOAT, **changes
        )
        got = _checksum(params, vectorize_kernel)
        assert got == _checksum(params, compile_kernel), params.describe()


# -- relaunch idempotence: one launch == every launch --------------------------


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.value)
@pytest.mark.parametrize("dtype", ALL_DTYPES, ids=lambda d: d.value)
def test_relaunch_idempotent_full_grid(kernel, dtype):
    """A second launch on the same arrays changes no bit.

    The engine executes a point's kernel once per attempt and replays
    only the device model for its other launches; this is the law that
    makes the replay exact. The interpreter is the oracle on the
    tier-1 subset.
    """
    for i, params in enumerate(variant_grid(kernel, dtype, ARRAY_BYTES)):
        once = _checksum(params, vectorize_kernel)
        twice = output_checksum(_run_lane(params, vectorize_kernel, launches=2))
        assert twice == once, params.describe()
        if dtype in (DataType.INT, DataType.DOUBLE) and i % 4 == 0:
            assert twice == output_checksum(interpret_point(params)), (
                params.describe()
            )


# -- engine integration -------------------------------------------------------


def _engine(**kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 2)
    return ExecutionEngine("cpu", **kw)


#: the queue's functional lanes, in its fallback order
LANES = ("vectorized", "compiled", "interpreted")

#: where the queue looks up the factory of each lane above the interpreter
_FACTORIES = {
    "vectorized": (oclc_vectorize, "vectorize_kernel"),
    "compiled": (oclc_compile, "compile_kernel"),
}
_REAL_FACTORIES = {
    lane: getattr(module, attr) for lane, (module, attr) in _FACTORIES.items()
}


def _refuse(*_args, **_kwargs):
    raise UnsupportedKernelError("lane disabled by the test")


@pytest.fixture
def force_lane(monkeypatch):
    """``force_lane(lane)`` makes every lane above ``lane`` refuse every
    kernel, so the queue's ladder lands on ``lane``."""

    def force(lane: str) -> None:
        above = LANES[: LANES.index(lane)]
        for name, (module, attr) in _FACTORIES.items():
            factory = _refuse if name in above else _REAL_FACTORIES[name]
            monkeypatch.setattr(module, attr, factory)

    return force


class TestEngineLanes:
    def test_fingerprints_identical_across_exec_lanes(self, force_lane):
        params = TuningParameters(array_bytes=64 * KIB, vector_width=4)
        prints = {}
        for lane in LANES:
            force_lane(lane)
            reg = obs_metrics.MetricsRegistry()
            with obs_metrics.use_registry(reg):
                prints[lane] = _engine().run(params).fingerprint()
            assert reg.snapshot()["counters"].get(f"fastpath.runs.{lane}") == 1
        assert len(set(prints.values())) == 1, prints

    def test_unknown_lane_rejected(self):
        # the lane is not a setting: no constructor or command takes one
        with pytest.raises(TypeError, match="exec_lane"):
            _engine(exec_lane="auto")
        with pytest.raises(TypeError, match="exec_lane"):
            BenchmarkRunner("cpu", exec_lane="auto")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--exec-lane", "auto"])
        assert exc.value.code == 2



class _SecondLaunchFault(FaultPlan):
    """Fails the second launch of a point's first attempt, after its
    first launch has executed the kernel."""

    def __init__(self):
        super().__init__(FaultSpec())
        self.launches = 0

    def check(self, site: str, point_key: str, attempt: int) -> None:
        if site == "launch" and attempt == 0:
            self.launches += 1
            if self.launches == 2:
                raise InjectedLaunchFault("flaky kernel launch")


#: the lanes whose launches are counted, under stable test ids
COUNTED_LANES = [
    pytest.param("vectorized", id="vectorized-vectorized"),
    pytest.param("interpreted", id="interp-interpreted"),
]


class TestOneFunctionalPass:
    POINT = TuningParameters(array_bytes=4 * KIB, kernel=KernelName.TRIAD)

    def _counted_run(self, engine: ExecutionEngine):
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            result = engine.run(self.POINT)
        return result, reg.snapshot()["counters"]

    @pytest.mark.parametrize("lane", COUNTED_LANES)
    def test_each_attempt_executes_the_kernel_once(self, lane, force_lane):
        force_lane(lane)
        engine = _engine(warmup=2, ntimes=3)
        result, counters = self._counted_run(engine)
        assert result.ok and result.validated
        assert counters.get(f"fastpath.runs.{lane}") == 1
        assert counters.get("fastpath.runs.primed") == 2 + 3 - 1

    @pytest.mark.parametrize("lane", COUNTED_LANES)
    def test_retry_executes_again_on_fresh_buffers(self, lane, force_lane):
        force_lane(lane)
        clean = _engine(warmup=2, ntimes=3).run(self.POINT)
        engine = _engine(
            warmup=2,
            ntimes=3,
            faults=_SecondLaunchFault(),
            backoff_s=0.0,
        )
        result, counters = self._counted_run(engine)
        assert result.detail["engine"]["attempts"] == 2
        # attempt 0 ran the kernel once and failed on its next launch;
        # attempt 1 ran it again on its own buffers
        assert counters.get(f"fastpath.runs.{lane}") == 2
        assert counters.get("fastpath.runs.primed") == 2 + 3 - 1
        assert result.fingerprint() == clean.fingerprint()


# -- hypothesis: vectorize exactly or refuse loudly ---------------------------


def _vectorize_diverges(params: TuningParameters) -> bool:
    """True when the array lane silently produces different bits."""
    try:
        got = _checksum(params, vectorize_kernel)
    except UnsupportedKernelError:
        return False  # a loud refusal is the allowed escape hatch
    return got != _checksum(params, compile_kernel)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_points_vectorize_exactly_or_refuse(seed):
    params = random_point(np.random.default_rng(seed), max_bytes=4096)
    if _vectorize_diverges(params):
        shrunk = shrink_failure(params, _vectorize_diverges)
        pytest.fail(
            f"array lane silently diverged; shrunk repro: {shrunk.describe()}"
        )


@pytest.mark.slow
@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_points_vectorize_exactly_or_refuse_deep(seed):
    params = random_point(np.random.default_rng(seed), max_bytes=16384)
    if _vectorize_diverges(params):
        shrunk = shrink_failure(params, _vectorize_diverges)
        pytest.fail(
            f"array lane silently diverged; shrunk repro: {shrunk.describe()}"
        )


# -- golden corpus pinning ----------------------------------------------------


def test_vectorized_outputs_match_golden_corpus():
    """The array lane reproduces every pinned interpreter checksum.

    The corpus pins ``output_sha`` per (target, point); divergence the
    fuzz loop might one day find gets pinned here by the resulting
    corpus diff, so a behavioural change cannot land silently.
    """
    corpus = load_corpus(DEFAULT_GOLDEN_PATH)["entries"]
    checked_entries = 0
    for target, params in corpus_grid():
        entry = corpus.get(point_fingerprint(target, params))
        if entry is None:  # corpus grid drifted: the golden test owns that
            continue
        assert _checksum(params, vectorize_kernel) == entry["output_sha"], (
            f"{target} {params.describe()}"
        )
        checked_entries += 1
    assert checked_entries >= 16


# -- negative path: the vectorize fault site ----------------------------------

SMALL = TuningParameters(array_bytes=16 * KIB)


class TestVectorizeFaultSite:
    def test_site_registered(self):
        assert "vectorize" in FAULT_SITES
        spec = FaultSpec.parse("vectorize=0.5,seed=3")
        assert dict(spec.rates) == {"vectorize": 0.5}

    def test_corruption_deterministic_and_single_word(self):
        plan = FaultPlan.parse("vectorize=0.5,seed=21")
        draws = []
        for i in range(20):
            arrays = {n: np.ones(16, dtype=np.int32) for n in ("a", "b", "c")}
            fired = plan.corrupt_vectorize(f"k{i}", 0, arrays)
            flipped = sum(int((arrays[n] != 1).sum()) for n in arrays)
            assert flipped == (1 if fired else 0)
            draws.append(fired)
        assert any(draws) and not all(draws)
        replay = FaultPlan.parse("vectorize=0.5,seed=21")
        assert draws == [
            replay.corrupt_vectorize(
                f"k{i}", 0, {n: np.ones(16, dtype=np.int32) for n in ("a", "b", "c")}
            )
            for i in range(20)
        ]

    def test_array_lane_miscompile_caught_by_verify_only(self):
        # validation passed before the corruption fires, so only the
        # strict differential verify stage can catch it — as a
        # permanent verify_mismatch, with no retry budget burned
        plan = FaultPlan.parse("vectorize=1.0,seed=7")
        engine = _engine(ntimes=1, verify=True, validate=True, faults=plan)
        result = engine.run(SMALL)
        assert not result.ok
        assert result.failure_kind == "verify_mismatch"
        assert result.detail["engine"]["attempts"] == 1

    def test_unverified_run_lets_corruption_through(self):
        # documents why the verify stage gates the array lane: without
        # it the below-tolerance flip sails through validation
        plan = FaultPlan.parse("vectorize=1.0,seed=7")
        result = _engine(ntimes=1, verify=False, faults=plan).run(SMALL)
        assert result.ok

    def test_surfaces_identically_on_every_backend(self):
        def campaign(backend: str):
            return explore(
                _engine(
                    ntimes=1,
                    verify=True,
                    faults=FaultPlan.parse("vectorize=1.0,seed=7"),
                ),
                ParameterSweep(base=SMALL, axes={"vector_width": [1, 4]}),
                jobs=1 if backend == "serial" else 2,
                backend=backend,
            )

        runs = {b: campaign(b) for b in ("serial", "process")}
        for backend, results in runs.items():
            assert [r.failure_kind for r in results] == (
                ["verify_mismatch"] * 2
            ), backend
        baseline = [r.fingerprint() for r in runs["serial"]]
        assert [r.fingerprint() for r in runs["process"]] == baseline
