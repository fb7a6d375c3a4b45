"""Benchmark runner: timing discipline, validation, failure capture."""

from __future__ import annotations

import pytest

from repro.core import (
    AccessPattern,
    BenchmarkRunner,
    DataType,
    KernelName,
    LoopManagement,
    StreamLocus,
    TuningParameters,
)
from repro.errors import BenchmarkError
from repro.units import KIB, MIB


class TestDeviceStream:
    def test_run_produces_valid_result(self, small_params):
        result = BenchmarkRunner("cpu", ntimes=3).run(small_params)
        assert result.ok
        assert result.validated
        assert len(result.times) == 3
        assert result.bandwidth_gbs > 0
        assert result.moved_bytes == 2 * small_params.array_bytes
        assert result.min_time <= result.avg_time <= result.max_time

    def test_all_four_kernels(self, small_params):
        results = BenchmarkRunner("aocl", ntimes=2).run_all_kernels(small_params)
        assert [str(r.params.kernel) for r in results] == [
            "copy",
            "scale",
            "add",
            "triad",
        ]
        assert all(r.ok and r.validated for r in results)

    @pytest.mark.parametrize("dtype", [DataType.INT, DataType.DOUBLE])
    def test_dtypes_validate(self, dtype):
        params = TuningParameters(
            array_bytes=32 * KIB, dtype=dtype, kernel=KernelName.TRIAD
        )
        result = BenchmarkRunner("gpu", ntimes=2).run(params)
        assert result.ok and result.validated

    def test_strided_2d_validates(self):
        params = TuningParameters(
            array_bytes=64 * KIB,
            pattern=AccessPattern.STRIDED,
            loop=LoopManagement.NESTED,
        )
        result = BenchmarkRunner("sdaccel", ntimes=2).run(params)
        assert result.ok and result.validated

    def test_detail_carries_build_log_and_source(self, small_params):
        result = BenchmarkRunner("aocl", ntimes=1).run(small_params)
        assert "mpstream_copy" in str(result.detail["generated_source"])
        assert result.detail["build_log"]

    def test_build_failure_is_captured_not_raised(self):
        # int16 x 3 arrays overflows the Virtex-7 in our resource model
        params = TuningParameters(
            array_bytes=64 * KIB,
            kernel=KernelName.ADD,
            vector_width=16,
            loop=LoopManagement.NESTED,
        )
        result = BenchmarkRunner("sdaccel", ntimes=1).run(params)
        assert not result.ok
        assert "does not fit" in result.error
        assert result.bandwidth_gbs == 0.0

    def test_ntimes_validation(self):
        with pytest.raises(BenchmarkError):
            BenchmarkRunner("cpu", ntimes=0)

    def test_validation_can_be_disabled(self, small_params):
        result = BenchmarkRunner("cpu", ntimes=1, validate=False).run(small_params)
        assert result.ok and not result.validated

    def test_times_are_warm(self):
        """Warm-up absorbs the first-launch migration: repetition times
        should be tightly clustered."""
        params = TuningParameters(array_bytes=256 * KIB)
        result = BenchmarkRunner("gpu", ntimes=4).run(params)
        assert result.max_time < 1.5 * result.min_time

    def test_runner_results_deterministic(self):
        runner = BenchmarkRunner("gpu", ntimes=3)
        p = TuningParameters(array_bytes=128 * KIB)
        r1, r2 = runner.run(p), runner.run(p)
        assert r1.times == r2.times


class TestHostStream:
    def test_pcie_mode(self):
        params = TuningParameters(array_bytes=1 * MIB, locus=StreamLocus.HOST)
        result = BenchmarkRunner("gpu", ntimes=3).run(params)
        assert result.ok and result.validated
        assert result.moved_bytes == 2 * MIB
        # PCIe gen3 x16 tops out well below device DRAM bandwidth
        assert result.bandwidth_gbs < 20

    def test_pcie_slower_than_global_memory(self):
        device_bw = (
            BenchmarkRunner("gpu", ntimes=2)
            .run(TuningParameters(array_bytes=4 * MIB))
            .bandwidth_gbs
        )
        pcie_bw = (
            BenchmarkRunner("gpu", ntimes=2)
            .run(TuningParameters(array_bytes=4 * MIB, locus=StreamLocus.HOST))
            .bandwidth_gbs
        )
        assert pcie_bw < device_bw / 5

    def test_small_transfers_latency_bound(self):
        small = (
            BenchmarkRunner("aocl", ntimes=2)
            .run(TuningParameters(array_bytes=4 * KIB, locus=StreamLocus.HOST))
            .bandwidth_gbs
        )
        large = (
            BenchmarkRunner("aocl", ntimes=2)
            .run(TuningParameters(array_bytes=16 * MIB, locus=StreamLocus.HOST))
            .bandwidth_gbs
        )
        assert large > 10 * small


class TestPaperOrderings:
    """The qualitative target orderings the paper reports, at small scale."""

    def test_loop_mode_preferences(self):
        n = 256 * KIB
        for target, best_mode in [
            ("cpu", LoopManagement.NDRANGE),
            ("gpu", LoopManagement.NDRANGE),
            ("aocl", LoopManagement.FLAT),
            ("sdaccel", LoopManagement.NESTED),
        ]:
            runner = BenchmarkRunner(target, ntimes=2)
            results = {
                mode: runner.run(TuningParameters(array_bytes=n, loop=mode))
                for mode in LoopManagement
            }
            winner = max(results, key=lambda m: results[m].bandwidth_gbs)
            assert winner is best_mode, (
                f"{target}: expected {best_mode}, got {winner} "
                f"({ {str(m): round(r.bandwidth_gbs, 4) for m, r in results.items()} })"
            )

    def test_contiguous_beats_strided_everywhere(self):
        n = 1 * MIB
        for target in ("cpu", "gpu", "aocl", "sdaccel"):
            runner = BenchmarkRunner(target, ntimes=2)
            from repro.core import optimal_loop_for

            loop = optimal_loop_for(target)
            contig = runner.run(TuningParameters(array_bytes=n, loop=loop))
            strided = runner.run(
                TuningParameters(
                    array_bytes=n, loop=loop, pattern=AccessPattern.STRIDED
                )
            )
            assert contig.bandwidth_gbs > strided.bandwidth_gbs, target
