"""Result persistence/comparison and roofline placement."""

from __future__ import annotations

import pytest

from repro.core import (
    BenchmarkRunner,
    KernelName,
    ResultSet,
    TuningParameters,
    Watchdog,
    compare_results,
    load_results,
    peak_compute_flops,
    roofline_point,
    save_results,
)
from repro.devices.specs import (
    GTX_TITAN_BLACK,
    STRATIX_V_AOCL,
    XEON_E5_2609V2,
)
from repro.errors import BenchmarkError, InvalidValueError
from repro.oclc import analyze, compile_source
from repro.units import KIB, MIB


def small_run(target="cpu", **changes):
    params = TuningParameters(array_bytes=64 * KIB).with_(**changes)
    return BenchmarkRunner(target, ntimes=1).run(params)


class TestHistory:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        results = [small_run(), small_run(vector_width=4)]
        assert save_results(results, path) == 2
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].params == results[0].params
        assert loaded[1].bandwidth_gbs == pytest.approx(results[1].bandwidth_gbs)
        assert loaded[0].target == "cpu"

    def test_append_mode(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_results([small_run()], path)
        save_results([small_run(vector_width=2)], path)
        assert len(load_results(path)) == 2

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(BenchmarkError):
            load_results(path)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"schema": 99}\n')
        with pytest.raises(BenchmarkError):
            load_results(path)

    def test_failed_results_roundtrip(self, tmp_path):
        from repro.core import LoopManagement

        failed = BenchmarkRunner("sdaccel", ntimes=1).run(
            TuningParameters(
                array_bytes=64 * KIB,
                kernel=KernelName.ADD,
                vector_width=16,
                loop=LoopManagement.NESTED,
            )
        )
        path = tmp_path / "runs.jsonl"
        save_results([failed], path)
        loaded = load_results(path)
        assert not loaded[0].ok
        assert "fit" in loaded[0].error

    def test_failed_result_error_text_and_kind_preserved_exactly(self, tmp_path):
        from repro.core import LoopManagement

        failed = BenchmarkRunner("sdaccel", ntimes=1).run(
            TuningParameters(
                array_bytes=64 * KIB,
                kernel=KernelName.ADD,
                vector_width=16,
                loop=LoopManagement.NESTED,
            )
        )
        assert failed.failure_kind  # the engine classified it
        timed_out = BenchmarkRunner(
            "cpu", ntimes=1, watchdog=Watchdog(virtual_s=1e-12)
        ).run(TuningParameters(array_bytes=64 * KIB))
        assert timed_out.failure_kind == "timeout"
        path = tmp_path / "runs.jsonl"
        save_results([failed, timed_out], path)
        loaded = load_results(path)
        for original, restored in zip([failed, timed_out], loaded):
            assert restored.error == original.error
            assert restored.failure_kind == original.failure_kind
            assert restored.validated is False

    def test_save_results_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "runs.jsonl"
        assert save_results([small_run()], path) == 1
        assert len(load_results(path)) == 1

    def test_roundtrip_keeps_fingerprint(self, tmp_path):
        # saved results keep their model detail, so a reloaded result
        # is the measured one
        path = tmp_path / "runs.jsonl"
        results = [small_run(), small_run("gpu", vector_width=4)]
        save_results(results, path)
        loaded = load_results(path)
        assert [r.fingerprint() for r in loaded] == [
            r.fingerprint() for r in results
        ]
        assert loaded[0].detail == results[0].detail

    def test_same_point_saved_twice_loads_latest(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        first = small_run()
        latest = BenchmarkRunner("cpu", ntimes=2).run(first.params)
        assert latest.fingerprint() != first.fingerprint()
        save_results([first, small_run(vector_width=2)], path)
        save_results([latest], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].fingerprint() == latest.fingerprint()  # first-seen slot
        assert loaded[1].params.vector_width == 2

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        with pytest.raises(BenchmarkError, match="missing.jsonl"):
            load_results(path)

    def test_damaged_line_named_by_file_and_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_results([small_run(), small_run(vector_width=2)], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"validated": true', '"validated": false')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BenchmarkError, match=r"runs\.jsonl:2: length mismatch"):
            load_results(path)
        path.write_text(lines[0] + "\n" + lines[1][:40])
        with pytest.raises(BenchmarkError, match=r"runs\.jsonl:2: truncated"):
            load_results(path)
        assert path.read_text().endswith(lines[1][:40])  # never writes


class TestCompare:
    def test_classification(self):
        base = small_run()
        improved = BenchmarkRunner("cpu", ntimes=1).run(
            TuningParameters(array_bytes=1 * MIB)
        )
        before = ResultSet([base])
        after = ResultSet([base, improved])
        entries = compare_results(before, after)
        by_status = {e.status for e in entries}
        assert "new" in by_status
        unchanged = [e for e in entries if e.status == "unchanged"]
        assert unchanged and unchanged[0].ratio == pytest.approx(1.0)

    def test_removed(self):
        r = small_run()
        entries = compare_results(ResultSet([r]), ResultSet())
        assert entries[0].status == "removed"
        assert entries[0].after_gbs is None


class TestRoofline:
    def _ir(self, kernel=KernelName.TRIAD, width=1):
        from repro.core import generate

        gen = generate(
            TuningParameters(array_bytes=64 * KIB, kernel=kernel, vector_width=width)
        )
        program = compile_source(
            gen.source, {k: str(v) for k, v in gen.defines.items()}
        )
        return analyze(program, gen.kernel_name)

    def test_stream_kernels_are_memory_bound_everywhere(self):
        ir = self._ir()
        for target, spec in [
            ("cpu", XEON_E5_2609V2),
            ("gpu", GTX_TITAN_BLACK),
            ("aocl", STRATIX_V_AOCL),
        ]:
            result = small_run(target, kernel=KernelName.TRIAD)
            point = roofline_point(result, ir, spec)
            assert point.is_memory_bound, target
            assert 0 < point.roof_fraction <= 1.2

    def test_copy_has_zero_intensity(self):
        ir = self._ir(kernel=KernelName.COPY)
        result = small_run(kernel=KernelName.COPY)
        point = roofline_point(result, ir, XEON_E5_2609V2)
        assert point.arithmetic_intensity == 0.0
        assert point.roof_fraction > 0  # measured against the bandwidth roof

    def test_triad_intensity_value(self):
        # triad: 2 lane-ops per 12 bytes (int32, width 1)
        ir = self._ir(kernel=KernelName.TRIAD)
        result = small_run(kernel=KernelName.TRIAD)
        point = roofline_point(result, ir, XEON_E5_2609V2)
        assert point.arithmetic_intensity == pytest.approx(2 / 12)

    def test_peak_compute_rules(self):
        assert peak_compute_flops(XEON_E5_2609V2) == pytest.approx(4 * 2.5e9 * 8)
        assert peak_compute_flops(GTX_TITAN_BLACK) == pytest.approx(15 * 192 * 889e6)
        assert peak_compute_flops(STRATIX_V_AOCL) > 0

    def test_failed_result_rejected(self):
        from repro.core import LoopManagement

        failed = BenchmarkRunner("sdaccel", ntimes=1).run(
            TuningParameters(
                array_bytes=64 * KIB,
                kernel=KernelName.ADD,
                vector_width=16,
                loop=LoopManagement.NESTED,
            )
        )
        with pytest.raises(InvalidValueError):
            roofline_point(failed, self._ir(), STRATIX_V_AOCL)

    def test_summary_text(self):
        ir = self._ir()
        point = roofline_point(small_run(kernel=KernelName.TRIAD), ir, XEON_E5_2609V2)
        assert "memory-bound" in point.summary()
