"""Metamorphic invariants: the laws hold, and violations are reported
as structured pairs of grid points rather than raised exceptions.

The negative-path tests deliberately break the model under each law
(monkeypatched model detail, reuse rules, launch latencies, fake engine
results) and demand the law *fires* — a law that cannot catch a broken
model is not a check, it is decoration."""

from dataclasses import dataclass

import numpy as np

from repro.core.params import AccessPattern, TuningParameters
from repro.verify import metamorphic
from repro.verify.metamorphic import (
    ALL_TARGETS,
    LawReport,
    Violation,
    check_all,
    check_bytes_linear,
    check_content_invariance,
    check_contiguous_vs_strided,
    check_dram_traffic_bounds,
    check_reuse_capacity,
    check_reuse_window,
)


class TestLaws:
    def test_content_invariance_holds_on_every_target(self):
        report = check_content_invariance(ALL_TARGETS)
        assert report.ok, report.describe()
        assert report.checked == len(ALL_TARGETS)

    def test_contiguous_never_loses_to_strided(self):
        report = check_contiguous_vs_strided(ALL_TARGETS)
        assert report.ok, report.describe()

    def test_bytes_scale_linearly(self):
        report = check_bytes_linear(("cpu", "aocl"), factors=(2, 4, 8))
        assert report.ok, report.describe()
        assert report.checked == 6

    def test_dram_traffic_within_useful_and_whole_lines(self):
        report = check_dram_traffic_bounds()
        assert report.ok, report.describe()
        # cpu/gpu x pattern x {int, double} x widths x sizes
        assert report.checked == 2 * 2 * 2 * 3 * 3

    def test_reuse_rule_monotone_in_capacity(self):
        report = check_reuse_capacity()
        assert report.ok, report.describe()

    def test_reuse_rule_monotone_in_window(self):
        report = check_reuse_window()
        assert report.ok, report.describe()

    def test_check_all_runs_every_law(self):
        reports = check_all(quick=True)
        assert len(reports) == 6
        assert all(isinstance(r, LawReport) for r in reports)
        assert all(r.ok for r in reports), [r.describe() for r in reports]
        assert len({r.law for r in reports}) == 6


class TestViolationReporting:
    def test_violation_names_the_offending_pair(self):
        v = Violation(
            law="hit_rate_stride",
            left="stride=8B over 262144B",
            right="stride=16B over 262144B",
            left_value=0.5,
            right_value=0.75,
            detail="larger stride hit more often",
        )
        text = v.describe()
        assert "stride=8B" in text and "stride=16B" in text
        assert "0.5" in text and "0.75" in text
        assert "larger stride hit more often" in text

    def test_law_report_describe_counts_violations(self):
        clean = LawReport(law="x", checked=3, violations=())
        assert clean.ok and "ok" in clean.describe()
        dirty = LawReport(
            law="x",
            checked=3,
            violations=(
                Violation(law="x", left="a", right="b", left_value=1, right_value=2),
            ),
        )
        assert not dirty.ok and "1 violation" in dirty.describe()

    def test_broken_model_produces_violation_not_crash_reversed_windows(self):
        # feed the window law a deliberately nonsensical window order:
        # the rule *is* monotone, so reversing the windows across the
        # capacity threshold makes a pair look like a regression,
        # exercising the violation-construction path end to end
        report = check_reuse_window(windows=(64 << 20, 1 << 20), element_bytes=(4,))
        assert not report.ok
        assert report.violations  # structured, not raised
        first = report.violations[0]
        assert first.law == "reuse_window"
        assert "window=" in first.left and "window=" in first.right
        assert first.right_value < first.left_value


@dataclass
class _FakeResult:
    """The minimal result surface the engine-backed laws consume."""

    params: TuningParameters
    bandwidth_gbs: float = 1.0
    moved_bytes: int = 0
    ok: bool = True
    error: str | None = None


class TestNegativePaths:
    """Every law must fire on a deliberately broken model."""

    def test_content_invariance_fires_on_value_dependent_latency(
        self, monkeypatch
    ):
        # a model whose launch latency leaks the array *contents* — the
        # cardinal sin the law exists to catch
        def leaky(target, params, contents, *, ntimes):
            return (float(np.abs(contents["a"]).sum()),) * ntimes

        monkeypatch.setattr(metamorphic, "_device_latencies", leaky)
        report = check_content_invariance(("cpu",))
        assert not report.ok
        assert report.violations[0].law == "content_invariance"
        assert "contents=random" in report.violations[0].right

    def test_contiguous_vs_strided_fires_when_strided_wins(self, monkeypatch):
        class BrokenRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                fast = params.pattern is AccessPattern.STRIDED
                return _FakeResult(params, bandwidth_gbs=9.0 if fast else 1.0)

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", BrokenRunner)
        report = check_contiguous_vs_strided(("cpu",))
        assert not report.ok
        first = report.violations[0]
        assert first.law == "contiguous_vs_strided"
        assert first.right_value > first.left_value
        assert "strided beat contiguous" in first.detail

    def test_contiguous_vs_strided_fires_on_failing_point(self, monkeypatch):
        class FailingRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                return _FakeResult(params, ok=False, error="device exploded")

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", FailingRunner)
        report = check_contiguous_vs_strided(("cpu",))
        assert not report.ok
        assert "device exploded" in report.violations[0].detail

    def test_bytes_linear_fires_on_sublinear_byte_counting(self, monkeypatch):
        class SublinearRunner:
            def __init__(self, target, ntimes):
                pass

            def run(self, params):
                # bytes saturate instead of scaling with the array
                return _FakeResult(
                    params, moved_bytes=min(params.array_bytes, 20000)
                )

        monkeypatch.setattr(metamorphic, "BenchmarkRunner", SublinearRunner)
        report = check_bytes_linear(("cpu",), base_bytes=16384, factors=(2,))
        assert not report.ok
        assert report.violations[0].law == "bytes_linear"
        assert "expected exactly 2x" in report.violations[0].detail

    def test_dram_traffic_bounds_fires_on_half_line_charge(self, monkeypatch):
        # the parent's CPU bug: a 128-B element on a 64-B line charged
        # one line per miss, moving half the useful bytes through DRAM
        monkeypatch.setattr(
            metamorphic,
            "_model_detail",
            lambda target, params: {"useful_bytes": 3072, "dram_bytes": 1536},
        )
        report = check_dram_traffic_bounds(("cpu",), sizes=(1024,), widths=(16,))
        assert not report.ok
        assert len(report.violations) == report.checked == 4
        assert report.violations[0].law == "dram_traffic_bounds"
        assert "outside [useful" in report.violations[0].detail

    def test_dram_traffic_bounds_fires_above_whole_lines(self, monkeypatch):
        # more than a whole line per element: traffic from nowhere
        monkeypatch.setattr(
            metamorphic,
            "_model_detail",
            lambda target, params: {
                "useful_bytes": 1024,
                "dram_fetched_bytes": 1024 * 1024,
            },
        )
        report = check_dram_traffic_bounds(("gpu",), sizes=(1024,), widths=(1,))
        assert not report.ok
        assert report.violations[0].right_value == 1024 * 1024

    def test_reuse_capacity_fires_when_bigger_cache_misses_more(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            metamorphic,
            "far_reuse_miss_fraction",
            lambda window, element, config: config.capacity_bytes / 2**30,
        )
        report = check_reuse_capacity(windows=(1024,), element_bytes=(4,))
        assert not report.ok
        assert len(report.violations) == 2  # cpu llc and gpu l2
        assert report.violations[0].law == "reuse_capacity"
        assert "larger cache missed more" in report.violations[0].detail

    def test_reuse_window_fires_when_larger_window_misses_less(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            metamorphic,
            "far_reuse_miss_fraction",
            lambda window, element, config: 1024 / window,
        )
        report = check_reuse_window(windows=(1024, 4096, 16384), element_bytes=(4,))
        assert not report.ok
        assert len(report.violations) == 4  # two pairs on each cache
        assert report.violations[0].law == "reuse_window"
        assert "larger window missed less" in report.violations[0].detail

    def test_broken_reports_surface_through_check_all(self, monkeypatch):
        # check_all must carry a firing law outward, not swallow it
        monkeypatch.setattr(
            metamorphic,
            "far_reuse_miss_fraction",
            lambda window, element, config: config.capacity_bytes / 2**30,
        )
        reports = {r.law: r for r in metamorphic.check_all(quick=True)}
        assert not reports["reuse_capacity"].ok
        assert reports["dram_traffic_bounds"].ok  # untouched laws still pass
