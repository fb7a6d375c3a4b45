"""The unified observability layer: tracing, metrics, events, progress.

The load-bearing invariant tested here is the one the engine promises:
instrumentation *observes* a campaign and never perturbs it —
``RunResult.fingerprint()`` is byte-identical with every sink on or
off, serial or parallel, fresh or resumed.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.core import (
    BenchmarkRunner,
    ParameterSweep,
    SweepJournal,
    TuningParameters,
    explore,
    metrics_table,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.ocl import CommandQueue, Context
from repro.ocl.platform import find_device
from repro.units import KIB


def _small_sweep() -> ParameterSweep:
    return ParameterSweep(
        base=TuningParameters(array_bytes=32 * KIB),
        axes={"vector_width": [1, 2]},
    )


def _fingerprints(results) -> list[str]:
    return [r.fingerprint() for r in results]


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"] == {
            "count": 2,
            "total": 4.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }

    def test_whole_counters_snapshot_as_ints(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("n").inc(3)
        assert reg.snapshot()["counters"]["n"] == 3
        assert isinstance(reg.snapshot()["counters"]["n"], int)

    def test_counter_cannot_decrease(self):
        reg = obs_metrics.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_kind_clash_raises(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_round_trip(self, tmp_path):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("engine.points").inc(5)
        reg.gauge("load").set(0.5)
        reg.histogram("stage_s").observe(0.25)
        path = tmp_path / "metrics.json"
        reg.to_json(path)
        loaded = obs_metrics.load_snapshot(path)
        assert loaded == reg.snapshot()

    def test_helpers_noop_without_registry(self):
        assert obs_metrics.active_registry() is None
        obs_metrics.count("nothing")  # must not raise, must not create state
        obs_metrics.observe("nothing", 1.0)
        obs_metrics.set_gauge("nothing", 1.0)

    def test_use_registry_scopes_and_restores(self):
        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            assert obs_metrics.active_registry() is reg
            obs_metrics.count("seen")
        assert obs_metrics.active_registry() is None
        assert reg.snapshot()["counters"]["seen"] == 1

    def test_metrics_table_renders_all_kinds(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("engine.points").inc(3)
        reg.histogram("engine.stage_s_per_point.execute").observe(0.1)
        text = metrics_table(reg.snapshot())
        assert "engine.points" in text
        assert "n=1" in text
        assert metrics_table({}) == "(no metrics)"


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


class TestTracer:
    def test_chrome_trace_schema(self, tmp_path):
        tracer = obs_trace.Tracer()
        with obs_trace.use_tracer(tracer):
            with obs_trace.span("outer", "test", label="campaign"):
                with obs_trace.span("inner", "test"):
                    pass
        path = tracer.save(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "thread_name"
        assert {s["name"] for s in spans} == {"outer", "inner"}
        for s in spans:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(s)
            assert s["dur"] >= 0

    def test_nesting_by_containment(self):
        tracer = obs_trace.Tracer()
        with obs_trace.use_tracer(tracer):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    pass
        by_name = {e["name"]: e for e in tracer.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_span_set_attaches_args(self):
        tracer = obs_trace.Tracer()
        with obs_trace.use_tracer(tracer):
            with obs_trace.span("stage") as s:
                s.set(cache="hit")
        assert tracer.events[0]["args"] == {"cache": "hit"}

    def test_disabled_span_is_shared_noop(self):
        assert obs_trace.active_tracer() is None
        a = obs_trace.span("x")
        b = obs_trace.span("y", z=1)
        assert a is b  # one shared null object: no allocation per probe
        with a as s:
            s.set(anything="goes")

    def test_instant_events(self):
        tracer = obs_trace.Tracer()
        tracer.instant("marker", "test", {"k": 1})
        assert tracer.events[0]["ph"] == "i"
        assert len(tracer) == 1


# --------------------------------------------------------------------------
# structured event log
# --------------------------------------------------------------------------


class TestEventLog:
    def test_jsonl_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs_events.EventLog(path) as log:
            log.emit("sweep_started", points=4)
            log.emit("point_finished", point="abc123", ok=True)
            assert log.emitted == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["event"] for d in lines] == ["sweep_started", "point_finished"]
        assert lines[1]["point"] == "abc123"
        assert all("ts" in d for d in lines)

    def test_emit_after_close_raises(self, tmp_path):
        log = obs_events.EventLog(tmp_path / "e.jsonl")
        log.close()
        with pytest.raises(ValueError):
            log.emit("late")

    def test_module_emit_noop_without_log(self):
        assert obs_events.active_log() is None
        obs_events.emit("nothing", k=1)  # must not raise


# --------------------------------------------------------------------------
# obs.session
# --------------------------------------------------------------------------


class TestSession:
    def test_writes_requested_artifacts(self, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        events = tmp_path / "e.jsonl"
        with obs.session(trace=trace, metrics=metrics, log_json=events) as s:
            with obs_trace.span("work"):
                obs_metrics.count("engine.points")
            obs_events.emit("hello")
        assert {label for label, _ in s.written} == {"trace", "metrics", "events"}
        assert json.loads(trace.read_text())["traceEvents"]
        assert obs_metrics.load_snapshot(metrics)["counters"]["engine.points"] == 1
        assert json.loads(events.read_text().splitlines()[0])["event"] == "hello"

    def test_restores_prior_sinks(self):
        outer = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(outer):
            with obs.session(metrics=True):
                assert obs_metrics.active_registry() is not outer
            assert obs_metrics.active_registry() is outer
        assert obs_metrics.active_registry() is None

    def test_in_memory_only_writes_nothing(self):
        with obs.session(trace=True, metrics=True) as s:
            obs_metrics.count("x")
        assert s.written == []
        assert s.registry.snapshot()["counters"]["x"] == 1


# --------------------------------------------------------------------------
# instrumented sweeps
# --------------------------------------------------------------------------


class TestInstrumentedSweep:
    def test_trace_has_nested_sweep_point_stage_spans(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        with obs.session(trace=True) as s:
            explore(runner, _small_sweep())
        names = {e["name"] for e in s.tracer.events}
        assert {"sweep", "point", "generate", "compile", "plan", "execute"} <= names
        by_name: dict[str, list] = {}
        for e in s.tracer.events:
            by_name.setdefault(e["name"], []).append(e)
        (sweep_ev,) = by_name["sweep"]
        for point in by_name["point"]:
            assert sweep_ev["ts"] <= point["ts"] + 1e-6
            assert (
                point["ts"] + point["dur"]
                <= sweep_ev["ts"] + sweep_ev["dur"] + 1e-6
            )

    def test_metrics_cover_engine_cache_queue_memsim(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        with obs.session(metrics=True) as s:
            explore(runner, _small_sweep())
        snap = s.registry.snapshot()
        counters = snap["counters"]
        assert counters["engine.points"] == 2
        assert counters["build_cache.frontend_misses"] >= 1
        assert counters["queue.kernel_launches"] >= 2
        assert counters["memsim.dram.requests"] >= 1
        assert "engine.stage_s_per_point.execute" in snap["histograms"]

    def test_event_log_joins_on_point_fingerprint(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        events_path = tmp_path / "events.jsonl"
        runner = BenchmarkRunner("cpu", ntimes=1)
        with obs.session(log_json=events_path):
            explore(runner, _small_sweep(), journal=journal_path)
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        finished_points = {
            e["point"] for e in events if e["event"] == "point_finished"
        }
        journal_points = {
            json.loads(line)["point"]
            for line in journal_path.read_text().splitlines()
        }
        assert finished_points == journal_points

    def test_resume_emits_point_restored(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        events_path = tmp_path / "events.jsonl"
        runner = BenchmarkRunner("cpu", ntimes=1)
        explore(runner, _small_sweep(), journal=journal_path)
        with obs.session(log_json=events_path):
            explore(runner, _small_sweep(), journal=journal_path, resume=True)
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        assert sum(1 for e in events if e["event"] == "point_restored") == 2
        started = [e for e in events if e["event"] == "sweep_started"]
        assert started[0]["restored"] == 2


# --------------------------------------------------------------------------
# fingerprint invariance — the acceptance criterion
# --------------------------------------------------------------------------


class TestFingerprintInvariance:
    def test_traced_vs_untraced(self, tmp_path):
        runner = BenchmarkRunner("cpu", ntimes=1)
        plain = _fingerprints(explore(runner, _small_sweep()))
        with obs.session(
            trace=True, metrics=True, log_json=tmp_path / "e.jsonl"
        ):
            traced = _fingerprints(explore(runner, _small_sweep()))
        assert plain == traced

    def test_serial_vs_parallel_traced(self):
        runner = BenchmarkRunner("cpu", ntimes=1)
        serial = _fingerprints(explore(runner, _small_sweep()))
        with obs.session(trace=True, metrics=True):
            parallel = _fingerprints(explore(runner, _small_sweep(), jobs=2))
        assert serial == parallel

    def test_resumed_vs_fresh_traced(self, tmp_path):
        runner = BenchmarkRunner("cpu", ntimes=1)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        fresh = _fingerprints(explore(runner, _small_sweep(), journal=journal))
        with obs.session(trace=True, metrics=True):
            resumed = _fingerprints(
                explore(runner, _small_sweep(), journal=journal, resume=True)
            )
        assert fresh == resumed


# --------------------------------------------------------------------------
# cross-process telemetry relay
# --------------------------------------------------------------------------


class TestTelemetryRelay:
    def test_buffered_event_log_accumulates_and_drains(self):
        log = obs.BufferedEventLog()
        log.emit("one", k=1)
        log.emit("two")
        assert log.emitted == 2
        records = log.drain()
        assert [r["event"] for r in records] == ["one", "two"]
        assert records[0]["k"] == 1 and "ts" in records[0]
        assert log.drain() == []  # drained, but still recording
        log.emit("three")
        assert [r["event"] for r in log.drain()] == ["three"]

    def test_tracer_drain_keeps_recording(self):
        tracer = obs_trace.Tracer()
        with obs_trace.use_tracer(tracer):
            with obs_trace.span("a"):
                pass
        batch = tracer.drain()
        assert [e["name"] for e in batch["events"]] == ["a"]
        assert batch["pid"] and "wall_epoch" in batch
        assert len(tracer) == 0
        with obs_trace.use_tracer(tracer):
            with obs_trace.span("b"):
                pass
        assert [e["name"] for e in tracer.drain()["events"]] == ["b"]

    def test_ingest_rebases_and_keeps_worker_pid(self):
        worker = obs_trace.Tracer()
        worker._pid = 99999  # a "remote" process
        with obs_trace.use_tracer(worker):
            with obs_trace.span("stage"):
                pass
        batch = worker.drain()
        batch["wall_epoch"] += 5.0  # worker started 5s after the parent
        parent = obs_trace.Tracer()
        assert parent.ingest(batch, label="worker-0 (pid 99999)") == 1
        (event,) = parent.events
        assert event["pid"] == 99999
        # rebased onto the parent's perf_counter timeline: ~5s later in us
        assert event["ts"] >= 4.9 * 1e6
        doc = parent.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"]): e["args"]["name"] for e in meta}
        assert names[("process_name", 99999)] == "worker-0 (pid 99999)"

    def test_registry_drain_and_merge(self):
        worker = obs_metrics.MetricsRegistry()
        worker.counter("engine.points").inc(2)
        worker.gauge("depth").set(3)
        worker.histogram("stage_s").observe(0.5)
        delta = worker.drain_snapshot()
        assert worker.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        parent = obs_metrics.MetricsRegistry()
        parent.counter("engine.points").inc(1)
        parent.histogram("stage_s").observe(1.5)
        parent.merge_snapshot(delta)
        snap = parent.snapshot()
        assert snap["counters"]["engine.points"] == 3
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["stage_s"]["count"] == 2
        assert snap["histograms"]["stage_s"]["min"] == 0.5
        assert snap["histograms"]["stage_s"]["max"] == 1.5

    def test_merge_batch_tags_events_with_worker_identity(self):
        telemetry_log = obs.BufferedEventLog()
        telemetry_log.emit("point_finished", point="abc")
        batch = {"pid": 4242, "events": telemetry_log.drain()}
        sink = obs.BufferedEventLog()  # stands in for the parent's log
        with obs_events.use_log(sink):
            obs.merge_batch(batch, worker="worker-1")
        (record,) = sink.drain()
        assert record["event"] == "point_finished"
        assert record["worker"] == "worker-1"
        assert record["worker_pid"] == 4242

    def test_merge_batch_skips_missing_sinks(self):
        # no active tracer/registry/log: merging must be a no-op, not a crash
        batch = {
            "pid": 1,
            "trace": {"pid": 1, "wall_epoch": 0.0, "events": [], "thread_names": {}},
            "metrics": {"counters": {"x": 1}, "gauges": {}, "histograms": {}},
            "events": [{"ts": 0.0, "event": "e"}],
        }
        obs.merge_batch(batch, worker="worker-0")
        obs.merge_batch(None, worker="worker-0")


class TestProcessBackendTelemetry:
    def _process_sweep(self, **obs_kwargs):
        runner = BenchmarkRunner("cpu", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={"vector_width": [1, 2, 4, 8]},
        )
        with obs.session(**obs_kwargs) as s:
            results = explore(runner, sweep, jobs=2, backend="process")
        return results, s

    def test_merged_trace_has_tracks_from_every_worker(self):
        results, s = self._process_sweep(trace=True)
        assert all(r.ok for r in results)
        span_pids = {
            e["pid"]
            for e in s.tracer.events
            if e.get("name") in {"generate", "compile", "plan", "execute"}
        }
        assert len(span_pids) >= 2  # engine stages ran in >= 2 worker pids
        doc = s.tracer.to_chrome()
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any(label.startswith("worker-0") for label in labels)
        assert any(label.startswith("worker-1") for label in labels)

    def test_child_metrics_relay_into_parent_registry(self):
        results, s = self._process_sweep(metrics=True)
        counters = s.registry.snapshot()["counters"]
        # engine.points counted exactly once per point (no double count
        # between the stats fold and the relayed registry batches)
        assert counters["engine.points"] == len(results) == 4
        # child-only counters (memsim runs inside the workers) made it home
        assert counters["memsim.dram.requests"] >= 1
        assert counters["queue.kernel_launches"] >= 4

    def test_worker_events_carry_worker_identity(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        self._process_sweep(log_json=events_path)
        events = [
            json.loads(line) for line in events_path.read_text().splitlines()
        ]
        tagged = [e for e in events if "worker" in e and "worker_pid" in e]
        assert tagged, "no relayed worker events in the merged log"
        assert {e["worker"] for e in tagged} <= {"worker-0", "worker-1"}

    def test_fingerprints_invariant_process_traced_untraced_serial(self, tmp_path):
        serial = _fingerprints(
            explore(
                BenchmarkRunner("cpu", ntimes=1),
                ParameterSweep(
                    base=TuningParameters(array_bytes=32 * KIB),
                    axes={"vector_width": [1, 2, 4, 8]},
                ),
            )
        )
        untraced, _ = self._process_sweep()
        traced, _ = self._process_sweep(
            trace=True, metrics=True, log_json=tmp_path / "e.jsonl"
        )
        assert serial == _fingerprints(untraced) == _fingerprints(traced)


# --------------------------------------------------------------------------
# exported Chrome trace structure (both backends)
# --------------------------------------------------------------------------


class TestChromeTraceStructure:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_exported_trace_is_structurally_valid(self, backend, tmp_path):
        runner = BenchmarkRunner("cpu", ntimes=1)
        path = tmp_path / f"{backend}.json"
        with obs.session(trace=path):
            explore(runner, _small_sweep(), jobs=2, backend=backend)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {"sweep", "point", "generate", "compile", "plan", "execute"} <= {
            s["name"] for s in spans
        }
        for s in spans:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(s)
            assert s["dur"] >= 0 and s["ts"] >= 0
        # span pairs nest properly: within one (pid, tid) track, any two
        # spans either nest (containment) or are disjoint — never overlap
        tracks: dict[tuple, list] = {}
        for s in spans:
            tracks.setdefault((s["pid"], s["tid"]), []).append(s)
        eps = 1e-3  # us rounding slack
        for track in tracks.values():
            track.sort(key=lambda s: (s["ts"], -s["dur"]))
            for a, b in zip(track, track[1:]):
                a_end = a["ts"] + a["dur"]
                assert (
                    b["ts"] + b["dur"] <= a_end + eps  # nested
                    or b["ts"] >= a_end - eps  # disjoint
                ), f"overlapping spans {a['name']}/{b['name']}"
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                assert e["name"] in {"process_name", "thread_name"}
                assert e["args"]["name"]


# --------------------------------------------------------------------------
# queue counters and their per-point reset (the satellite fix)
# --------------------------------------------------------------------------


class TestQueueCounters:
    def test_reset_profile_zeroes_counters(self):
        device = find_device("gpu")
        ctx = Context(device)
        q = CommandQueue(ctx, device)
        buf = ctx.create_buffer(size=4096)
        arr = np.zeros(1024, dtype=np.int32)
        q.enqueue_write_buffer(buf, arr)
        q.enqueue_read_buffer(buf, arr)
        assert q.counters["commands"] == 2
        assert q.counters["h2d_bytes"] == 4096
        assert q.counters["d2h_bytes"] == 4096
        assert q.counters["virtual_busy_s"] > 0
        q.reset_profile()
        assert q.counters == CommandQueue._fresh_counters()

    def test_queue_spans_and_metrics(self):
        device = find_device("gpu")
        ctx = Context(device)
        q = CommandQueue(ctx, device)
        buf = ctx.create_buffer(size=4096)
        arr = np.zeros(1024, dtype=np.int32)
        tracer = obs_trace.Tracer()
        reg = obs_metrics.MetricsRegistry()
        with obs_trace.use_tracer(tracer), obs_metrics.use_registry(reg):
            q.enqueue_write_buffer(buf, arr)
            q.enqueue_read_buffer(buf, arr)
        assert {e["name"] for e in tracer.events} == {
            "write_buffer",
            "read_buffer",
        }
        counters = reg.snapshot()["counters"]
        assert counters["queue.h2d_bytes"] == 4096
        assert counters["queue.d2h_bytes"] == 4096


# --------------------------------------------------------------------------
# live progress reporter
# --------------------------------------------------------------------------


class TestSweepProgress:
    def test_default_verbosity_prints_summary_lines(self):
        out, err = io.StringIO(), io.StringIO()
        reporter = obs.SweepProgress(total=2, verbosity=1, out=out, err=err)
        runner = BenchmarkRunner("cpu", ntimes=1)
        explore(runner, _small_sweep(), progress=reporter)
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("[cpu]") for line in lines)
        assert reporter.done == 2 and reporter.failed == 0

    def test_quiet_emits_nothing_but_still_counts(self):
        out = io.StringIO()
        reporter = obs.SweepProgress(total=2, verbosity=0, out=out, err=out)
        runner = BenchmarkRunner("cpu", ntimes=1)
        explore(runner, _small_sweep(), progress=reporter)
        assert out.getvalue() == ""
        assert reporter.done == 2

    def test_verbose_adds_stage_breakdown(self):
        out = io.StringIO()
        reporter = obs.SweepProgress(total=2, verbosity=2, out=out, err=out)
        runner = BenchmarkRunner("cpu", ntimes=1)
        explore(runner, _small_sweep(), progress=reporter)
        assert "stages:" in out.getvalue()
        assert "execute" in out.getvalue()

    def test_cached_frontend_tag_and_hit_rate(self):
        out = io.StringIO()
        runner = BenchmarkRunner("cpu", ntimes=1)
        sweep = ParameterSweep(
            base=TuningParameters(array_bytes=32 * KIB),
            axes={"array_bytes": [32 * KIB, 64 * KIB]},  # same source: 2nd hits
        )
        reporter = obs.SweepProgress(total=2, verbosity=1, out=out, err=out)
        explore(runner, sweep, progress=reporter)
        assert "[cached front-end]" in out.getvalue()
        assert reporter.cache_hits == 1
        assert reporter.cache_hit_rate == 0.5

    def test_status_line_and_eta(self):
        ticks = iter([0.0, 10.0, 10.0, 10.0, 10.0, 10.0])
        reporter = obs.SweepProgress(
            total=4,
            verbosity=0,
            out=io.StringIO(),
            err=io.StringIO(),
            clock=lambda: next(ticks),
        )
        reporter.done = 2
        reporter.failed = 1
        line = reporter.status_line()
        assert line.startswith("2/4 points")
        assert "0.2 pt/s" in line
        assert "eta 10.0s" in line
        assert "1 failed" in line
        assert reporter.finish() == line
