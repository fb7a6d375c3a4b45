"""Process-wide metrics registry: named counters, gauges and histograms.

A DSE campaign's health is scattered across layers — the engine counts
points and stage seconds, the :class:`~repro.ocl.program.BuildCache`
counts hits and misses, the memory simulators count bytes, rows and
cache lines, the queue counts commands. The registry gives all of them
one sink with stable, dot-separated metric names
(``engine.points``, ``build_cache.frontend_hits``,
``memsim.dram.bytes``, ``queue.h2d_bytes``, the verification
stage's ``verify.points`` / ``verify.mismatches``, the crash-consistent
journal's ``journal.records`` / ``journal.rotations`` /
``journal.dropped_records``, and the
scheduler's shutdown counters ``scheduler.interrupts`` /
``scheduler.journal_degraded``) and one snapshot
format, exportable as JSON via ``--metrics`` and renderable with
:func:`repro.core.report.metrics_table`.

Instrumented code never holds a registry reference; it calls the
module-level helpers (:func:`count`, :func:`observe`, :func:`set_gauge`)
which no-op against a ``None`` global when no registry is active — one
global load and an ``is None`` test, so a campaign that did not ask for
metrics pays nothing measurable. Activate a registry with
:func:`use_registry` (or :func:`repro.obs.session`). Metrics observe
the run; they never feed back into it — virtual-clock timings and
:meth:`~repro.core.results.RunResult.fingerprint` are byte-identical
with the registry on or off.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "set_registry",
    "use_registry",
    "count",
    "observe",
    "set_gauge",
    "load_snapshot",
]


class Counter:
    """A named, monotonically non-decreasing total (int or float)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A named point-in-time value; the last write wins."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming summary of observations: count, total, min, max, mean.

    Keeping raw samples would make snapshots unbounded over a
    million-point campaign; the moments plus the extremes are what a
    stage-time or efficiency distribution is read for.
    """

    __slots__ = ("name", "_lock", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count,
            }

    def merge(self, snapshot: dict[str, float]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        The moments and extremes compose exactly; only the merged mean
        is recomputed. This is the receiving end of the worker
        telemetry relay (:mod:`repro.obs.relay`).
        """
        observations = int(snapshot.get("count", 0) or 0)
        if not observations:
            return
        with self._lock:
            self.count += observations
            self.total += float(snapshot.get("total", 0.0))
            self.min = min(self.min, float(snapshot["min"]))
            self.max = max(self.max, float(snapshot["max"]))


class MetricsRegistry:
    """Thread-safe collection of named counters/gauges/histograms.

    Metrics are created on first use; a name is bound to one kind for
    the registry's lifetime (asking for ``counter("x")`` after
    ``gauge("x")`` is a bug and raises).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    @staticmethod
    def _render(
        metrics: dict[str, "Counter | Gauge | Histogram"],
    ) -> dict[str, dict[str, object]]:
        out: dict[str, dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                value = metric.value
                out["counters"][name] = int(value) if value == int(value) else value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All metrics by kind, JSON-ready and sorted by name."""
        with self._lock:
            metrics = dict(self._metrics)
        return self._render(metrics)

    def drain_snapshot(self) -> dict[str, dict[str, object]]:
        """Snapshot then reset — the worker-relay flush primitive.

        Repeated drains ship disjoint deltas, so a parent that
        :meth:`merge_snapshot`\\ s every batch never double-counts.
        """
        with self._lock:
            metrics = self._metrics
            self._metrics = {}
        return self._render(metrics)

    def merge_snapshot(self, snapshot: dict[str, dict[str, object]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms are additive; gauges take the incoming
        value (last write wins, matching :meth:`Gauge.set`).
        """
        for name, value in (snapshot.get("counters") or {}).items():
            if value:
                self.counter(name).inc(float(value))  # type: ignore[arg-type]
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(float(value))  # type: ignore[arg-type]
        for name, hist in (snapshot.get("histograms") or {}).items():
            self.histogram(name).merge(hist)  # type: ignore[arg-type]

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize the snapshot; optionally write it to ``path``."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
        return text

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


def load_snapshot(path: str | Path) -> dict[str, dict[str, object]]:
    """Read back a snapshot written by :meth:`MetricsRegistry.to_json`."""
    data = json.loads(Path(path).read_text())
    for kind in ("counters", "gauges", "histograms"):
        data.setdefault(kind, {})
    return data


# --------------------------------------------------------------------------
# the active registry (None = instrumentation disabled)
# --------------------------------------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def active_registry() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` when disabled."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry | None]:
    """Scope ``registry`` as the active sink for the ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def count(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` on the active registry (no-op if none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op if none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op if none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)
