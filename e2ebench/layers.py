"""Outside-in layer tracing: wrap each layer's public entry points.

The traced run installs a wrapper around the public calls of every
layer listed in :data:`LAYERS`, from this file, without touching the
program. Each wrapper records a span: its duration, and the duration of
the wrapped calls nested inside it. A layer's *self time* is the sum of
its spans' durations minus the time of their wrapped children, so the
self times of all layers plus the untraced remainder add up to the wall
time of the traced workload.

Spans are aggregated in memory as they close (calls, self seconds and
per-layer counters); the campaigns run on the serial backend, so one
call stack is enough.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from typing import Callable

# A hook receives (counters, args, kwargs, result, exc) after the call.
Hook = Callable[[dict, tuple, dict, object, "BaseException | None"], None]


class LayerTracer:
    """Aggregates self time and counters per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.journal_sizes: dict[object, int] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, layer: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper charged to ``layer``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack, self_s, counters = self._stack, self.self_s, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            exc = None
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self_s[layer] += duration - frame[0]
                if hook is not None:
                    hook(counters, args, kwargs, result, exc)

        traced.__wrapped__ = original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count(name: str) -> Hook:
    def hook(counters, args, kwargs, result, exc):
        counters[name] += 1

    return hook


def _frontend(counters, args, kwargs, result, exc):
    counters["frontend.calls"] += 1
    if exc is None and result[1]:
        counters["frontend.hits"] += 1


def _plan(counters, args, kwargs, result, exc):
    # BuildCache.plan counts a replayed cached failure as a hit; the
    # failures below include those replays
    counters["plan.calls"] += 1
    if exc is not None:
        counters["plan.build_failures"] += 1
        return
    if result[1]:
        counters["plan.hits"] += 1


def _lower(refusal: type) -> Hook:
    def hook(counters, args, kwargs, result, exc):
        counters["lower.calls"] += 1
        if isinstance(exc, refusal):
            counters["lower.refusals"] += 1

    return hook


def _functional(lane: str, refusal: type) -> Hook:
    def hook(counters, args, kwargs, result, exc):
        counters[f"functional.runs.{lane}"] += 1
        if exc is not None:
            # a run-time refusal demotes the launch to the next lane
            if isinstance(exc, refusal):
                counters["lower.refusals"] += 1
            return
        call_args = args[2] if len(args) > 2 else kwargs["args"]
        counters["functional.words"] += sum(
            v.array.size for v in call_args.values() if hasattr(v, "array")
        )

    return hook


def _engine(counters, args, kwargs, result, exc):
    counters["engine.points"] += 1
    if result is not None:
        counters["engine.retries"] += result.detail["engine"]["attempts"] - 1


def _scheduler(counters, args, kwargs, result, exc):
    # the points argument may be a one-shot iterable: count the results
    if result is not None:
        counters["scheduler.points"] += len(result)


def _buffers(counters, args, kwargs, result, exc):
    counters["buffers.calls"] += 1
    if result is not None:
        counters["buffers.bytes"] += sum(a.nbytes for a in result.values())


def _validate(counters, args, kwargs, result, exc):
    counters["validate.calls"] += 1
    if exc is not None:
        counters["validate.failures"] += 1


def _cache(counters, args, kwargs, result, exc):
    addresses = args[1] if len(args) > 1 else kwargs["addresses"]
    counters["memsim.cache.accesses"] += len(addresses)


def _journal_record(tracer: LayerTracer) -> Hook:
    def hook(counters, args, kwargs, result, exc):
        counters["journal.records"] += 1
        # the record is appended to the journal file; charge its growth
        path = args[0].path
        size = os.path.getsize(path) if path.exists() else 0
        counters["journal.bytes"] += size - tracer.journal_sizes.get(path, 0)
        tracer.journal_sizes[path] = size

    return hook


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public calls (see the README's layer table)."""
    mod = importlib.import_module
    engine = mod("repro.core.engine")
    scheduler = mod("repro.core.scheduler.campaign")
    generator = mod("repro.core.generator")
    lowfi = mod("repro.core.search.lowfi")
    kernels = mod("repro.core.kernels")
    validate = mod("repro.core.validate")
    history = mod("repro.core.history")
    program = mod("repro.ocl.program")
    queue = mod("repro.ocl.queue")
    compile_ = mod("repro.oclc.compile")
    vectorize = mod("repro.oclc.vectorize")
    interp = mod("repro.oclc.interp")
    cpu = mod("repro.devices.cpu")
    gpu = mod("repro.devices.gpu")
    fpga = mod("repro.devices.fpga.model")
    base = mod("repro.devices.base")
    controller = mod("repro.memsim.controller")
    pcie = mod("repro.memsim.pcie")
    cache = mod("repro.memsim.cache")
    coalesce = mod("repro.memsim.coalesce")
    memsim = mod("repro.memsim")
    refusal = mod("repro.errors").UnsupportedKernelError

    w = tracer.wrap
    w(scheduler.CampaignScheduler, "run", "scheduler", _scheduler)
    w(engine.ExecutionEngine, "run", "engine", _engine)
    # module-level functions are imported by name, so wrap every binding
    # the run path looks up
    for owner in (generator, engine, lowfi):
        w(owner, "generate", "generator", _count("generator.calls"))
    w(program.BuildCache, "frontend", "frontend", _frontend)
    w(program.BuildCache, "plan", "plan", _plan)
    # the queue picks its execution lane by calling these three
    w(vectorize, "vectorize_kernel", "lower", _lower(refusal))
    w(compile_, "compile_kernel", "lower", _lower(refusal))
    w(interp.KernelInterpreter, "__init__", "lower", _lower(refusal))
    w(vectorize.VectorKernel, "run", "functional", _functional("vectorized", refusal))
    w(compile_.CompiledKernel, "run", "functional", _functional("compiled", refusal))
    w(interp.KernelInterpreter, "run", "functional", _functional("interpreted", refusal))
    for owner in (kernels, engine):
        w(owner, "initial_arrays", "buffers", _buffers)
    w(queue.CommandQueue, "enqueue_nd_range_kernel", "queue", _count("queue.launches"))
    for name in ("enqueue_write_buffer", "enqueue_read_buffer"):
        w(queue.CommandQueue, name, "queue.xfer", _count("queue.xfers"))
    w(cpu.CpuModel, "kernel_timing", "model.cpu", _count("model.cpu.calls"))
    w(gpu.GpuModel, "kernel_timing", "model.gpu", _count("model.gpu.calls"))
    w(fpga.FpgaModel, "kernel_timing", "model.fpga", _count("model.fpga.calls"))
    w(controller.MemoryController, "service", "memsim.controller",
      _count("memsim.controller.calls"))
    w(pcie.PcieLink, "transfer_time", "memsim.pcie", _count("memsim.pcie.calls"))
    # Cache.access goes through access_masked; the analytic device models
    # call neither the cache nor the coalescers at the seed, so these read
    # 0 until a model starts simulating traces
    for name in ("access_masked", "access_scalar", "access_batch"):
        w(cache.Cache, name, "memsim.cache", _cache)
    for name in ("coalesce_fixed_groups", "coalesce_fixed_groups_batch",
                 "coalesce_sequential", "coalesce_sequential_batch"):
        for owner in (coalesce, memsim):
            w(owner, name, "memsim.coalesce")
    for owner in (validate, engine):
        w(owner, "validate_solution", "validate", _validate)
    w(history.SweepJournal, "record", "journal", _journal_record(tracer))
    w(lowfi.LowFidelityScorer, "score", "search.lowfi", _count("search.lowfi.calls"))
    w(base.DeviceModel, "score_launch", "search.score", _count("search.score.calls"))


def per_layer_metrics(tracer: LayerTracer, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metric values of one traced workload run."""
    c, s = tracer.counters, tracer.self_s

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    out = {
        "scheduler.self_s": s["scheduler"],
        "scheduler.points": c["scheduler.points"],
        "engine.self_s": s["engine"],
        "engine.points": c["engine.points"],
        "engine.retries": c["engine.retries"],
        "generator.calls": c["generator.calls"],
        "generator.self_s": s["generator"],
        "frontend.calls": c["frontend.calls"],
        "frontend.self_s": s["frontend"],
        "frontend.hit_ratio": ratio("frontend.hits", "frontend.calls"),
        "plan.calls": c["plan.calls"],
        "plan.self_s": s["plan"],
        "plan.hit_ratio": ratio("plan.hits", "plan.calls"),
        "plan.build_failures": c["plan.build_failures"],
        "lower.calls": c["lower.calls"],
        "lower.self_s": s["lower"],
        "lower.refusals": c["lower.refusals"],
        "functional.runs.vectorized": c["functional.runs.vectorized"],
        "functional.runs.compiled": c["functional.runs.compiled"],
        "functional.runs.interpreted": c["functional.runs.interpreted"],
        "functional.self_s": s["functional"],
        "functional.words": c["functional.words"],
        "buffers.calls": c["buffers.calls"],
        "buffers.self_s": s["buffers"],
        "buffers.bytes": c["buffers.bytes"],
        "queue.launches": c["queue.launches"],
        "queue.self_s": s["queue"],
        "queue.xfers": c["queue.xfers"],
        "queue.xfer_self_s": s["queue.xfer"],
        "validate.calls": c["validate.calls"],
        "validate.self_s": s["validate"],
        "validate.failures": c["validate.failures"],
        "journal.records": c["journal.records"],
        "journal.self_s": s["journal"],
        "journal.bytes": c["journal.bytes"],
        "search.lowfi.calls": c["search.lowfi.calls"],
        "search.lowfi.self_s": s["search.lowfi"] + s["search.score"],
        "search.score.calls": c["search.score.calls"],
    }
    for target in ("cpu", "gpu", "fpga"):
        out[f"model.{target}.calls"] = c[f"model.{target}.calls"]
        out[f"model.{target}.self_s"] = s[f"model.{target}"]
    for part in ("controller", "pcie"):
        out[f"memsim.{part}.calls"] = c[f"memsim.{part}.calls"]
        out[f"memsim.{part}.self_s"] = s[f"memsim.{part}"]
    out["memsim.cache.accesses"] = c["memsim.cache.accesses"]
    out["memsim.cache.self_s"] = s["memsim.cache"]
    out["memsim.coalesce.self_s"] = s["memsim.coalesce"]
    out["unwrapped.self_s"] = traced_wall_s - sum(s.values())
    return out
