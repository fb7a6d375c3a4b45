"""Programs: source -> per-device builds.

``Program`` mirrors ``clCreateProgramWithSource`` + ``clBuildProgram``:
the OpenCL-C front-end checks the source once (with the build's ``-D``
defines), then each device's performance model derives its
:class:`~repro.devices.base.ExecutionPlan` — the analogue of the vendor
offline compile, including FPGA resource estimation, which can fail the
build just like a real place-and-route overflow would.

:class:`BuildCache` is the campaign-scoped build cache: it content-
addresses front-end artifacts and device plans by
``(source, effective -D defines, device)``, so a sweep rebuilds nothing
it has already built. Pass one to :meth:`Program.build` (the execution
engine does this for every point).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Mapping

from ..errors import (
    BuildError,
    InvalidValueError,
    OclcError,
    ReproError,
    TransientError,
)
from ..obs import metrics as obs_metrics
from .context import Context

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.base import BuildOptions, ExecutionPlan
    from ..oclc import CheckedProgram
    from .kernel import Kernel
    from .platform import Device

__all__ = ["Program", "BuildCache"]


#: the hit/miss counters :meth:`BuildCache.stats` reports
CACHE_COUNTERS = ("frontend_hits", "frontend_misses", "plan_hits", "plan_misses")


class BuildCache:
    """Content-addressed build artifacts for one campaign.

    Front-end results are keyed by ``(source, effective defines)`` and
    additionally funnel through the process-wide
    :func:`repro.oclc.compile_source_cached` memo; device plans are
    stored via each :class:`~repro.devices.base.DeviceModel`'s
    plan-cache hook (so independent campaigns against the same device
    still share plans). Build *failures* are cached too — a sweep
    retrying an FPGA configuration that does not fit skips the
    re-estimation and re-raises the recorded :class:`BuildError`.

    All methods are thread-safe (the obs server's thread reads the
    counters mid-campaign). Each engine owns one instance; a parallel
    campaign's worker processes each warm their own, and their counters
    reach the parent through
    :meth:`~repro.core.engine.EngineStats.merge_snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checked: dict[tuple, "CheckedProgram"] = {}
        self._counters = dict.fromkeys(CACHE_COUNTERS, 0)

    # -- stages ------------------------------------------------------------------

    def frontend(
        self,
        source: str,
        defines: Mapping[str, str | int] | None,
        *,
        key: tuple | None = None,
    ) -> "tuple[CheckedProgram, bool]":
        """Lex/parse/type-check ``source`` once per distinct key.

        Returns ``(checked, hit)``. Front-end *errors* are not cached
        (generated sources always compile; hand-written ones fail fast
        anyway). ``key`` is ``frontend_key(source, defines)`` when the
        caller already has it (one point asks for it at both stages).
        """
        from ..oclc import compile_source_cached, frontend_key

        if key is None:
            key = frontend_key(source, defines)
        with self._lock:
            cached = self._checked.get(key)
            if cached is not None:
                self._counters["frontend_hits"] += 1
        if cached is not None:
            obs_metrics.count("build_cache.frontend_hits")
            return cached, True
        self._bump("frontend_misses")
        checked = compile_source_cached(
            source, {k: str(v) for k, v in (defines or {}).items()}, key=key
        )
        with self._lock:
            self._checked[key] = checked
        return checked, False

    def plan(
        self,
        source: str,
        defines: Mapping[str, str | int] | None,
        device: "Device",
        build: "Callable[[], ExecutionPlan]",
        *,
        key: tuple | None = None,
    ) -> "tuple[ExecutionPlan, bool]":
        """Device build once per ``(source, defines, device)`` triple.

        Returns ``(plan, hit)``; a cached failure re-raises the original
        exception (and counts as a hit — the expensive estimation was
        skipped). *Transient* failures
        (:class:`~repro.errors.TransientError` — a toolchain flake, not
        a design that does not fit) are never cached: the retry that
        follows must get a fresh build, and a later campaign must not
        replay a one-off failure as if it were permanent. ``key`` is
        the front-end key, as for :meth:`frontend`.
        """
        from ..oclc import frontend_key

        if key is None:
            key = frontend_key(source, defines)
        key = key + (device.short_name,)
        entry = device.model.plan_cache_get(key)
        if entry is not None:
            self._bump("plan_hits")
            status, payload = entry
            if status == "err":
                raise payload
            return payload, True
        self._bump("plan_misses")
        try:
            plan = build()
        except ReproError as exc:
            if not isinstance(exc, TransientError):
                device.model.plan_cache_put(key, ("err", exc))
            raise
        device.model.plan_cache_put(key, ("ok", plan))
        return plan, False

    # -- bookkeeping -------------------------------------------------------------

    def _bump(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1
        obs_metrics.count(f"build_cache.{counter}")

    def stats(self) -> dict[str, int]:
        """Hit/miss counters plus the number of distinct front-end keys."""
        with self._lock:
            return {**self._counters, "frontend_entries": len(self._checked)}


class Program:
    """An OpenCL program: source plus per-device build artifacts."""

    def __init__(self, context: Context, source: str):
        self.context = context
        self.source = source
        self.checked: "CheckedProgram | None" = None
        self._plans: dict[str, "ExecutionPlan"] = {}
        self._build_logs: dict[str, str] = {}
        self._defines: dict[str, str] = {}

    def build(
        self,
        defines: Mapping[str, str | int] | None = None,
        devices: "tuple[Device, ...] | None" = None,
        options: "BuildOptions | None" = None,
        cache: "BuildCache | None" = None,
    ) -> "Program":
        """Compile for the given (default: all context) devices.

        Raises :class:`~repro.errors.BuildError` with the offending
        device's build log on failure, like ``clBuildProgram``. With a
        :class:`BuildCache`, front-end and per-device artifacts are
        reused across programs with identical content.
        """
        from ..devices.base import BuildOptions as _BuildOptions

        if devices is None:
            devices = self.context.devices
        self._defines = {k: str(v) for k, v in (defines or {}).items()}
        if options is None:
            options = _BuildOptions(defines=self._defines)
        else:
            options = options.with_defines(self._defines)

        self.checked = self._frontend(cache)

        for device in devices:
            checked, opts = self.checked, options
            try:
                if cache is not None:
                    plan, _ = cache.plan(
                        self.source,
                        self._defines,
                        device,
                        lambda: self._device_build(device, checked, opts),
                    )
                else:
                    plan = self._device_build(device, checked, opts)
            except BuildError as exc:
                self._build_logs[device.short_name] = exc.log
                raise
            self._plans[device.short_name] = plan
            self._build_logs[device.short_name] = plan.build_log
        return self

    def _frontend(self, cache: "BuildCache | None") -> "CheckedProgram":
        from ..oclc import compile_source

        try:
            if cache is not None:
                checked, _ = cache.frontend(self.source, self._defines)
                return checked
            return compile_source(self.source, self._defines)
        except OclcError as exc:
            raise BuildError(
                f"front-end error: {exc}", device="<front-end>", log=str(exc)
            ) from exc

    def _device_build(
        self, device: "Device", checked: "CheckedProgram", options: "BuildOptions"
    ) -> "ExecutionPlan":
        try:
            return device.model.build(checked, options)
        except BuildError:
            raise
        except ReproError as exc:
            raise BuildError(
                f"build failed for {device.short_name}",
                device=device.short_name,
                log=str(exc),
            ) from exc

    @classmethod
    def from_artifacts(
        cls,
        context: Context,
        source: str,
        *,
        checked: "CheckedProgram",
        plans: "Mapping[str, ExecutionPlan]",
        defines: Mapping[str, str | int] | None = None,
    ) -> "Program":
        """Assemble an already-built Program from cached artifacts.

        The execution engine's path around :meth:`build`: stage results
        (front-end + per-device plans) come from a :class:`BuildCache`,
        and the Program is only the launchable wrapper the kernel and
        queue layers expect. ``plans`` maps device short names to plans.
        """
        program = cls(context, source)
        program.checked = checked
        program._defines = {k: str(v) for k, v in (defines or {}).items()}
        program._plans = dict(plans)
        program._build_logs = {
            name: plan.build_log for name, plan in plans.items()
        }
        return program

    # -- queries -----------------------------------------------------------------

    def build_log(self, device: "Device") -> str:
        """The device's build log (clGetProgramBuildInfo analogue)."""
        return self._build_logs.get(device.short_name, "")

    def plan_for(self, device: "Device") -> "ExecutionPlan":
        try:
            return self._plans[device.short_name]
        except KeyError:
            raise InvalidValueError(
                f"program was not built for device {device.short_name!r}"
            ) from None

    @property
    def defines(self) -> dict[str, str]:
        return dict(self._defines)

    def create_kernel(self, name: str) -> "Kernel":
        """Instantiate a kernel object for ``name``."""
        from .kernel import Kernel

        if self.checked is None:
            raise InvalidValueError("program must be built before creating kernels")
        return Kernel(self, name)

    def kernel_names(self) -> tuple[str, ...]:
        if self.checked is None:
            raise InvalidValueError("program must be built first")
        return tuple(f.name for f in self.checked.unit.functions if f.is_kernel)
