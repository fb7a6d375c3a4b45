"""CPU performance model (OpenCL on a multicore Xeon).

Mechanisms, in the order they bind:

1. **Launch overhead** — enqueue + driver + thread-pool wake-up; this is
   what makes kilobyte arrays measure hundredths of the peak (Fig 1a's
   left edge).
2. **Parallelism** — an NDRange fans work-groups out across cores; a
   single-work-item kernel (the FPGA-friendly styles) runs on one core
   and is capped by that core's miss-level parallelism.
3. **Cache hierarchy** — streams whose line-reuse window fits the LLC
   serve their revisits at LLC bandwidth; strided misses pay DRAM
   command overhead and fetch whole lines for one element (traffic
   amplification).
4. **TLB** — strided walks that leave the DTLB reach pay an amortized
   page-walk cost per page-crossing access (Fig 2's large-size strided
   collapse).
5. **DRAM** — the memory controller arbitration of the remaining
   misses, with near-peak efficiency for sequential line streams.
"""

from __future__ import annotations

import math

from ..memsim.cache import far_reuse_miss_fraction
from ..memsim.controller import MemoryController, StreamDemand
from ..oclc import KernelIR, LoopMode
from .base import (
    AccessProfile,
    BuildOptions,
    DeviceModel,
    ExecutionPlan,
    KernelTiming,
    Launch,
    profile_accesses,
)
from .specs import CpuSpec

__all__ = ["CpuModel"]

#: thread-pool dispatch cost per work-group
_WORK_GROUP_OVERHEAD_S = 50e-9
#: work-group size the runtime picks when the app passes None
_AUTO_LOCAL_SIZE = 1024
#: typical OS page
_PAGE_BYTES = 4096


class CpuModel(DeviceModel):
    """Model of an OpenCL CPU runtime on a multicore Xeon."""

    spec: CpuSpec

    def __init__(self, spec: CpuSpec):
        super().__init__(spec)
        self._controller = MemoryController(spec.dram)

    # -- build -------------------------------------------------------------------

    def plan(self, ir: KernelIR, options: BuildOptions) -> ExecutionPlan:
        notes = [
            f"cpu build of kernel {ir.name!r}: loop mode {ir.loop_mode}",
            f"implicit vectorization width {max(ir.vector_width, 4)} lanes",
        ]
        if ir.loop_mode is not LoopMode.NDRANGE:
            notes.append(
                "single work-item kernel: executes on one core "
                "(consider NDRange on CPU targets)"
            )
        return ExecutionPlan(ir=ir, build_log="\n".join(notes))

    # -- timing -------------------------------------------------------------------

    def kernel_timing(self, plan: ExecutionPlan, launch: Launch) -> KernelTiming:
        spec = self.spec
        ir = plan.ir
        profiles = profile_accesses(ir, launch, line_bytes=spec.llc.line_bytes)

        threads = self._threads(ir, launch)
        sched_s = self._scheduling_overhead(ir, launch, threads)

        llc_bytes = 0.0
        tlb_s = 0.0
        demands: list[StreamDemand] = []
        dram_bytes = 0.0
        for p in profiles:
            traffic = self._stream_traffic(p)
            llc_bytes += traffic["llc_bytes"]
            tlb_s += traffic["tlb_s"]
            dram_bytes += traffic["dram_bytes"]
            if traffic["dram_bytes"] > 0:
                demands.append(
                    StreamDemand(
                        bytes_total=int(traffic["dram_bytes"]),
                        transaction_bytes=traffic["tx_bytes"],
                        sequential=traffic["sequential"],
                        is_write=p.is_write,
                    )
                )

        useful = sum(p.useful_bytes for p in profiles)
        t_dram = (
            self._controller.service(demands).seconds / self._vector_boost(ir)
            if demands
            else 0.0
        )
        t_llc = llc_bytes / spec.llc_bandwidth
        # a single thread cannot extract full DRAM bandwidth
        t_mlp_floor = useful / (threads * spec.per_core_stream_bw)
        execution = max(t_dram + t_llc, t_mlp_floor) + tlb_s / threads
        detail: dict[str, object] = {
            "threads": threads,
            "useful_bytes": useful,
            "dram_bytes": dram_bytes,
            "llc_bytes": llc_bytes,
            "t_dram_s": t_dram,
            "t_llc_s": t_llc,
            "t_mlp_floor_s": t_mlp_floor,
            "tlb_s": tlb_s,
            "scheduling_s": sched_s,
        }
        return KernelTiming(
            launch_overhead_s=spec.launch_overhead_s + sched_s,
            execution_s=execution,
            detail=detail,
        )

    # -- mechanisms ----------------------------------------------------------------

    def _threads(self, ir: KernelIR, launch: Launch) -> int:
        if ir.loop_mode is LoopMode.NDRANGE:
            return max(1, min(self.spec.compute_units, launch.work_items))
        return 1

    def _scheduling_overhead(self, ir: KernelIR, launch: Launch, threads: int) -> float:
        if ir.loop_mode is not LoopMode.NDRANGE:
            return 0.0
        local = (
            launch.local_size[0]
            if launch.local_size
            else min(_AUTO_LOCAL_SIZE, launch.work_items)
        )
        groups = math.ceil(launch.work_items / max(1, local))
        return groups * _WORK_GROUP_OVERHEAD_S / threads

    def _vector_boost(self, ir: KernelIR) -> float:
        """Explicit OpenCL vectors help the CPU only marginally.

        The CPU compiler already auto-vectorizes scalar kernels, so wide
        types only trim loop overhead: a few percent per doubling,
        saturating at width 8 (Fig 1b's nearly flat CPU curve).
        """
        w = min(ir.vector_width, 8)
        return 1.0 + 0.05 * math.log2(max(w, 1))

    def _stream_traffic(self, p: AccessProfile) -> dict:
        """Split one access stream into LLC traffic, DRAM traffic and TLB cost."""
        spec = self.spec
        line = spec.llc.line_bytes
        useful = p.useful_bytes

        if p.pattern == "contiguous":
            # streaming load/store: hardware prefetch, full line use
            return {
                "llc_bytes": 0.0,
                "dram_bytes": float(useful),
                "tx_bytes": float(line),
                "sequential": True,
                "tlb_s": 0.0,
            }

        stride = abs(p.stride_bytes) if p.stride_bytes else line
        if stride >= line:
            # column-walk revisits hit the LLC only if a full column of
            # lines fits; a miss fetches every line the element spans
            miss_fraction = far_reuse_miss_fraction(
                p.reuse_window_bytes, p.element_bytes, spec.llc
            )
            misses = useful / p.element_bytes * miss_fraction
            dram_bytes = misses * max(line, p.element_bytes)
            llc_bytes = (1.0 - miss_fraction) * useful
            sequential = False
        else:
            # sub-line stride: spatial reuse within the line
            miss_fraction = 1.0 / (line // stride)
            dram_bytes = useful / p.element_bytes * miss_fraction * line
            llc_bytes = (1.0 - miss_fraction) * useful
            sequential = True

        tlb_s = 0.0
        if stride >= _PAGE_BYTES and p.footprint_bytes > spec.tlb_reach_bytes:
            # every access lands on a new page and the walk misses the DTLB
            tlb_s = (useful / p.element_bytes) * spec.tlb_miss_s
        return {
            "llc_bytes": llc_bytes,
            "dram_bytes": dram_bytes,
            "tx_bytes": float(line),
            "sequential": sequential,
            "tlb_s": tlb_s,
        }

    # -- transfers -----------------------------------------------------------------

    def transfer_time(self, nbytes: int, direction: str) -> float:
        """CPU-device "transfers" are memcpys within host RAM."""
        _ = direction
        return 1e-6 + 2.0 * nbytes / (
            self.spec.stream_efficiency * self.spec.dram.peak_bandwidth
        )
