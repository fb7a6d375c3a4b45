"""Memory-system simulation substrate.

Building blocks the device models compose, and the exact simulators
that check them:

* :mod:`repro.memsim.cache` — the cache-reuse rule the CPU and GPU
  models share (:func:`far_reuse_miss_fraction`) and the exact
  set-associative LRU simulator that is its oracle;
* :mod:`repro.memsim.coalesce` — grouping element accesses into memory
  transactions (GPU warp coalescing, FPGA burst inference); the oracle
  of the GPU model's segment count;
* :mod:`repro.memsim.dram` — DRAM channel/bank/row-buffer timing;
  :func:`simulate_dram` is the oracle of :func:`row_locality_efficiency`;
* :mod:`repro.memsim.controller` — multi-stream arbitration/contention;
* :mod:`repro.memsim.pcie` — the host↔device interconnect.
"""

from __future__ import annotations

from .cache import BATCH_THRESHOLD, Cache, CacheConfig, far_reuse_miss_fraction
from .coalesce import (
    CoalesceResult,
    coalesce_fixed_groups,
    coalesce_fixed_groups_batch,
    coalesce_sequential,
    coalesce_sequential_batch,
)
from .controller import MemoryController, StreamDemand
from .dram import DramSpec, DramTiming, simulate_dram, row_locality_efficiency
from .pcie import PcieLink

__all__ = [
    "BATCH_THRESHOLD",
    "Cache",
    "CacheConfig",
    "far_reuse_miss_fraction",
    "CoalesceResult",
    "coalesce_fixed_groups",
    "coalesce_fixed_groups_batch",
    "coalesce_sequential",
    "coalesce_sequential_batch",
    "MemoryController",
    "StreamDemand",
    "DramSpec",
    "DramTiming",
    "simulate_dram",
    "row_locality_efficiency",
    "PcieLink",
]
