"""Set-associative cache simulation and the device models' reuse rule.

* :class:`Cache` — an exact set-associative LRU simulator over byte
  address traces. It has two lanes with identical semantics: a per-set
  Python loop (:meth:`Cache.access_scalar`, the differential oracle)
  and a NumPy batch lane (:meth:`Cache.access_batch`) that simulates
  all sets lane-parallel, processing the trace in "rounds" — the k-th
  access of every set together — so each vectorized step touches each
  set at most once. :meth:`Cache.access` picks the lane automatically
  by trace size; ``tests/test_fastpath_equivalence.py`` proves the
  lanes agree bit-for-bit on stats, per-access miss masks and final
  LRU state across randomized geometries and traces.
* :func:`far_reuse_miss_fraction` — the one cache-reuse rule the CPU
  and GPU models call for strided streams. :class:`Cache` is its
  oracle: ``tests/test_memsim_oracles.py`` drives the exact simulator
  with the full address stream of every Fig 2 strided point and pins
  each cell where the two disagree, with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidValueError
from ..obs import metrics as obs_metrics

__all__ = [
    "BATCH_THRESHOLD",
    "CacheConfig",
    "CacheStats",
    "Cache",
    "far_reuse_miss_fraction",
]

#: trace length at which :meth:`Cache.access` switches to the batch lane
BATCH_THRESHOLD = 4096

#: below this many sets the batch lane degenerates towards one access
#: per round and the scalar loop is faster
_MIN_BATCH_SETS = 4

#: minimum same-line run-collapse factor before the auto lane batches
_MIN_COLLAPSE = 4


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    capacity_bytes: int
    line_bytes: int = 64
    ways: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise InvalidValueError(f"line size must be a power of two: {self.line_bytes}")
        if self.ways <= 0:
            raise InvalidValueError(f"ways must be positive: {self.ways}")
        if self.capacity_bytes % (self.line_bytes * self.ways):
            raise InvalidValueError(
                f"capacity {self.capacity_bytes} is not divisible by "
                f"line*ways = {self.line_bytes * self.ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes


@dataclass
class CacheStats:
    """Access counters from a simulation run."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class Cache:
    """Exact set-associative LRU cache over byte-address traces.

    State persists across :meth:`access` calls, so multi-pass workloads
    can be fed window by window.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # per set: list of tags in LRU order (index 0 = least recent)
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.stats = CacheStats()

    def access(self, addresses: np.ndarray) -> CacheStats:
        """Run a byte-address trace; returns stats for *this* trace only.

        Selects the batch lane automatically at benchmark scale
        (:data:`BATCH_THRESHOLD` accesses and enough sets to win); both
        lanes produce bit-identical stats and final state.
        """
        return self.access_masked(addresses)[0]

    def access_masked(
        self, addresses: np.ndarray
    ) -> tuple[CacheStats, np.ndarray]:
        """Like :meth:`access`, also returning the per-access miss mask.

        ``mask[i]`` is True when access ``i`` missed, so a caller can
        tell which accesses of a trace reached the next level without
        re-simulating.
        """
        set_idx, tags = self._split(addresses)
        if self._batch_eligible(set_idx, tags):
            local, miss = self._access_batch(set_idx, tags)
            lane = "batch"
        else:
            miss = np.zeros(set_idx.size, dtype=bool)
            local = self._access_scalar(set_idx, tags, miss)
            lane = "scalar"
        self._record(local, lane)
        return local, miss

    def access_scalar(self, addresses: np.ndarray) -> CacheStats:
        """The per-set Python loop: the differential oracle lane."""
        set_idx, tags = self._split(addresses)
        local = self._access_scalar(set_idx, tags, None)
        self._record(local, "scalar")
        return local

    def access_batch(self, addresses: np.ndarray) -> CacheStats:
        """The NumPy round-based lane; semantics identical to scalar."""
        set_idx, tags = self._split(addresses)
        if np.any(tags < 0):
            raise InvalidValueError("batch lane requires non-negative addresses")
        local, _ = self._access_batch(set_idx, tags)
        self._record(local, "batch")
        return local

    # -- lane plumbing ------------------------------------------------------

    def _split(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        lines = np.asarray(addresses, dtype=np.int64) >> int(
            np.log2(cfg.line_bytes)
        )
        set_idx = (lines % cfg.num_sets).astype(np.int64)
        tags = (lines // cfg.num_sets).astype(np.int64)
        return set_idx, tags

    def _batch_eligible(self, set_idx: np.ndarray, tags: np.ndarray) -> bool:
        n = int(set_idx.size)
        if n < BATCH_THRESHOLD:
            return False
        if self.config.num_sets < _MIN_BATCH_SETS:
            return False
        # negative tags would collide with the empty-slot sentinel
        if tags.size and tags.min() < 0:
            return False
        # The batch lane wins when spatial locality lets same-line runs
        # collapse (unit-/sub-line-stride STREAM windows); with little
        # collapse the round loop approaches one access per set per
        # round and the scalar loop is competitive or faster. Require a
        # 4x shrink so the auto lane never loses.
        runs = 1 + int(
            np.count_nonzero(
                (set_idx[1:] != set_idx[:-1]) | (tags[1:] != tags[:-1])
            )
        )
        return runs * _MIN_COLLAPSE <= n

    def _record(self, local: CacheStats, lane: str) -> None:
        self.stats = self.stats.merge(local)
        if obs_metrics.active_registry() is not None:
            obs_metrics.count("memsim.cache.accesses", local.accesses)
            obs_metrics.count("memsim.cache.hits", local.hits)
            obs_metrics.count("memsim.cache.misses", local.misses)
            obs_metrics.count("memsim.cache.evictions", local.evictions)
            obs_metrics.count(f"fastpath.cache.{lane}_accesses", local.accesses)

    # -- scalar lane --------------------------------------------------------

    def _access_scalar(
        self,
        set_idx: np.ndarray,
        tags: np.ndarray,
        miss_out: np.ndarray | None,
    ) -> CacheStats:
        local = CacheStats(accesses=int(set_idx.size))
        ways = self.config.ways
        sets = self._sets
        for i, (s, t) in enumerate(zip(set_idx.tolist(), tags.tolist())):
            lru = sets[s]
            try:
                lru.remove(t)
                local.hits += 1
            except ValueError:
                local.misses += 1
                if miss_out is not None:
                    miss_out[i] = True
                if len(lru) >= ways:
                    lru.pop(0)
                    local.evictions += 1
            lru.append(t)
        return local

    # -- batch lane ---------------------------------------------------------

    def _access_batch(
        self, set_idx: np.ndarray, tags: np.ndarray
    ) -> tuple[CacheStats, np.ndarray]:
        """All-sets-parallel LRU simulation.

        State is a ``(num_sets, ways)`` tag table plus a matching
        ``last_use`` age table: within a set, ages are unique and
        strictly increase with each access, so LRU order is exactly the
        age order and the victim of a full set is the argmin age.
        Empty slots hold tag ``-1`` at age ``0`` — the argmin then
        prefers empty slots over evictions, matching the scalar lane's
        fill-before-evict behaviour.

        Three exact reductions make the lane fast:

        * **run collapse** — consecutive accesses to the same line are
          guaranteed hits (the line is most-recently-used); only run
          heads enter the simulation. Unit-stride STREAM windows shrink
          by ``line/stride``.
        * **rounds** — round ``k`` handles the ``k``-th head of every
          set together, so a round never touches a set twice and every
          step vectorizes. Head order, per-head ages and round slices
          are all precomputed; the loop body is a handful of NumPy ops.
        * **deferred eviction count** — a miss either fills an empty
          slot or evicts, and occupancy never shrinks, so evictions
          equal misses minus the occupancy gain, computed once.
        """
        cfg = self.config
        n = int(set_idx.size)
        local = CacheStats(accesses=n)
        miss_mask = np.zeros(n, dtype=bool)
        if n == 0:
            return local, miss_mask
        num_sets, ways = cfg.num_sets, cfg.ways

        tag_tab = np.full((num_sets, ways), -1, dtype=np.int64)
        age_tab = np.zeros((num_sets, ways), dtype=np.int64)
        occ0 = np.zeros(num_sets, dtype=np.int64)
        for s, lru in enumerate(self._sets):
            if lru:
                k = len(lru)
                tag_tab[s, :k] = lru
                age_tab[s, :k] = np.arange(1, k + 1)
                occ0[s] = k

        # run collapse, stage 1 (raw trace): consecutive accesses to the
        # same line are guaranteed hits (the line is MRU in its set) and
        # leave the LRU order unchanged; only run heads go any further.
        # Unit-stride STREAM windows shrink by line/stride *before* the
        # O(n log n) sort below ever sees them.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.logical_or(
            set_idx[1:] != set_idx[:-1],
            tags[1:] != tags[:-1],
            out=keep[1:],
        )
        raw_heads = np.flatnonzero(keep)
        set_idx = set_idx[raw_heads]
        tags = tags[raw_heads]
        n1 = int(raw_heads.size)

        # sort by set (stable): each set's subsequence becomes contiguous
        order = np.argsort(set_idx, kind="stable")
        ss = set_idx[order]
        tt = tags[order]

        # run collapse, stage 2 (per set): the same rule applied to each
        # set's subsequence also collapses interleaved streams (a,b,c
        # round-robin), whose runs are contiguous per set but not in the
        # raw trace.
        keep = np.empty(n1, dtype=bool)
        keep[0] = True
        np.logical_or(ss[1:] != ss[:-1], tt[1:] != tt[:-1], out=keep[1:])
        head_pos = np.flatnonzero(keep)
        head_sets = ss[head_pos]
        head_tags = tt[head_pos]
        heads = raw_heads[order[head_pos]]
        m = int(head_pos.size)

        # round-major layout: heads are already set-sorted; rank them
        # within their set, then regroup by rank so each round is a
        # contiguous slice touching every set at most once
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(head_sets[1:], head_sets[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, m))
        rank = np.arange(m, dtype=np.int64) - np.repeat(starts, sizes)
        by_round = np.argsort(rank, kind="stable")
        round_order = by_round
        counts = np.bincount(rank)
        offsets = np.concatenate(([0], np.cumsum(counts)))

        S = head_sets[round_order]
        T = head_tags[round_order]
        # the k-th head of a set gets age occupancy+k+1: unique per set,
        # strictly increasing with access order
        A = occ0[S] + rank[by_round] + 1
        H = np.empty(m, dtype=bool)

        for r in range(counts.size):
            lo, hi = offsets[r], offsets[r + 1]
            s = S[lo:hi]
            t = T[lo:hi]
            match = tag_tab[s] == t[:, None]
            H[lo:hi] = match.any(axis=1)
            # matched way (forced to age -1) or else the min-age victim:
            # empty slots age 0 beat occupied ones, LRU beats the rest
            way = np.where(match, -1, age_tab[s]).argmin(axis=1)
            tag_tab[s, way] = t
            age_tab[s, way] = A[lo:hi]

        head_hit = np.empty(m, dtype=bool)
        head_hit[round_order] = H
        miss_mask[heads[~head_hit]] = True
        local.misses = int(np.count_nonzero(~head_hit))
        local.hits = n - local.misses
        occ_gain = int(np.count_nonzero(tag_tab != -1)) - int(occ0.sum())
        local.evictions = local.misses - occ_gain
        self._sets = _tables_to_sets(tag_tab, age_tab)
        return local, miss_mask

    def contains(self, address: int) -> bool:
        cfg = self.config
        line = address >> int(np.log2(cfg.line_bytes))
        s = line % cfg.num_sets
        t = line // cfg.num_sets
        return t in self._sets[s]


def _tables_to_sets(
    tag_tab: np.ndarray, age_tab: np.ndarray
) -> list[list[int]]:
    """Rebuild per-set LRU lists (least recent first) from the tables."""
    sets: list[list[int]] = []
    for row_tags, row_ages in zip(tag_tab.tolist(), age_tab.tolist()):
        pairs = sorted(
            (age, tag) for age, tag in zip(row_ages, row_tags) if tag != -1
        )
        sets.append([tag for _, tag in pairs])
    return sets


def far_reuse_miss_fraction(
    reuse_window_bytes: int | None, element_bytes: int, config: CacheConfig
) -> float:
    """Miss fraction of a strided stream whose lines come back once per window.

    The CPU and GPU models both decide cache reuse with this rule. A
    column walk touches each line ``line/element`` times, one reuse
    window apart (``repro.devices.base._reuse_window``). When the window
    fits the cache, less an associativity allowance of half a way, only
    the first touch of each line misses. Otherwise, or without far
    reuse (``None``), every access misses. ``tests/test_memsim_oracles.py``
    checks this rule against :class:`Cache` on the paper's strided grid.
    """
    effective = config.capacity_bytes * (1.0 - 1.0 / (2 * config.ways))
    if reuse_window_bytes is not None and reuse_window_bytes <= effective:
        return 1.0 / max(1, config.line_bytes // element_bytes)
    return 1.0
