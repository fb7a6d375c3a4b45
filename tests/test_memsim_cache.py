"""Cache simulation: exact LRU behaviour and the shared reuse rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.memsim.cache import Cache, CacheConfig, far_reuse_miss_fraction


class TestConfig:
    def test_geometry(self):
        cfg = CacheConfig(capacity_bytes=8192, line_bytes=64, ways=4)
        assert cfg.num_sets == 32
        assert cfg.num_lines == 128

    def test_line_must_be_pow2(self):
        with pytest.raises(InvalidValueError):
            CacheConfig(capacity_bytes=8192, line_bytes=48)

    def test_capacity_divisibility(self):
        with pytest.raises(InvalidValueError):
            CacheConfig(capacity_bytes=1000, line_bytes=64, ways=4)


class TestExactLru:
    def _cache(self, lines=4, ways=None):
        ways = ways or lines  # fully associative by default
        return Cache(CacheConfig(capacity_bytes=64 * lines, line_bytes=64, ways=ways))

    def test_cold_misses(self):
        c = self._cache()
        stats = c.access(np.array([0, 64, 128]))
        assert stats.misses == 3 and stats.hits == 0

    def test_line_granularity_hit(self):
        c = self._cache()
        stats = c.access(np.array([0, 4, 63]))
        assert stats.misses == 1 and stats.hits == 2

    def test_lru_eviction_order(self):
        c = self._cache(lines=2)
        # fill two lines, touch line0 again, insert line2: line1 evicted
        c.access(np.array([0, 64]))
        c.access(np.array([0]))
        c.access(np.array([128]))
        assert c.contains(0)
        assert not c.contains(64)
        assert c.contains(128)

    def test_eviction_counted(self):
        c = self._cache(lines=2)
        stats = c.access(np.array([0, 64, 128, 192]))
        assert stats.evictions == 2

    def test_set_conflicts(self):
        # direct-mapped: addresses one set apart conflict
        c = Cache(CacheConfig(capacity_bytes=256, line_bytes=64, ways=1))
        assert c.config.num_sets == 4
        stats = c.access(np.array([0, 256, 0, 256]))  # same set, different tags
        assert stats.hits == 0 and stats.misses == 4

    def test_state_persists_across_calls(self):
        c = self._cache()
        c.access(np.array([0]))
        stats = c.access(np.array([0]))
        assert stats.hits == 1

    def test_reset(self):
        c = self._cache()
        c.access(np.array([0]))
        c.reset()
        assert c.stats.accesses == 0
        assert not c.contains(0)

    def test_stats_merge(self):
        c = self._cache()
        c.access(np.array([0, 64]))
        c.access(np.array([0]))
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.hit_ratio == pytest.approx(1 / 3)


class TestFarReuseRule:
    # 16 KiB, 8 ways: the effective capacity is 16 KiB * (1 - 1/16)
    CFG = CacheConfig(capacity_bytes=16 * 1024, line_bytes=64, ways=8)

    def test_fitting_window_misses_once_per_line(self):
        assert far_reuse_miss_fraction(4096, 4, self.CFG) == 1 / 16
        assert far_reuse_miss_fraction(4096, 8, self.CFG) == 1 / 8

    def test_associativity_allowance(self):
        assert far_reuse_miss_fraction(15 * 1024, 4, self.CFG) == 1 / 16
        assert far_reuse_miss_fraction(15 * 1024 + 1, 4, self.CFG) == 1.0

    def test_no_far_reuse_always_misses(self):
        assert far_reuse_miss_fraction(None, 4, self.CFG) == 1.0

    def test_element_wider_than_line_misses_every_access(self):
        assert far_reuse_miss_fraction(4096, 128, self.CFG) == 1.0


@settings(max_examples=30, deadline=None)
@given(
    stride_lines=st.integers(1, 8),
    n=st.integers(10, 200),
)
def test_exact_hits_never_exceed_accesses(stride_lines, n):
    cfg = CacheConfig(capacity_bytes=4096, line_bytes=64, ways=4)
    cache = Cache(cfg)
    stream = np.arange(n) * (stride_lines * 16) * 4
    stats = cache.access(stream)
    assert stats.hits + stats.misses == stats.accesses == n
    assert 0.0 <= stats.hit_ratio <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(32, 256),
    seed=st.integers(0, 2**16),
)
def test_bigger_cache_never_hits_less(n, seed):
    """Property: for the same trace, doubling capacity cannot reduce hits
    (LRU with nesting set mapping at fixed line size and ways)."""
    rng = np.random.default_rng(seed)
    trace = rng.integers(0, 64, n) * 64
    small = Cache(CacheConfig(capacity_bytes=1024, line_bytes=64, ways=16))
    large = Cache(CacheConfig(capacity_bytes=2048, line_bytes=64, ways=32))
    hs = small.access(trace).hits
    hl = large.access(trace).hits
    assert hl >= hs
