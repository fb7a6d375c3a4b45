"""Coalescing: warp grouping and FPGA burst inference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.memsim.coalesce import coalesce_fixed_groups, coalesce_sequential


class TestWarpCoalescing:
    def test_unit_stride_int32_minimal_transactions(self):
        addrs = np.arange(128) * 4
        res = coalesce_fixed_groups(addrs, 4, group_size=32, segment_bytes=128)
        # 32 lanes x 4B = 128B = exactly one segment per warp
        assert res.transactions == 4
        assert res.efficiency == pytest.approx(1.0)

    def test_column_walk_one_transaction_per_lane(self):
        addrs = np.arange(32) * 1024 * 4
        res = coalesce_fixed_groups(addrs, 4, group_size=32, segment_bytes=128)
        assert res.transactions == 32
        assert res.efficiency == pytest.approx(4 / 128)

    def test_stride_two_doubles_transactions(self):
        addrs = np.arange(64) * 2 * 4
        res = coalesce_fixed_groups(addrs, 4, group_size=32, segment_bytes=128)
        # each warp covers 32*8B = 256B -> 2 segments
        assert res.transactions == 4
        assert res.efficiency == pytest.approx(0.5)

    def test_partial_trailing_group(self):
        addrs = np.arange(40) * 4
        res = coalesce_fixed_groups(addrs, 4, group_size=32, segment_bytes=128)
        assert res.accesses == 40
        assert res.transactions == 2  # one full warp + one partial

    def test_empty(self):
        res = coalesce_fixed_groups(np.array([], dtype=np.int64), 4)
        assert res.transactions == 0 and res.efficiency == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(InvalidValueError):
            coalesce_fixed_groups(np.zeros(1, np.int64), 0)


class TestBurstInference:
    def test_contiguous_merges_to_max_burst(self):
        addrs = np.arange(512) * 4
        res = coalesce_sequential(addrs, 4, max_burst_bytes=512)
        # 2048 sequential bytes / 512B bursts = 4 transactions
        assert res.transactions == 4
        assert res.efficiency == pytest.approx(1.0)

    def test_strided_breaks_every_burst(self):
        addrs = np.arange(100) * 256 * 4
        res = coalesce_sequential(addrs, 4, max_burst_bytes=512)
        assert res.transactions == 100

    def test_mixed_runs(self):
        a = np.arange(16) * 4
        b = np.arange(1000, 1000 + 16) * 4
        res = coalesce_sequential(np.concatenate([a, b]), 4, max_burst_bytes=4096)
        assert res.transactions == 2

    def test_burst_cap_respected(self):
        addrs = np.arange(64) * 4  # 256 bytes
        res = coalesce_sequential(addrs, 4, max_burst_bytes=64)
        assert res.transactions == 4

    def test_invalid_burst_smaller_than_element(self):
        with pytest.raises(InvalidValueError):
            coalesce_sequential(np.zeros(1, np.int64), 8, max_burst_bytes=4)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 300),
    stride=st.integers(1, 64),
    element=st.sampled_from([4, 8, 16]),
)
def test_warp_coalescing_invariants(n, stride, element):
    """Properties: every access is covered exactly once; transaction count
    is bounded by accesses and by the minimal segment count."""
    addrs = np.arange(n) * stride * element
    res = coalesce_fixed_groups(addrs, element, group_size=32, segment_bytes=128)
    assert res.accesses == n
    assert 1 <= res.transactions <= n
    assert res.bytes_useful == n * element
    assert res.bytes_fetched == res.transactions * 128
    assert 0.0 < res.efficiency <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    runs=st.lists(st.integers(1, 50), min_size=1, max_size=8),
    element=st.sampled_from([4, 8]),
    max_burst=st.sampled_from([64, 256, 1024]),
)
def test_burst_inference_invariants(runs, element, max_burst):
    """Properties: bursts never span run boundaries, never exceed the cap,
    and cover all bytes exactly once."""
    pieces = []
    base = 0
    for run in runs:
        pieces.append(np.arange(base, base + run) * element)
        base += run + 100  # gap breaks the run
    addrs = np.concatenate(pieces)
    res = coalesce_sequential(addrs, element, max_burst_bytes=max_burst)
    assert res.bytes_useful == res.bytes_fetched == addrs.size * element
    expected_min = len(runs)  # at least one burst per run
    cap = max(1, max_burst // element)
    expected_exact = sum(-(-r // cap) for r in runs)
    assert res.transactions == expected_exact >= expected_min
