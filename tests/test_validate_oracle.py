"""``validate_solution`` against the ``reference()`` comparison it replaced.

Validation compares in place: the unwritten arrays and the untouched
tail against ``initial``, the written array's touched range against a
freshly computed head. The oracle below is the previous implementation,
which compared every array against a full ``reference()`` copy. Both
must accept and reject the same observations with the same message:
first wrong index, got, expected and the wrong-word count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.kernels import KERNELS, initial_arrays, reference
from repro.core.params import DataType, KernelName
from repro.core.validate import EPSILON, validate_solution
from repro.errors import ValidationError

WORDS = 96
TOUCHED = 80  # the 2-D variants leave a ragged tail untouched


def _oracle(kernel, dtype, initial, observed, *, touched_words):
    """The copy-based check, verbatim."""
    expected = reference(kernel, initial, touched_words=touched_words)
    eps = EPSILON[dtype]
    for name in ("a", "b", "c"):
        want = expected[name]
        got = observed[name]
        if got.shape != want.shape:
            raise ValidationError(
                f"array {name!r}: shape {got.shape} != expected {want.shape}"
            )
        if eps == 0.0:
            bad = np.nonzero(got != want)[0]
        else:
            denom = np.maximum(np.abs(want), 1.0)
            bad = np.nonzero(np.abs(got - want) > eps * denom)[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"kernel {kernel}: array {name!r} diverges at word {i}: "
                f"got {got[i]!r}, expected {want[i]!r} "
                f"({bad.size} of {want.size} words wrong)"
            )


def _verdict(check, kernel, dtype, initial, observed, touched) -> str:
    try:
        check(kernel, dtype, initial, observed, touched_words=touched)
    except ValidationError as exc:
        return str(exc)
    return "ok"


def _correct(kernel, dtype, touched):
    initial = initial_arrays(WORDS, dtype)
    return initial, reference(kernel, initial, touched_words=touched)


@pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
@pytest.mark.parametrize("kernel", list(KernelName), ids=lambda k: k.value)
@pytest.mark.parametrize("touched", [None, TOUCHED])
def test_random_single_word_corruptions(kernel, dtype, touched):
    seed = [list(KernelName).index(kernel), list(DataType).index(dtype), touched or 0]
    rng = np.random.default_rng(seed)
    initial, good = _correct(kernel, dtype, touched)
    assert _verdict(validate_solution, kernel, dtype, initial, good, touched) == "ok"
    written = KERNELS[kernel].writes
    n = WORDS if touched is None else touched
    regions = {
        "head": (written, 0, n),
        "tail": (written, n, WORDS),
        "unwritten": (next(a for a in "abc" if a != written), 0, WORDS),
    }
    for region, (name, lo, hi) in regions.items():
        if lo == hi:
            continue
        for _ in range(5):
            observed = {k: v.copy() for k, v in good.items()}
            i = int(rng.integers(lo, hi))
            observed[name][i] += observed[name].dtype.type(rng.integers(1, 7))
            want = _verdict(_oracle, kernel, dtype, initial, observed, touched)
            assert want != "ok", region
            got = _verdict(validate_solution, kernel, dtype, initial, observed, touched)
            assert got == want, region


@pytest.mark.parametrize("kernel", list(KernelName), ids=lambda k: k.value)
def test_several_wrong_words_report_the_first_and_the_count(kernel):
    dtype = DataType.INT
    initial, good = _correct(kernel, dtype, TOUCHED)
    written = KERNELS[kernel].writes
    observed = {k: v.copy() for k, v in good.items()}
    for i in (TOUCHED + 3, 5, TOUCHED + 1, 40):  # head and tail at once
        observed[written][i] -= 1
    want = _verdict(_oracle, kernel, dtype, initial, observed, TOUCHED)
    assert "diverges at word 5" in want and "(4 of 96 words wrong)" in want
    assert _verdict(validate_solution, kernel, dtype, initial, observed, TOUCHED) == want


@pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.DOUBLE], ids=lambda d: d.value)
@pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
def test_float_epsilon_edges(dtype, factor):
    """Relative errors just inside and just outside the tolerance."""
    kernel = KernelName.TRIAD
    initial, good = _correct(kernel, dtype, TOUCHED)
    eps = EPSILON[dtype]
    for name, i in (("a", 7), ("a", TOUCHED + 2), ("b", 11)):
        observed = {k: v.copy() for k, v in good.items()}
        value = observed[name][i]
        observed[name][i] = value + value.dtype.type(factor * eps * max(abs(value), 1.0))
        want = _verdict(_oracle, kernel, dtype, initial, observed, TOUCHED)
        got = _verdict(validate_solution, kernel, dtype, initial, observed, TOUCHED)
        assert got == want, (name, i)


def test_shape_mismatch_message():
    initial, good = _correct(KernelName.COPY, DataType.INT, None)
    observed = dict(good, b=good["b"][:-1])
    want = _verdict(_oracle, KernelName.COPY, DataType.INT, initial, observed, None)
    assert want.startswith("array 'b': shape")
    assert _verdict(
        validate_solution, KernelName.COPY, DataType.INT, initial, observed, None
    ) == want


def test_validation_copies_no_array():
    """Only the written array's touched range is materialised."""
    words = 1 << 18
    initial = initial_arrays(words, DataType.DOUBLE)
    observed = reference(KernelName.TRIAD, initial)
    tracemalloc.start()
    try:
        validate_solution(KernelName.TRIAD, DataType.DOUBLE, initial, observed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the head (one array) plus its comparison temporaries, never three copies
    assert peak < 2.5 * words * 8
