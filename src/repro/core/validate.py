"""STREAM-style solution validation.

stream.c checks that the arrays, after all timed iterations, match the
analytically expected values to within an epsilon. Our kernels are
idempotent across repetitions (each reads inputs that no repetition
mutates), so the expected state is a single
:func:`~repro.core.kernels.reference` application; integer kernels must
match exactly, floating-point kernels to a relative epsilon.

The check never copies the arrays: every array the kernel does not
write, and the untouched tail of the one it does, must still equal
``initial`` and are compared in place. Only the written array's touched
range is materialised. ``tests/test_validate_oracle.py`` holds this to
the ``reference()`` comparison, exception text included.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .kernels import KERNELS, SCALAR_Q
from .params import DataType, KernelName

__all__ = ["validate_solution", "EPSILON"]

#: relative tolerance per data type
EPSILON = {
    DataType.INT: 0.0,
    DataType.FLOAT: 1e-6,
    DataType.DOUBLE: 1e-13,
}


def _expected_head(
    kernel: KernelName, initial: dict[str, np.ndarray], n: int
) -> np.ndarray:
    """The written array's expected ``[:n]``, as ``reference()`` computes it."""
    a, b, c = initial["a"], initial["b"], initial["c"]
    q = a.dtype.type(SCALAR_Q)
    if kernel is KernelName.COPY:
        value = a[:n]
    elif kernel is KernelName.SCALE:
        value = q * c[:n]
    elif kernel is KernelName.ADD:
        value = a[:n] + b[:n]
    elif kernel is KernelName.TRIAD:
        value = b[:n] + q * c[:n]
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown kernel {kernel}")
    written = initial[KERNELS[kernel].writes]
    head = np.empty_like(written[:n])
    head[...] = value
    return head


def _wrong(got: np.ndarray, want: np.ndarray, eps: float) -> np.ndarray:
    """Indices where ``got`` misses ``want``."""
    if eps == 0.0:
        return np.flatnonzero(got != want)
    denom = np.maximum(np.abs(want), 1.0)
    return np.flatnonzero(np.abs(got - want) > eps * denom)


def validate_solution(
    kernel: KernelName,
    dtype: DataType,
    initial: dict[str, np.ndarray],
    observed: dict[str, np.ndarray],
    *,
    touched_words: int | None = None,
) -> None:
    """Raise :class:`~repro.errors.ValidationError` on any mismatch."""
    eps = EPSILON[dtype]
    written = KERNELS[kernel].writes
    for name in ("a", "b", "c"):
        before = initial[name]
        got = observed[name]
        if got.shape != before.shape:
            raise ValidationError(
                f"array {name!r}: shape {got.shape} != expected {before.shape}"
            )
        # (expected segment, its first word) pairs covering the array
        if name == written:
            n = len(initial["a"]) if touched_words is None else touched_words
            head = _expected_head(kernel, initial, n)
            segments = ((head, 0), (before[n:], len(head)))
        else:
            segments = ((before, 0),)
        first = None
        count = 0
        for want, start in segments:
            if np.array_equal(got[start : start + len(want)], want):
                continue
            bad = _wrong(got[start : start + len(want)], want, eps)
            if bad.size and first is None:
                first = (start + int(bad[0]), want[int(bad[0])])
            count += bad.size
        if first is not None:
            i, expected = first
            raise ValidationError(
                f"kernel {kernel}: array {name!r} diverges at word {i}: "
                f"got {got[i]!r}, expected {expected!r} "
                f"({count} of {before.size} words wrong)"
            )
