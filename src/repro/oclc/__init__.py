"""OpenCL-C subset front-end: lexer, parser, semantics, execution, analysis.

Typical pipeline::

    from repro.oclc import compile_source
    checked = compile_source(src, defines={"ARRAY_SIZE": "1024"})
    ir = analyze(checked)            # device models consume this
    fast = vectorize_kernel(checked) # whole-NDRange array execution
    fast.run((1024,), {...})

:func:`compile_source_cached` is the memoized entry point sweep
campaigns use: it keys on the source text plus the *effective* defines
(the subset that can actually influence the compile), so thousands of
points that differ only in, say, an unreferenced ``N`` share one
front-end pass.
"""

from __future__ import annotations

import re
import threading
from typing import Mapping

from .analysis import KernelIR, LoopMode, MemAccess, analyze, index_stream
from .cast import TranslationUnit, to_source
from .compile import CompiledKernel, compile_kernel
from .fold import fold_expr, fold_stmt, fold_unit
from .interp import BufferArg, KernelInterpreter, run_kernel
from .lexer import tokenize
from .parser import parse
from .semantic import CheckedProgram, check
from .specialize import SpecializedKernel, specialize
from .vectorize import VectorKernel, vectorize_kernel

__all__ = [
    "tokenize",
    "parse",
    "check",
    "compile_source",
    "compile_source_cached",
    "effective_defines",
    "frontend_key",
    "frontend_cache_stats",
    "clear_frontend_cache",
    "analyze",
    "specialize",
    "compile_kernel",
    "CompiledKernel",
    "vectorize_kernel",
    "VectorKernel",
    "run_kernel",
    "BufferArg",
    "KernelInterpreter",
    "SpecializedKernel",
    "CheckedProgram",
    "KernelIR",
    "LoopMode",
    "MemAccess",
    "TranslationUnit",
    "to_source",
    "fold_unit",
    "fold_expr",
    "fold_stmt",
    "index_stream",
]


def compile_source(
    source: str, defines: Mapping[str, str] | None = None
) -> CheckedProgram:
    """Parse and type-check OpenCL-C ``source`` with ``-D`` style defines."""
    return check(parse(source, defines))


# ---------------------------------------------------------------------------
# memoized front-end
# ---------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(r"^[ \t]*#", re.MULTILINE)
_WORD_RE = re.compile(r"[A-Za-z_]\w*")

_FRONTEND_CACHE_MAX = 1024
_frontend_cache: dict[tuple, CheckedProgram] = {}
_frontend_lock = threading.Lock()
_frontend_stats = {"hits": 0, "misses": 0}


def effective_defines(
    source: str, defines: Mapping[str, str | int] | None
) -> tuple[tuple[str, str], ...]:
    """The subset of ``defines`` that can influence compiling ``source``.

    The preprocessor substitutes macros on word boundaries, so a ``-D``
    entry whose name never appears as a word in the source cannot change
    the compile — two sweep points that differ only in such a define
    share one front-end artifact. Sources containing their own
    preprocessor directives (``#define``/``#ifdef``...) conservatively
    keep every define, since conditional blocks may test macro names
    that are not otherwise mentioned.
    """
    if not defines:
        return ()
    items = sorted((k, str(v)) for k, v in defines.items())
    if _DIRECTIVE_RE.search(source):
        return tuple(items)
    words = set(_WORD_RE.findall(source))
    return tuple((k, v) for k, v in items if k in words)


def frontend_key(
    source: str, defines: Mapping[str, str | int] | None
) -> tuple:
    """Content-addressed identity of one front-end compile."""
    return (source, effective_defines(source, defines))


def compile_source_cached(
    source: str, defines: Mapping[str, str] | None = None, *, key: tuple | None = None
) -> CheckedProgram:
    """Memoized :func:`compile_source`, keyed by :func:`frontend_key`.

    ``key``, when given, is ``frontend_key(source, defines)`` already
    computed by the caller.

    Thread-safe; the process-wide memo is bounded (oldest entries are
    evicted first). ``CheckedProgram`` artifacts are immutable after
    checking, so sharing one instance across callers — and across
    threads — is safe.
    """
    if key is None:
        key = frontend_key(source, defines)
    with _frontend_lock:
        cached = _frontend_cache.get(key)
        if cached is not None:
            _frontend_stats["hits"] += 1
            return cached
        _frontend_stats["misses"] += 1
    checked = compile_source(source, defines)
    with _frontend_lock:
        _frontend_cache[key] = checked
        while len(_frontend_cache) > _FRONTEND_CACHE_MAX:
            _frontend_cache.pop(next(iter(_frontend_cache)))
    return checked


def frontend_cache_stats() -> dict[str, int]:
    """Process-wide memo counters: hits, misses, current size."""
    with _frontend_lock:
        return {**_frontend_stats, "size": len(_frontend_cache)}


def clear_frontend_cache() -> None:
    """Empty the memo and zero its counters (test isolation helper)."""
    with _frontend_lock:
        _frontend_cache.clear()
        _frontend_stats["hits"] = 0
        _frontend_stats["misses"] = 0
