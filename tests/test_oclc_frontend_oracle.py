"""Differential oracle for the front end's scanner and expression parser.

The lexer scans each line with one compiled master regex and strips
comments with ``re``/``str.find``; the parser climbs operator
precedence from one operator->level table. The character-at-a-time
scanner and the one-method-per-level recursive parser they replaced are
kept here verbatim as oracles. Every input must give the same token
tuples, the same :class:`LexError` (message, line, column), equal ASTs
and equal ``to_source`` output under both.

Inputs: every generated source of the 540-combination paper grid at
1 KiB, 64 KiB and 1 MiB, the front-end fuzz corpus
(``tests/test_oclc_fuzz.py``) and Hypothesis token soups with invalid
characters, unterminated comments and malformed numbers.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, KernelName, LoopManagement, TuningParameters
from repro.core.generator import generate
from repro.errors import LexError, SweepError
from repro.oclc import cast, lexer
from repro.oclc.lexer import KEYWORDS, PUNCTUATION, Token, _lex_number, tokenize
from repro.oclc.parser import Parser
from repro.units import KIB, MIB
from tests.test_oclc_fuzz import _TOKENS, float_exprs, int_exprs

# ---------------------------------------------------------------------------
# oracles: the replaced scanner and parser, verbatim
# ---------------------------------------------------------------------------

_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _DIGITS


def _strip_comments(source: str) -> str:
    """Replace comments with spaces, preserving line structure."""
    out: list[str] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                line = source.count("\n", 0, i) + 1
                raise LexError("unterminated block comment", line=line)
            out.append(
                "".join("\n" if c == "\n" else " " for c in source[i : end + 2])
            )
            i = end + 2
            continue
        else:
            out.append(ch)
            i += 1
            continue
    return "".join(out)


def _tokenize_line(text: str, lineno: int) -> Iterator[Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\f\v":
            i += 1
            continue
        col = i + 1
        # ASCII-only identifier/number rules, as in C: unicode "letters"
        # and "digits" (e.g. superscripts) are invalid characters
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            yield Token(kind, word, lineno, col)
            i = j
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            tok, i = _lex_number(text, i, lineno, col)
            yield tok
            continue
        for punct in PUNCTUATION:
            if text.startswith(punct, i):
                yield Token("punct", punct, lineno, col)
                i += len(punct)
                break
        else:
            raise LexError(f"invalid character {ch!r}", line=lineno, col=col)


class OracleParser(Parser):
    """The parser with the ten-level recursive ``_binary``."""

    def _binary(self, level: int) -> cast.Expr:
        if level >= len(cast.BINARY_OPS):
            return self._unary()
        ops = cast.BINARY_OPS[level]
        left = self._binary(level + 1)
        while self._tok.kind == "punct" and self._tok.text in ops:
            tok = self._advance()
            right = self._binary(level + 1)
            left = cast.Binary(tok.text, left, right, line=tok.line)
        return left


@contextmanager
def _oracle_scanner():
    """Run :func:`tokenize` on the oracle comment stripper and scanner."""
    saved = lexer._strip_comments, lexer._tokenize_line
    lexer._strip_comments, lexer._tokenize_line = _strip_comments, _tokenize_line
    try:
        yield
    finally:
        lexer._strip_comments, lexer._tokenize_line = saved


# ---------------------------------------------------------------------------
# the differential check
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """``("ok", value)`` or the raised error as comparable data."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - any divergence is a finding
        line, col = getattr(exc, "line", None), getattr(exc, "col", None)
        return "error", type(exc).__name__, str(exc), line, col


def assert_same_front_end(source: str, defines: dict | None = None) -> None:
    got_tokens = _outcome(tokenize, source, defines)
    with _oracle_scanner():
        want_tokens = _outcome(tokenize, source, defines)
    assert got_tokens == want_tokens, source
    if got_tokens[0] != "ok":
        return
    tokens = got_tokens[1]
    assert all(type(t) is Token for t in tokens)
    got = _outcome(lambda: Parser(tokens).translation_unit())
    want = _outcome(lambda: OracleParser(tokens).translation_unit())
    assert got == want, source
    if got[0] == "ok":
        assert cast.to_source(got[1]) == cast.to_source(want[1]), source


# -- the paper grid -----------------------------------------------------------


def _paper_grid_builds(kernel: KernelName) -> list[tuple[str, dict]]:
    """Distinct ``(source, defines)`` builds of one kernel's grid slice."""
    builds: dict[tuple, tuple[str, dict]] = {}
    for loop, width, unroll, dtype, size in itertools.product(
        LoopManagement, (1, 2, 4, 8, 16), (1, 2, 4), DataType, (KIB, 64 * KIB, MIB)
    ):
        try:
            params = TuningParameters(
                kernel=kernel,
                loop=loop,
                vector_width=width,
                unroll=unroll,
                dtype=dtype,
                array_bytes=size,
            )
        except SweepError:
            continue
        gen = generate(params)
        defines = {k: str(v) for k, v in gen.defines.items()}
        builds[(gen.source, tuple(sorted(defines.items())))] = (gen.source, defines)
    return list(builds.values())


@pytest.mark.parametrize("kernel", list(KernelName), ids=lambda k: k.value)
def test_paper_grid_sources(kernel):
    builds = _paper_grid_builds(kernel)
    assert builds
    for source, defines in builds:
        assert_same_front_end(source, defines)
        # the generated sources also carry comments: strip them alone too
        assert lexer._strip_comments(source) == _strip_comments(source)


# -- the fuzz corpus ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=40))
def test_fuzz_token_soup(tokens):
    assert_same_front_end(" ".join(tokens))


@settings(max_examples=40, deadline=None)
@given(int_exprs(), float_exprs())
def test_fuzz_expressions(int_expr, float_expr):
    assert_same_front_end(
        "__kernel void k(__global int *out, __global double *d, const int x,"
        " const int y, const double z)"
        f"{{ out[0] = {int_expr[0]}; d[0] = {float_expr[0]} * z; }}"
    )


@st.composite
def binary_exprs(draw, depth=0):
    """Operator chains over every precedence level, with unary, ternary
    and parenthesized operands."""
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["x", "y", "1", "2.5", "a[0]", "-x", "!y", "(int)x"]))
    operands = draw(st.lists(binary_exprs(depth=depth + 1), min_size=2, max_size=5))
    ops = draw(
        st.lists(
            st.sampled_from([op for level in cast.BINARY_OPS for op in level]),
            min_size=len(operands) - 1,
            max_size=len(operands) - 1,
        )
    )
    text = operands[0] + "".join(f" {op} {rhs}" for op, rhs in zip(ops, operands[1:]))
    wrap = draw(st.sampled_from(["{}", "({})", "x ? {} : y", "{} ? x : y"]))
    return wrap.format(text)


@settings(max_examples=150, deadline=None)
@given(binary_exprs())
def test_operator_chains(expr):
    assert_same_front_end(
        "__kernel void k(__global int *a, const int x, const int y)"
        f"{{ a[1] = {expr}; }}"
    )


# -- adversarial soups ------------------------------------------------------------

_HOSTILE = [
    *_TOKENS,
    *PUNCTUATION,
    "`", "@", "$", "\\", "'", '"', "é", "²", "\x00",
    "/*", "*/", "//", "/", "*", "/**/", "/* x \n y */",
    "0x", "0x1F", "0X1fu", "1.5x", "1e", "1e+", "1e+5", "2E-3f", ".5", "5.",
    "..", "...", "3ul", "7lu", "9ll", "2.0fl", "0x1G", "1.5f", "4uu", "12_",
    "if", "while", "break", "continue", "__attribute__", "float4", "int16",
    "x", "_y1", "a.xyzw", "?", ":",
]
_SEPARATORS = ["", " ", "  ", "\t", "\n", "\r", "\f", "\v", "\r\n"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_HOSTILE), st.sampled_from(_SEPARATORS)),
        min_size=1,
        max_size=30,
    )
)
def test_hostile_token_soup(pieces):
    assert_same_front_end("".join(word + sep for word, sep in pieces))


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab1._/*+-<>=!&|^%~()[]{};,?:#e\"' \t\néx0", max_size=50))
def test_arbitrary_text(text):
    assert_same_front_end(text)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_HOSTILE), min_size=1, max_size=12))
def test_macro_expansion_into_soup(pieces):
    """``-D`` values are scanned after expansion, on the macro's line."""
    assert_same_front_end("int v = M + M;\nM", {"M": " ".join(pieces)})


@pytest.mark.parametrize(
    "source",
    [
        "a /* never closed",
        "x\ny /* one\ntwo",
        "// only a comment",
        "a // c /* not a block\nb",
        "a /* // not a line */ b",
        "/*/ x */ y",
        "a //\n/**/b/**/c",
        "int a = `1`;",
        "\tint ²;",
        "1.5x",
        "0x1G",
        "__kernel void k(__global int *a) { a[0] = 1 + 2 * 3 - 4 / 5 % 6 << 7"
        " >> 8 < 9 <= 10 > 11 >= 12 == 13 != 14 & 15 ^ 16 | 17 && 18 || 19; }",
        "__kernel void k(__global int *a) { a[0] = 1 || 2 && 3 | 4 ^ 5 & 6"
        " != 7 == 8 >= 9 > 10 <= 11 < 12 >> 13 << 14 % 15 / 16 * 17 - 18 + 19; }",
        "__kernel void k(__global int *a) { a[0] = (a[1] || a[2]) && !a[3]; }",
        "__kernel void k(__global int *a) { a[0] = a[1] ? a[2] - 1 : a[3] + 2; }",
    ],
)
def test_pinned_cases(source):
    assert_same_front_end(source)
