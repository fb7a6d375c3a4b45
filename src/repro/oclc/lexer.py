"""Tokenizer for the OpenCL-C subset, with a tiny preprocessor.

The preprocessor supports what MP-STREAM's build scripts need:

* object-like ``#define NAME value`` (and ``-DNAME=value`` build
  options, applied by :func:`tokenize` via the ``defines`` mapping);
* ``#pragma unroll [N]``, surfaced as a ``pragma`` token so the parser
  can attach unroll factors to the following loop;
* ``//`` and ``/* */`` comments.

Conditional compilation (``#ifdef``) is supported in the single-level
form the generated kernels use.

Each line is scanned with one compiled master regex: a whitespace run,
an identifier or the longest punctuator is one ``match``; numbers are
finished by :func:`_lex_number`.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NamedTuple

from ..errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS", "PUNCTUATION"]

KEYWORDS = frozenset(
    {
        "if",
        "else",
        "for",
        "while",
        "return",
        "break",
        "continue",
        "const",
        "restrict",
        "volatile",
        "void",
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "__attribute__",
    }
)

# Longest-match-first punctuation/operator table.
PUNCTUATION = (
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)


_DIGITS = frozenset("0123456789")

#: One token per ``match``: a whitespace run, an identifier or keyword,
#: the start of a number (finished by :func:`_lex_number`), or the
#: longest punctuator. ASCII-only classes, as in C: unicode "letters"
#: and "digits" (e.g. superscripts) are invalid characters.
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\f\v]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>[0-9]|\.[0-9])"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION) + ")"
)
_COMMENT_START_RE = re.compile(r"//|/\*")
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of ``ident``, ``keyword``, ``int``, ``float``,
    ``punct``, ``pragma`` or ``eof``. ``text`` is the raw spelling and
    ``value`` the decoded payload (int/float value, pragma body...).
    """

    kind: str
    text: str
    line: int
    col: int
    value: object = None

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


def _strip_comments(source: str) -> str:
    """Replace comments with spaces, preserving line structure.

    A line comment is dropped up to (not including) its newline; a block
    comment becomes spaces with its newlines kept.
    """
    out: list[str] = []
    pos = 0
    while True:
        m = _COMMENT_START_RE.search(source, pos)
        if m is None:
            break
        start = m.start()
        out.append(source[pos:start])
        if m.group() == "//":
            end = source.find("\n", start)
            pos = len(source) if end < 0 else end
            continue
        end = source.find("*/", start + 2)
        if end < 0:
            line = source.count("\n", 0, start) + 1
            raise LexError("unterminated block comment", line=line)
        out.append(_NOT_NEWLINE_RE.sub(" ", source[start : end + 2]))
        pos = end + 2
    out.append(source[pos:])
    return "".join(out)


def _preprocess(source: str, defines: dict[str, str]) -> list[tuple[int, str]]:
    """Handle directives; return (line_number, text) pairs of real code.

    ``defines`` is mutated with ``#define`` entries found in the source.
    ``#pragma`` lines are kept (as directive lines) for the tokenizer.
    """
    lines: list[tuple[int, str]] = []
    skipping = False
    depth_of_skip = 0
    depth = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            directive = stripped[1:].strip()
            if directive.startswith("ifdef") or directive.startswith("ifndef"):
                depth += 1
                want_defined = directive.startswith("ifdef")
                name = _directive_name(directive, lineno)
                if not skipping and (name in defines) != want_defined:
                    skipping = True
                    depth_of_skip = depth
            elif directive.startswith("else"):
                if depth == 0:
                    raise LexError("#else without #if", line=lineno)
                if skipping and depth_of_skip == depth:
                    skipping = False
                elif not skipping and depth > 0:
                    skipping = True
                    depth_of_skip = depth
            elif directive.startswith("endif"):
                if depth == 0:
                    raise LexError("#endif without #if", line=lineno)
                if skipping and depth_of_skip == depth:
                    skipping = False
                depth -= 1
            elif skipping:
                continue
            elif directive.startswith("define"):
                body = directive[len("define") :].strip()
                if not body:
                    raise LexError("empty #define", line=lineno)
                parts = body.split(None, 1)
                name = parts[0]
                if "(" in name:
                    raise LexError(
                        "function-like macros are not supported", line=lineno
                    )
                defines[name] = parts[1] if len(parts) > 1 else "1"
            elif directive.startswith("undef"):
                defines.pop(_directive_name(directive, lineno), None)
            elif directive.startswith("pragma"):
                lines.append((lineno, "#" + directive))
            elif directive.startswith("include"):
                # Headers carry nothing we model; ignore.
                continue
            else:
                raise LexError(f"unsupported directive #{directive}", line=lineno)
            continue
        if not skipping:
            lines.append((lineno, raw))
    if depth != 0:
        raise LexError("unterminated #if block", line=len(source.splitlines()))
    return lines


def _directive_name(directive: str, lineno: int) -> str:
    """The macro name an ``#ifdef``/``#ifndef``/``#undef`` tests.

    The name follows the directive after any whitespace (space or tab).
    """
    parts = directive.split(None, 1)
    if len(parts) < 2:
        raise LexError(f"#{parts[0]} without a macro name", line=lineno)
    return parts[1].strip()


def _expander(defines: Mapping[str, str]) -> Callable[[str], str]:
    """Token-ish textual macro expansion, iterated to a fixed point.

    The pattern is compiled once for the whole macro table.
    """
    if not defines:
        return lambda text: text
    pattern = re.compile(r"\b(" + "|".join(re.escape(k) for k in defines) + r")\b")

    def substitute(m: re.Match) -> str:
        return str(defines[m.group(1)])

    def expand(text: str) -> str:
        for _ in range(16):
            new = pattern.sub(substitute, text)
            if new == text:
                return new
            text = new
        raise LexError(f"macro expansion did not converge in {text!r}")

    return expand


def tokenize(source: str, defines: Mapping[str, str] | None = None) -> list[Token]:
    """Tokenize OpenCL-C ``source`` into a list ending with an ``eof`` token.

    ``defines`` seeds the preprocessor macro table (the ``-D`` build
    options); ``#define`` lines in the source add to it.
    """
    macro_table: dict[str, str] = dict(defines or {})
    stripped = _strip_comments(source)
    lines = _preprocess(stripped, macro_table)
    expand = _expander(macro_table)

    tokens: list[Token] = []
    for lineno, text in lines:
        if text.lstrip().startswith("#pragma"):
            body = text.lstrip()[len("#pragma") :].strip()
            body = expand(body)
            tokens.append(Token("pragma", text.strip(), lineno, 1, value=body))
            continue
        tokens.extend(_tokenize_line(expand(text), lineno))
    tokens.append(Token("eof", "", lines[-1][0] if lines else 1, 1))
    return tokens


def _tokenize_line(text: str, lineno: int) -> Iterator[Token]:
    match = _TOKEN_RE.match
    i, n = 0, len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            raise LexError(f"invalid character {text[i]!r}", line=lineno, col=i + 1)
        kind = m.lastgroup
        if kind == "ws":
            i = m.end()
        elif kind == "num":
            tok, i = _lex_number(text, i, lineno, i + 1)
            yield tok
        elif kind == "ident":
            word = m.group()
            yield Token("keyword" if word in KEYWORDS else "ident", word, lineno, i + 1)
            i = m.end()
        else:
            yield Token("punct", m.group(), lineno, i + 1)
            i = m.end()


def _lex_number(text: str, i: int, lineno: int, col: int) -> tuple[Token, int]:
    n = len(text)
    start = i
    is_float = False
    if text.startswith(("0x", "0X"), i):
        i += 2
        while i < n and (text[i] in "0123456789abcdefABCDEF"):
            i += 1
    else:
        while i < n and text[i] in _DIGITS:
            i += 1
        if i < n and text[i] == ".":
            is_float = True
            i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
        if i < n and text[i] in "eE":
            peek = i + 1
            if peek < n and text[peek] in "+-":
                peek += 1
            if peek < n and text[peek] in _DIGITS:
                is_float = True
                i = peek
                while i < n and text[i] in _DIGITS:
                    i += 1
    suffix_start = i
    while i < n and text[i] in "uUlLfF":
        i += 1
    suffix = text[suffix_start:i].lower()
    literal = text[start:suffix_start]
    if i < n and (text[i].isalnum() or text[i] == "_"):
        raise LexError(
            f"invalid character {text[i]!r} in numeric literal", line=lineno, col=col
        )
    if is_float or suffix == "f":
        if suffix not in ("", "f"):
            raise LexError(
                f"bad float suffix {suffix!r} on {literal}", line=lineno, col=col
            )
        return Token("float", text[start:i], lineno, col, value=float(literal)), i
    if suffix not in ("", "u", "l", "ul", "lu", "ll", "ull"):
        raise LexError(
            f"bad integer suffix {suffix!r} on {literal}", line=lineno, col=col
        )
    return Token("int", text[start:i], lineno, col, value=int(literal, 0)), i
