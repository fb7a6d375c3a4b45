"""Recursive-descent parser for the OpenCL-C subset.

Produces :mod:`repro.oclc.cast` trees. Binary operators are parsed by
precedence climbing over one operator -> level table built from
:data:`repro.oclc.cast.BINARY_OPS`. The grammar is classic C with
OpenCL extensions limited to what kernels in the MP-STREAM design space
use: ``__kernel`` functions, address-space qualifiers on pointer
parameters, ``__attribute__`` lists, vector literals, swizzles and
``#pragma unroll``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional

from ..errors import InvalidValueError, ParseError
from ..ocl.types import parse_type_name
from . import cast
from .lexer import Token, tokenize

__all__ = ["parse", "Parser"]


def parse(source: str, defines: Mapping[str, str] | None = None) -> cast.TranslationUnit:
    """Parse OpenCL-C ``source`` (with optional ``-D`` defines) to an AST."""
    return Parser(tokenize(source, defines)).translation_unit()


@lru_cache(maxsize=4096)
def _is_type_name(text: str) -> bool:
    try:
        parse_type_name(text)
        return True
    except InvalidValueError:
        return False


#: binary operator -> precedence level (index into ``cast.BINARY_OPS``,
#: low to high)
_BINARY_LEVEL = {op: level for level, ops in enumerate(cast.BINARY_OPS) for op in ops}

_ADDR_SPACE_ALIASES = {
    "global": "__global",
    "local": "__local",
    "constant": "__constant",
    "private": "__private",
    "__global": "__global",
    "__local": "__local",
    "__constant": "__constant",
    "__private": "__private",
}


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def _tok(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, ahead: int = 1) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        tok = self._tok
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, text: str | None = None) -> Token:
        tok = self._tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or tok.kind!r}",
                line=tok.line,
                col=tok.col,
            )
        return self._advance()

    def _accept(self, kind: str, text: str | None = None) -> Optional[Token]:
        tok = self._tok
        if tok.kind == kind and (text is None or tok.text == text):
            return self._advance()
        return None

    # -- top level ----------------------------------------------------------

    def translation_unit(self) -> cast.TranslationUnit:
        functions: list[cast.FunctionDef] = []
        while self._tok.kind != "eof":
            if self._tok.kind == "pragma":
                # File-scope pragmas (e.g. extension enables) carry no
                # semantics we model; skip them.
                self._advance()
                continue
            functions.append(self._function())
        return cast.TranslationUnit(tuple(functions), line=1)

    def _function(self) -> cast.FunctionDef:
        line = self._tok.line
        is_kernel = False
        attributes: list[cast.Attribute] = []
        while True:
            if self._accept("keyword", "__kernel") or self._accept("keyword", "kernel"):
                is_kernel = True
                continue
            if self._tok.is_keyword("__attribute__"):
                attributes.extend(self._attribute_list())
                continue
            break
        ret_tok = self._tok
        if ret_tok.kind == "keyword" and ret_tok.text == "void":
            self._advance()
            return_type = "void"
        elif ret_tok.kind == "ident" and _is_type_name(ret_tok.text):
            self._advance()
            return_type = ret_tok.text
        else:
            raise ParseError(
                f"expected return type, found {ret_tok.text!r}",
                line=ret_tok.line,
                col=ret_tok.col,
            )
        name = self._expect("ident").text
        self._expect("punct", "(")
        params: list[cast.Param] = []
        if not self._tok.is_punct(")"):
            params.append(self._param())
            while self._accept("punct", ","):
                params.append(self._param())
        self._expect("punct", ")")
        # attributes may also follow the parameter list
        while self._tok.is_keyword("__attribute__"):
            attributes.extend(self._attribute_list())
        body = self._block()
        return cast.FunctionDef(
            name=name,
            return_type=return_type,
            params=tuple(params),
            body=body,
            is_kernel=is_kernel,
            attributes=tuple(attributes),
            line=line,
        )

    def _attribute_list(self) -> list[cast.Attribute]:
        line = self._tok.line
        self._expect("keyword", "__attribute__")
        self._expect("punct", "(")
        self._expect("punct", "(")
        attrs: list[cast.Attribute] = []
        while not self._tok.is_punct(")"):
            name = self._expect("ident").text
            args: list[int] = []
            if self._accept("punct", "("):
                while not self._tok.is_punct(")"):
                    tok = self._expect("int")
                    args.append(int(tok.value))  # type: ignore[arg-type]
                    if not self._tok.is_punct(")"):
                        self._expect("punct", ",")
                self._expect("punct", ")")
            attrs.append(cast.Attribute(name=name, args=tuple(args), line=line))
            if not self._tok.is_punct(")"):
                self._expect("punct", ",")
        self._expect("punct", ")")
        self._expect("punct", ")")
        return attrs

    def _param(self) -> cast.Param:
        line = self._tok.line
        address_space = "__private"
        qualifiers: list[str] = []
        while self._tok.kind == "keyword":
            text = self._tok.text
            if text in _ADDR_SPACE_ALIASES:
                address_space = _ADDR_SPACE_ALIASES[text]
                self._advance()
            elif text in ("const", "restrict", "volatile"):
                qualifiers.append(text)
                self._advance()
            else:
                break
        type_tok = self._tok
        if not (type_tok.kind == "ident" and _is_type_name(type_tok.text)):
            raise ParseError(
                f"expected parameter type, found {type_tok.text!r}",
                line=type_tok.line,
                col=type_tok.col,
            )
        self._advance()
        is_pointer = bool(self._accept("punct", "*"))
        while self._tok.kind == "keyword" and self._tok.text in (
            "const",
            "restrict",
            "volatile",
        ):
            qualifiers.append(self._advance().text)
        name = self._expect("ident").text
        if is_pointer and address_space == "__private":
            # OpenCL kernels take global pointers by default in our subset.
            address_space = "__global"
        return cast.Param(
            type_name=type_tok.text,
            name=name,
            address_space=address_space if is_pointer else "__private",
            is_pointer=is_pointer,
            qualifiers=tuple(qualifiers),
            line=line,
        )

    # -- statements ----------------------------------------------------------

    def _block(self) -> cast.Block:
        line = self._tok.line
        self._expect("punct", "{")
        body: list[cast.Stmt] = []
        while not self._tok.is_punct("}"):
            if self._tok.kind == "eof":
                raise ParseError("unterminated block", line=line)
            body.append(self._statement())
        self._expect("punct", "}")
        return cast.Block(tuple(body), line=line)

    def _statement(self) -> cast.Stmt:
        tok = self._tok
        if tok.kind == "pragma":
            return self._pragma_statement()
        if tok.is_punct("{"):
            return self._block()
        if tok.is_punct(";"):
            self._advance()
            return cast.Block((), line=tok.line)
        if tok.kind == "keyword":
            if tok.text == "if":
                return self._if()
            if tok.text == "for":
                return self._for(unroll=1)
            if tok.text == "while":
                return self._while()
            if tok.text == "return":
                self._advance()
                value = None if self._tok.is_punct(";") else self._expression()
                self._expect("punct", ";")
                return cast.Return(value, line=tok.line)
            if tok.text == "break":
                self._advance()
                self._expect("punct", ";")
                return cast.Break(line=tok.line)
            if tok.text == "continue":
                self._advance()
                self._expect("punct", ";")
                return cast.Continue(line=tok.line)
            if tok.text in ("const", "__local", "local", "__private", "private"):
                return self._declaration()
        if tok.kind == "ident" and _is_type_name(tok.text) and self._peek().kind == "ident":
            return self._declaration()
        expr = self._expression()
        self._expect("punct", ";")
        return cast.ExprStmt(expr, line=tok.line)

    def _pragma_statement(self) -> cast.Stmt:
        tok = self._advance()
        body = str(tok.value)
        parts = body.split()
        if parts and parts[0] == "unroll":
            factor = int(parts[1]) if len(parts) > 1 else 0  # 0 = full unroll
            if not self._tok.is_keyword("for"):
                raise ParseError(
                    "#pragma unroll must precede a for loop", line=tok.line
                )
            return self._for(unroll=factor)
        return cast.Pragma(body, line=tok.line)

    def _declaration(self) -> cast.DeclStmt:
        line = self._tok.line
        qualifiers: list[str] = []
        while self._tok.kind == "keyword" and self._tok.text in (
            "const",
            "__local",
            "local",
            "__private",
            "private",
        ):
            qualifiers.append(_ADDR_SPACE_ALIASES.get(self._tok.text, self._tok.text))
            self._advance()
        type_tok = self._tok
        if not (type_tok.kind == "ident" and _is_type_name(type_tok.text)):
            raise ParseError(
                f"expected type in declaration, found {type_tok.text!r}",
                line=type_tok.line,
                col=type_tok.col,
            )
        self._advance()
        name = self._expect("ident").text
        init: Optional[cast.Expr] = None
        if self._accept("punct", "="):
            init = self._assignment()
        self._expect("punct", ";")
        return cast.DeclStmt(
            type_name=type_tok.text,
            name=name,
            init=init,
            qualifiers=tuple(qualifiers),
            line=line,
        )

    def _if(self) -> cast.If:
        line = self._tok.line
        self._expect("keyword", "if")
        self._expect("punct", "(")
        cond = self._expression()
        self._expect("punct", ")")
        then = self._statement()
        other: Optional[cast.Stmt] = None
        if self._accept("keyword", "else"):
            other = self._statement()
        return cast.If(cond, then, other, line=line)

    def _for(self, unroll: int) -> cast.For:
        line = self._tok.line
        self._expect("keyword", "for")
        self._expect("punct", "(")
        init: Optional[cast.Stmt] = None
        if not self._tok.is_punct(";"):
            if (
                self._tok.kind == "ident"
                and _is_type_name(self._tok.text)
                and self._peek().kind == "ident"
            ):
                init = self._for_init_declaration()
            else:
                expr = self._expression()
                init = cast.ExprStmt(expr, line=expr.line)
                self._expect("punct", ";")
        else:
            self._expect("punct", ";")
        cond = None if self._tok.is_punct(";") else self._expression()
        self._expect("punct", ";")
        step = None if self._tok.is_punct(")") else self._expression()
        self._expect("punct", ")")
        body = self._statement()
        return cast.For(init, cond, step, body, unroll=unroll, line=line)

    def _for_init_declaration(self) -> cast.DeclStmt:
        line = self._tok.line
        type_name = self._advance().text
        name = self._expect("ident").text
        init: Optional[cast.Expr] = None
        if self._accept("punct", "="):
            init = self._assignment()
        self._expect("punct", ";")
        return cast.DeclStmt(type_name=type_name, name=name, init=init, line=line)

    def _while(self) -> cast.While:
        line = self._tok.line
        self._expect("keyword", "while")
        self._expect("punct", "(")
        cond = self._expression()
        self._expect("punct", ")")
        body = self._statement()
        return cast.While(cond, body, line=line)

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> cast.Expr:
        return self._assignment()

    def _assignment(self) -> cast.Expr:
        left = self._conditional()
        tok = self._tok
        if tok.kind == "punct" and tok.text in cast.ASSIGN_OPS:
            self._advance()
            value = self._assignment()
            if not isinstance(left, (cast.Ident, cast.Index, cast.Swizzle)):
                raise ParseError(
                    "invalid assignment target", line=tok.line, col=tok.col
                )
            return cast.Assign(tok.text, left, value, line=tok.line)
        return left

    def _conditional(self) -> cast.Expr:
        cond = self._binary(0)
        if self._tok.is_punct("?"):
            line = self._advance().line
            then = self._expression()
            self._expect("punct", ":")
            other = self._conditional()
            return cast.Conditional(cond, then, other, line=line)
        return cond

    def _binary(self, min_level: int) -> cast.Expr:
        """Precedence climbing over operators of level >= ``min_level``.

        Every level is left-associative, so the right operand only takes
        operators that bind tighter than the one just consumed.
        """
        left = self._unary()
        while True:
            tok = self._tok
            level = _BINARY_LEVEL.get(tok.text, -1) if tok.kind == "punct" else -1
            if level < min_level:
                return left
            self._advance()
            right = self._binary(level + 1)
            left = cast.Binary(tok.text, left, right, line=tok.line)

    def _unary(self) -> cast.Expr:
        tok = self._tok
        if tok.kind == "punct" and tok.text in cast.UNARY_OPS:
            self._advance()
            return cast.Unary(tok.text, self._unary(), line=tok.line)
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self._advance()
            return cast.Unary(tok.text, self._unary(), line=tok.line)
        # cast or vector literal: '(' typename ')' ...
        if (
            tok.is_punct("(")
            and self._peek().kind == "ident"
            and _is_type_name(self._peek().text)
            and self._peek(2).is_punct(")")
        ):
            self._advance()
            type_name = self._advance().text
            self._expect("punct", ")")
            if self._tok.is_punct("("):
                return self._vector_literal_or_paren_cast(type_name, tok.line)
            return cast.Cast(type_name, self._unary(), line=tok.line)
        return self._postfix()

    def _vector_literal_or_paren_cast(self, type_name: str, line: int) -> cast.Expr:
        self._expect("punct", "(")
        elements = [self._assignment()]
        while self._accept("punct", ","):
            elements.append(self._assignment())
        self._expect("punct", ")")
        if len(elements) == 1:
            # (double)(x) is just a cast; (int4)(x) is a splat literal.
            ty = parse_type_name(type_name)
            from ..ocl.types import VectorType

            if not isinstance(ty, VectorType):
                return cast.Cast(type_name, elements[0], line=line)
        return cast.VectorLiteral(type_name, tuple(elements), line=line)

    def _postfix(self) -> cast.Expr:
        expr = self._primary()
        while True:
            tok = self._tok
            if tok.is_punct("["):
                self._advance()
                index = self._expression()
                self._expect("punct", "]")
                expr = cast.Index(expr, index, line=tok.line)
            elif tok.is_punct("."):
                self._advance()
                comp = self._expect("ident").text
                expr = cast.Swizzle(expr, comp, line=tok.line)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self._advance()
                expr = cast.Unary("p" + tok.text, expr, line=tok.line)
            else:
                return expr

    def _primary(self) -> cast.Expr:
        tok = self._tok
        if tok.kind == "int":
            self._advance()
            suffix = "".join(c for c in tok.text if c in "uUlL").lower()
            return cast.IntLiteral(int(tok.value), suffix=suffix, line=tok.line)  # type: ignore[arg-type]
        if tok.kind == "float":
            self._advance()
            suffix = "f" if tok.text.lower().endswith("f") else ""
            return cast.FloatLiteral(float(tok.value), suffix=suffix, line=tok.line)  # type: ignore[arg-type]
        if tok.kind == "ident":
            self._advance()
            if self._tok.is_punct("(") and not _is_type_name(tok.text):
                self._advance()
                args: list[cast.Expr] = []
                if not self._tok.is_punct(")"):
                    args.append(self._assignment())
                    while self._accept("punct", ","):
                        args.append(self._assignment())
                self._expect("punct", ")")
                return cast.Call(tok.text, tuple(args), line=tok.line)
            return cast.Ident(tok.text, line=tok.line)
        if tok.is_punct("("):
            self._advance()
            expr = self._expression()
            self._expect("punct", ")")
            return expr
        raise ParseError(
            f"unexpected token {tok.text or tok.kind!r}", line=tok.line, col=tok.col
        )
