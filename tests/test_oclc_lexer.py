"""Tokenizer and mini-preprocessor."""

from __future__ import annotations

import pytest

from repro.errors import LexError
from repro.oclc.lexer import tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        toks = tokenize("__kernel void f(int x)")
        assert toks[0].is_keyword("__kernel")
        assert toks[1].is_keyword("void")
        assert toks[2].kind == "ident" and toks[2].text == "f"

    def test_int_literals(self):
        toks = tokenize("42 0x1F 7u 9l")
        assert [t.value for t in toks[:-1]] == [42, 31, 7, 9]

    def test_float_literals(self):
        toks = tokenize("1.5 2e3 3.0f 1E-2")
        assert toks[0].kind == "float" and toks[0].value == 1.5
        assert toks[1].value == 2000.0
        assert toks[2].value == 3.0
        assert toks[3].value == pytest.approx(0.01)

    def test_leading_dot_float(self):
        toks = tokenize("x = .5;")
        assert toks[2].kind == "float" and toks[2].value == 0.5

    def test_operators_longest_match(self):
        assert texts(tokenize("a <<= b >> c != d")) == ["a", "<<=", "b", ">>", "c", "!=", "d"]
        assert texts(tokenize("i++ + ++j")) == ["i", "++", "+", "++", "j"]

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  bb")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_invalid_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `1`;")

    def test_bad_suffix(self):
        with pytest.raises(LexError):
            tokenize("1.5x")


class TestComments:
    def test_line_comment(self):
        assert texts(tokenize("a // comment\nb")) == ["a", "b"]

    def test_block_comment(self):
        assert texts(tokenize("a /* multi\nline */ b")) == ["a", "b"]

    def test_block_comment_preserves_lines(self):
        toks = tokenize("/* one\ntwo */\nx")
        assert toks[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPreprocessor:
    def test_define_substitution(self):
        toks = tokenize("#define N 128\nint x = N;")
        assert any(t.kind == "int" and t.value == 128 for t in toks)

    def test_define_from_build_options(self):
        toks = tokenize("int x = ARRAY_SIZE;", defines={"ARRAY_SIZE": "4096"})
        assert any(t.kind == "int" and t.value == 4096 for t in toks)

    def test_chained_defines(self):
        toks = tokenize("#define A B\n#define B 7\nint x = A;")
        assert any(t.kind == "int" and t.value == 7 for t in toks)

    def test_undef(self):
        toks = tokenize("#define N 1\n#undef N\nint N;")
        assert any(t.kind == "ident" and t.text == "N" for t in toks)

    def test_ifdef_taken_and_skipped(self):
        src = "#ifdef FOO\nint yes;\n#else\nint no;\n#endif\n"
        toks = tokenize(src, defines={"FOO": "1"})
        assert "yes" in texts(toks) and "no" not in texts(toks)
        toks = tokenize(src)
        assert "no" in texts(toks) and "yes" not in texts(toks)

    def test_ifndef(self):
        src = "#ifndef FOO\nint absent;\n#endif\n"
        assert "absent" in texts(tokenize(src))
        assert "absent" not in texts(tokenize(src, defines={"FOO": "1"}))

    def test_unbalanced_endif(self):
        with pytest.raises(LexError):
            tokenize("#endif\n")
        with pytest.raises(LexError):
            tokenize("#else\n")
        with pytest.raises(LexError):
            tokenize("#ifdef X\nint a;\n")

    def test_function_macro_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define SQ(x) ((x)*(x))\n")

    def test_macro_recursion_detected(self):
        with pytest.raises(LexError):
            tokenize("int x = A;", defines={"A": "B", "B": "A"})

    def test_pragma_token(self):
        toks = tokenize("#pragma unroll 4\nfor")
        assert toks[0].kind == "pragma"
        assert toks[0].value == "unroll 4"

    def test_pragma_with_macro_expansion(self):
        toks = tokenize("#pragma unroll U\nfor", defines={"U": "8"})
        assert toks[0].value == "unroll 8"

    def test_include_ignored(self):
        assert texts(tokenize('#include "x.h"\nint a;')) == ["int", "a", ";"]

    def test_unknown_directive(self):
        with pytest.raises(LexError):
            tokenize("#banana\n")

    def test_eof_token_always_present(self):
        toks = tokenize("")
        assert toks[-1].kind == "eof"
        assert len(toks) == 1


class TestConditionalNames:
    """``#ifdef``/``#ifndef``/``#undef`` take the name after any whitespace."""

    @pytest.mark.parametrize("sep", [" ", "\t", " \t ", "\t\t"])
    def test_ifdef_name_after_any_whitespace(self, sep):
        src = f"#ifdef{sep}FOO\nint x;\n#endif\n"
        assert texts(tokenize(src, defines={"FOO": "1"})) == ["int", "x", ";"]
        assert texts(tokenize(src)) == []

    @pytest.mark.parametrize("sep", [" ", "\t"])
    def test_ifndef_name_after_any_whitespace(self, sep):
        src = f"#ifndef{sep}FOO\nint x;\n#endif\n"
        assert texts(tokenize(src)) == ["int", "x", ";"]
        assert texts(tokenize(src, defines={"FOO": "1"})) == []

    def test_undef_name_after_tab(self):
        toks = tokenize("#define N 1\n#undef\tN\nint N;")
        assert texts(toks) == ["int", "N", ";"]

    @pytest.mark.parametrize("directive", ["#ifdef", "#ifndef", "#ifdef \t", "#undef"])
    def test_missing_name_is_a_lex_error(self, directive):
        with pytest.raises(LexError, match="without a macro name") as info:
            tokenize(f"int a;\n{directive}\nint b;\n#endif\n")
        assert info.value.line == 2
