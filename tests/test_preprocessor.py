"""Tests for the C preprocessor."""

import pytest

from repro.errors import PreprocessorError
from repro.frontend.preprocessor import preprocess


def pp(src, **kw):
    """Preprocess and drop line markers for easy comparison."""
    out = preprocess(src, "t.c", **kw)
    return " ".join(
        line for line in out.split("\n")
        if line.strip() and not line.startswith("# ")
    ).split()


class TestObjectMacros:
    def test_simple_define(self):
        assert pp("#define N 4\nint a[N];") == ["int", "a", "[", "4", "]", ";"]

    def test_macro_in_macro(self):
        src = "#define A 1\n#define B A+1\nB"
        assert pp(src) == ["1", "+", "1"]

    def test_self_referential_macro_stops(self):
        src = "#define X X+1\nX"
        assert pp(src) == ["X", "+", "1"]

    def test_undef(self):
        src = "#define N 4\n#undef N\nN"
        assert pp(src) == ["N"]

    def test_redefine(self):
        src = "#define N 4\n#define N 8\nN"
        assert pp(src) == ["8"]


class TestFunctionMacros:
    def test_simple_expansion(self):
        src = "#define SQ(x) ((x)*(x))\nSQ(3)"
        assert pp(src) == list("((3)*(3))")

    def test_two_params(self):
        src = "#define ADD(a,b) (a+b)\nADD(1, 2)"
        assert pp(src) == list("(1+2)")

    def test_nested_call_argument(self):
        src = "#define SQ(x) ((x)*(x))\nSQ(SQ(2))"
        out = "".join(pp(src))
        assert out == "((((2)*(2)))*(((2)*(2))))"

    def test_name_without_parens_not_expanded(self):
        src = "#define F(x) x\nint F;"
        assert pp(src) == ["int", "F", ";"]

    def test_argument_with_parens(self):
        src = "#define ID(x) x\nID(f(1,2))"
        assert "".join(pp(src)) == "f(1,2)"


class TestConditionals:
    def test_ifdef_taken(self):
        src = "#define A\n#ifdef A\nyes\n#endif"
        assert pp(src) == ["yes"]

    def test_ifdef_not_taken(self):
        src = "#ifdef A\nyes\n#endif\nafter"
        assert pp(src) == ["after"]

    def test_ifndef(self):
        src = "#ifndef A\nyes\n#endif"
        assert pp(src) == ["yes"]

    def test_else_branch(self):
        src = "#ifdef A\nyes\n#else\nno\n#endif"
        assert pp(src) == ["no"]

    def test_elif_chain(self):
        src = "#define B 1\n#if defined(A)\na\n#elif defined(B)\nb\n#else\nc\n#endif"
        assert pp(src) == ["b"]

    def test_if_arithmetic(self):
        src = "#define N 5\n#if N > 3\nbig\n#endif"
        assert pp(src) == ["big"]

    def test_nested_conditionals(self):
        src = "#define A\n#ifdef A\n#ifdef B\nx\n#else\ny\n#endif\n#endif"
        assert pp(src) == ["y"]

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef A\nx\n", "t.c")

    def test_unbalanced_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif\n", "t.c")

    def test_undefined_identifier_in_if_is_zero(self):
        src = "#if FOO\nx\n#else\ny\n#endif"
        assert pp(src) == ["y"]

    def test_error_directive(self):
        with pytest.raises(PreprocessorError):
            preprocess("#error broken\n", "t.c")

    def test_error_directive_in_dead_branch_ignored(self):
        src = "#ifdef NOPE\n#error never\n#endif\nok"
        assert pp(src) == ["ok"]


class TestIncludes:
    def test_include_with_reader(self):
        files = {"lib.h": "#define N 7\n"}
        out = pp('#include "lib.h"\nN', file_reader=lambda p: files[p.lstrip("./")])
        assert out == ["7"]

    def test_missing_include_raises(self):
        def reader(path):
            raise FileNotFoundError(path)

        with pytest.raises(PreprocessorError):
            preprocess('#include "nope.h"\n', "t.c", file_reader=reader)

    def test_system_include_ignored(self):
        assert pp("#include <stdio.h>\nx") == ["x"]


class TestMisc:
    def test_line_continuation(self):
        src = "#define LONG 1 + \\\n 2\nLONG"
        assert pp(src) == ["1", "+", "2"]

    def test_comments_stripped_before_expansion(self):
        src = "#define N 4\nN /* N */ // N\n"
        assert pp(src) == ["4"]

    def test_predefined_macros(self):
        assert pp("N", predefined={"N": "3"}) == ["3"]

    def test_pragma_ignored(self):
        assert pp("#pragma once\nx") == ["x"]

    def test_line_markers_present(self):
        out = preprocess("x\n", "file.c")
        assert '# 1 "file.c"' in out


class TestAlarmLines:
    """Dropped lines keep their numbers, so alarms land on the line that
    holds the offending expression."""

    BODY = ("volatile int s;\n"
            "int main(void) {\n"
            "    int x; x = s;\n"
            "    x = 10 / x;\n"
            "    return 0;\n"
            "}\n")

    @staticmethod
    def _division_lines(src, filename="t.c"):
        from repro.analysis import analyze
        from repro.config import AnalyzerConfig

        result = analyze(src, filename, config=AnalyzerConfig(
            input_ranges={"s": (-1.0, 1.0)}))
        return [(a.loc.filename, a.loc.line) for a in result.alarms
                if a.kind == "division-by-zero"]

    def test_define(self):
        src = "#define K 0\n" + self.BODY
        assert self._division_lines(src) == [("t.c", 5)]

    def test_inactive_if_branch(self):
        src = ("#if 0\nint unused;\n#else\nint used;\n#endif\n"
               + self.BODY)
        assert self._division_lines(src) == [("t.c", 9)]

    def test_define_continued_with_backslash(self):
        src = "#define K \\\n    0\n" + self.BODY
        assert self._division_lines(src) == [("t.c", 6)]

    def test_system_include(self):
        src = "#include <stdio.h>\n" + self.BODY
        assert self._division_lines(src) == [("t.c", 5)]

    def test_quoted_include_with_guard(self, tmp_path):
        # The header's own lines, and the including file's lines after
        # the #include (re-synced by a line marker), both stay exact.
        (tmp_path / "lib.h").write_text(
            "#ifndef LIB_H\n"
            "#define LIB_H\n"
            "int div10(int x) {\n"
            "    return 10 / x;\n"
            "}\n"
            "#endif\n")
        main = tmp_path / "main.c"
        src = ('#include "lib.h"\n'
               "volatile int s;\n"
               "int main(void) {\n"
               "    int x; x = s;\n"
               "    x = div10(x);\n"
               "    x = 100 / s;\n"
               "    return 0;\n"
               "}\n")
        lines = self._division_lines(src, str(main))
        assert sorted(lines) == sorted([(str(tmp_path / "lib.h"), 4),
                                        (str(main), 6)])
