"""Tests for IR pretty-printing, IR traversal and the error hierarchy."""

import pytest

from repro import errors as E
from repro.frontend import compile_source
from repro.frontend import ir as I
from repro.frontend.pretty import format_function, format_program, format_stmts


SRC = """
volatile int v;
int x;
float f;
int helper(int a) { return a + 1; }
int main(void) {
    int i;
    for (i = 0; i < 4; i++) {
        if (v) { x = helper(x); } else { x = 0; }
    }
    do { f = f * 0.5f; } while (f > 1.0f);
    switch (x) { case 1: x = 2; break; default: x = 0; break; }
    while (1) {
        __ASTREE_known_fact(x >= 0);
        __ASTREE_assert(x < 10);
        __ASTREE_wait_for_clock();
        if (v) { break; }
    }
    return 0;
}
"""


class TestPretty:
    def test_format_program_contains_globals(self):
        prog = compile_source(SRC, "t.c")
        text = format_program(prog)
        assert "volatile int v" in text
        assert "int x" in text

    def test_format_contains_all_constructs(self):
        prog = compile_source(SRC, "t.c")
        text = format_program(prog)
        assert "while (" in text
        assert "do-while (" in text
        assert "switch (" in text
        assert "__ASTREE_wait_for_clock();" in text
        assert "__ASTREE_known_fact" in text
        assert "__ASTREE_assert" in text
        assert "break;" in text
        assert "/* step: */" in text  # the for-loop step section

    def test_format_function_signature(self):
        prog = compile_source(SRC, "t.c")
        text = format_function(prog.functions["helper"])
        assert text.startswith("int helper(int a)")

    def test_format_stmts_indentation(self):
        prog = compile_source(SRC, "t.c")
        lines = format_stmts(prog.functions["main"].body)
        assert any(line.startswith("  ") for line in lines)


class TestIterStmts:
    def test_traversal_covers_nested(self):
        prog = compile_source(SRC, "t.c")
        kinds = {type(s).__name__ for s in I.iter_stmts(prog.functions["main"].body)}
        assert {"SWhile", "SIf", "SSwitch", "SAssign", "SWait",
                "SAssume", "SCheck", "SBreak", "SReturn"} <= kinds

    def test_traversal_includes_for_step(self):
        prog = compile_source(SRC, "t.c")
        loops = [s for s in I.iter_stmts(prog.functions["main"].body)
                 if isinstance(s, I.SWhile) and s.step]
        assert loops, "the for loop must carry step statements"
        step_sids = {s.sid for loop in loops for s in I.iter_stmts(loop.step)}
        all_sids = {s.sid for s in I.iter_stmts(prog.functions["main"].body)}
        assert step_sids <= all_sids

    def test_stmt_ids_unique(self):
        prog = compile_source(SRC, "t.c")
        sids = [s.sid for fn in prog.functions.values() if fn.body
                for s in I.iter_stmts(fn.body)]
        assert len(sids) == len(set(sids))

    def test_stmt_ids_number_functions_in_name_order(self):
        # ``main`` is defined first, but ``alpha`` sorts first.
        prog = compile_source("""
int alpha(int a);
int x;
int main(void) { x = alpha(x); return 0; }
int alpha(int a) { if (a > 0) { a = a - 1; } return a; }
""", "order.c")
        sids = [s.sid for name in sorted(prog.functions)
                for s in I.iter_stmts(prog.functions[name].body)]
        assert sids == list(range(len(sids)))
        assert prog.functions["alpha"].body[0].sid == 0

    def test_stmt_ids_equal_across_compilations(self):
        first = compile_source(SRC, "t.c")
        compile_source("int main(void) { return 1; }", "other.c")
        again = compile_source(SRC, "t.c")

        def sids(prog):
            return [s.sid for fn in prog.functions.values() if fn.body
                    for s in I.iter_stmts(fn.body)]

        assert sids(first) == sids(again)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (E.PreprocessorError, E.LexerError, E.ParseError,
                    E.TypeError_, E.UnsupportedConstructError, E.LinkError,
                    E.AnalysisError):
            assert issubclass(cls, E.ReproError)

    def test_source_errors_carry_location(self):
        err = E.ParseError("bad token", "foo.c", 3, 7)
        assert err.filename == "foo.c"
        assert err.line == 3 and err.col == 7
        assert "foo.c:3:7" in str(err)

    def test_frontend_errors_catchable_as_repro_error(self):
        with pytest.raises(E.ReproError):
            compile_source("int x = ;", "t.c")

    def test_var_str_and_lvalue_str(self):
        prog = compile_source(SRC, "t.c")
        v = prog.global_by_name("x")
        assert str(v) == "x"
