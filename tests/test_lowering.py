"""Tests for type checking and lowering to IR."""

import pytest

from repro.errors import TypeError_, UnsupportedConstructError
from repro.frontend import compile_source
from repro.frontend import ir as I
from repro.frontend.c_types import (
    DOUBLE, FLOAT, INT, UINT,
    usual_arithmetic_conversion, integer_promotion, SHORT, UCHAR, ULONG, LONG,
)


def lower_main(body, globals_="", entry="main"):
    src = f"{globals_}\nvoid main(void) {{ {body} }}"
    return compile_source(src, "t.c", entry=entry)


def main_stmts(body, globals_=""):
    return lower_main(body, globals_).functions["main"].body


class TestConversions:
    def test_promotion_of_small_ints(self):
        assert integer_promotion(SHORT) is INT
        assert integer_promotion(UCHAR) is INT

    def test_usual_conversion_float_wins(self):
        assert usual_arithmetic_conversion(INT, FLOAT) is FLOAT
        assert usual_arithmetic_conversion(DOUBLE, FLOAT) is DOUBLE

    def test_usual_conversion_unsigned_wins_same_rank(self):
        assert usual_arithmetic_conversion(INT, UINT) is UINT
        assert usual_arithmetic_conversion(LONG, ULONG) is ULONG


class TestGlobals:
    def test_zero_initialization(self):
        prog = lower_main("x = x;", "int x;")
        var = prog.global_by_name("x")
        assert prog.initializers[var.uid] == 0

    def test_explicit_initializer(self):
        prog = lower_main("x = x;", "int x = 42;")
        assert prog.initializers[prog.global_by_name("x").uid] == 42

    def test_float_global_init_rounded_to_binary32(self):
        prog = lower_main("x = x;", "float x = 0.1;")
        import numpy as np
        assert prog.initializers[prog.global_by_name("x").uid] == float(np.float32(0.1))

    def test_array_initializer_padded_with_zeros(self):
        prog = lower_main("a[0] = a[1];", "int a[4] = {1, 2};")
        init = prog.initializers[prog.global_by_name("a").uid]
        assert init == [1, 2, 0, 0]

    def test_struct_initializer(self):
        prog = lower_main("s.a = s.b;", "struct t {int a; int b;}; struct t s = {1, 2};")
        init = prog.initializers[prog.global_by_name("s").uid]
        assert init == {"a": 1, "b": 2}

    def test_unused_global_deleted(self):
        prog = lower_main("x = 1;", "int x; int unused;")
        assert prog.global_by_name("unused") is None

    def test_volatile_global_registered(self):
        prog = lower_main("x = v;", "volatile int v; int x;")
        assert [v.name for v in prog.volatile_inputs] == ["v"]

    def test_static_local_becomes_global(self):
        prog = lower_main("static int c = 5; c = c + 1;")
        names = [v.name for v in prog.globals]
        assert "main::c" in names

    def test_conflicting_global_types_rejected(self):
        with pytest.raises(Exception):
            lower_main("x = 1;", "int x; float x;")


class TestConstantFolding:
    def test_arith_folding(self):
        stmts = main_stmts("x = 2 + 3 * 4;", "int x;")
        assert isinstance(stmts[0].value, I.Const)
        assert stmts[0].value.value == 14

    def test_const_scalar_folded(self):
        stmts = main_stmts("x = K + 1;", "const int K = 10; int x;")
        assert stmts[0].value.value == 11

    def test_const_array_at_const_index_folded(self):
        stmts = main_stmts("x = t[1];", "const int t[3] = {7, 8, 9}; int x;")
        assert stmts[0].value.value == 8

    def test_const_array_optimized_away(self):
        prog = lower_main("x = t[1];", "const int t[3] = {7, 8, 9}; int x;")
        assert prog.global_by_name("t") is None

    def test_const_array_at_dynamic_index_not_folded(self):
        prog = lower_main("x = t[x];", "const int t[3] = {7, 8, 9}; int x;")
        assert prog.global_by_name("t") is not None

    def test_enum_constants_fold(self):
        stmts = main_stmts("x = B;", "enum e {A, B = 5}; int x;")
        assert stmts[0].value.value == 5

    def test_sizeof_folds(self):
        stmts = main_stmts("x = sizeof(int);", "int x;")
        assert stmts[0].value.value == 4

    def test_division_by_zero_not_folded(self):
        stmts = main_stmts("x = 1 / 0;", "int x;")
        assert isinstance(stmts[0].value, I.BinOp)

    def test_int_wraparound_in_folding(self):
        stmts = main_stmts("x = 2147483647 + 1;", "int x;")
        # Folding wraps modularly (the alarm is the analyzer's business,
        # but a syntactic overflow in source is folded per target semantics).
        assert isinstance(stmts[0].value, I.Const)


class TestLoweringShapes:
    def test_for_desugars_to_while(self):
        stmts = main_stmts("int i; for (i = 0; i < 3; i++) { }")
        kinds = [type(s).__name__ for s in stmts]
        assert "SWhile" in kinds

    def test_do_while_flag(self):
        stmts = main_stmts("do { } while (0);")
        loop = [s for s in stmts if isinstance(s, I.SWhile)][0]
        assert loop.run_body_first

    def test_call_in_expression_hoisted(self):
        src = """
        int g(void) { return 1; }
        int x;
        void main(void) { x = g() + 2; }
        """
        prog = compile_source(src, "t.c")
        stmts = prog.functions["main"].body
        assert isinstance(stmts[0], I.SCall)
        assert stmts[0].result is not None

    def test_wait_intrinsic(self):
        stmts = main_stmts("__ASTREE_wait_for_clock();")
        assert isinstance(stmts[0], I.SWait)

    def test_assume_and_assert_intrinsics(self):
        stmts = main_stmts(
            "__ASTREE_known_fact(x >= 0); __ASTREE_assert(x < 10);", "int x;")
        assert isinstance(stmts[0], I.SAssume)
        assert isinstance(stmts[1], I.SCheck)

    def test_math_builtin(self):
        stmts = main_stmts("x = fabsf(x);", "float x;")
        assert isinstance(stmts[0].value, I.UnaryOp)
        assert stmts[0].value.op == "fabs"

    def test_post_increment_in_expression(self):
        stmts = main_stmts("int i = 0; x = i++;", "int x;")
        # i=0 ; temp = i ; i = i+1 ; x = temp
        assign_x = stmts[-1]
        assert isinstance(assign_x.value, I.Load)

    def test_ternary_lowered_to_if(self):
        stmts = main_stmts("x = x > 0 ? 1 : 2;", "int x;")
        assert any(isinstance(s, I.SIf) for s in stmts)

    def test_implicit_cast_inserted(self):
        stmts = main_stmts("f = i;", "float f; int i;")
        assert isinstance(stmts[0].value, I.Cast)

    def test_comparison_operand_type(self):
        stmts = main_stmts("b = f < i;", "float f; int i; int b;")
        cmp = stmts[0].value
        assert isinstance(cmp, I.BinOp) and cmp.op == "lt"
        assert cmp.ctype is INT and cmp.operand_type is FLOAT

    def test_byref_argument(self):
        src = """
        void inc(int *p) { *p = *p + 1; }
        int x;
        void main(void) { inc(&x); }
        """
        prog = compile_source(src, "t.c")
        call = prog.functions["main"].body[0]
        assert isinstance(call, I.SCall)
        assert isinstance(call.args[0], I.LVar)

    def test_pointer_forwarding(self):
        src = """
        void inc(int *p) { *p = *p + 1; }
        void twice(int *q) { inc(q); inc(q); }
        int x;
        void main(void) { twice(&x); }
        """
        prog = compile_source(src, "t.c")
        call = prog.functions["twice"].body[0]
        assert isinstance(call.args[0], I.LDeref)

    def test_switch_lowered(self):
        stmts = main_stmts(
            "switch (x) { case 1: y = 1; break; case 2: y = 2; break; default: y = 0; }",
            "int x; int y;")
        sw = stmts[0]
        assert isinstance(sw, I.SSwitch)
        assert sw.has_default and len(sw.cases) == 3


class TestTypeErrors:
    def test_undeclared_identifier(self):
        with pytest.raises(TypeError_):
            lower_main("x = 1;")

    def test_undeclared_function(self):
        with pytest.raises(TypeError_):
            lower_main("nofunc();")

    def test_wrong_arity(self):
        with pytest.raises(TypeError_):
            compile_source("void g(int a) {} void main(void) { g(); }", "t.c")

    def test_assign_to_const(self):
        with pytest.raises(TypeError_):
            lower_main("K = 2;", "const int K = 1;")

    def test_index_non_array(self):
        with pytest.raises(TypeError_):
            lower_main("x[0] = 1;", "int x;")

    def test_member_of_non_struct(self):
        with pytest.raises(TypeError_):
            lower_main("x.f = 1;", "int x;")

    def test_unknown_field(self):
        with pytest.raises(TypeError_):
            lower_main("s.zz = 1;", "struct t {int a;}; struct t s;")

    def test_return_value_from_void(self):
        with pytest.raises(TypeError_):
            compile_source("int f(void) { return; } void main(void) { }", "t.c")

    def test_missing_entry_rejected(self):
        with pytest.raises(TypeError_):
            compile_source("void notmain(void) {}", "t.c", entry="main")

    def test_global_pointer_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            lower_main("", "int *p;")

    def test_mod_on_floats_rejected(self):
        with pytest.raises(TypeError_):
            lower_main("f = f % 2.0;", "float f;")


class TestLinker:
    def test_two_files_link(self):
        from repro.frontend import link_sources

        f1 = "extern int shared; void main(void) { shared = helper(); } int helper(void);"
        f2 = "int shared = 1; int helper(void) { return shared + 1; }"
        prog = link_sources([("a.c", f1), ("b.c", f2)])
        assert "helper" in prog.functions
        assert prog.global_by_name("shared") is not None

    def test_undefined_function_across_units(self):
        from repro.errors import LinkError
        from repro.frontend import link_sources

        f1 = "int helper(void); void main(void) { helper(); }"
        with pytest.raises((LinkError, TypeError_)):
            link_sources([("a.c", f1)])
