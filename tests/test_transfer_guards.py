"""Unit tests for transfer-function and guard edge cases."""

from repro import AnalyzerConfig, analyze
from repro.iterator.alarms import AlarmKind


def kinds(r):
    return sorted({a.kind for a in r.alarms})


def run(src, **ranges):
    return analyze(src, config=AnalyzerConfig(input_ranges=ranges))


class TestIntegerArithmetic:
    def test_unsigned_wraparound_flagged(self):
        src = """
        volatile int v; unsigned int x;
        int main(void) { x = (unsigned int)v - 1u; return 0; }
        """
        r = run(src, v=(0, 10))
        # v may be 0: 0u - 1u wraps; "integers wrap-around due to overflow"
        # is reported per the end-user semantics (Sect. 5.3).
        assert AlarmKind.INT_OVERFLOW in kinds(r)

    def test_modulo_result_range(self):
        src = """
        volatile int v; int x;
        int main(void) {
            x = v % 7;
            __ASTREE_assert(x >= -6);
            __ASTREE_assert(x <= 6);
            return 0;
        }
        """
        assert run(src, v=(-1000, 1000)).alarm_count == 0

    def test_division_truncates_toward_zero(self):
        src = """
        int x;
        int main(void) {
            x = -7 / 2;
            __ASTREE_assert(x == -3);
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_shift_left_constant(self):
        src = """
        int x;
        int main(void) {
            x = 3 << 4;
            __ASTREE_assert(x == 48);
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_shift_right_range(self):
        src = """
        volatile int v; int x;
        int main(void) {
            x = v >> 4;
            __ASTREE_assert(x <= 62);
            __ASTREE_assert(x >= 0);
            return 0;
        }
        """
        assert run(src, v=(0, 1000)).alarm_count == 0

    def test_bitwise_and_nonneg_bound(self):
        src = """
        volatile int v; int x;
        int main(void) {
            x = v & 15;
            __ASTREE_assert(x <= 15);
            __ASTREE_assert(x >= 0);
            return 0;
        }
        """
        assert run(src, v=(0, 10000)).alarm_count == 0

    def test_bitwise_constants_exact(self):
        src = """
        int x;
        int main(void) {
            x = (12 & 10) + (12 | 10) + (12 ^ 10);
            __ASTREE_assert(x == 8 + 14 + 6);
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_bnot(self):
        src = """
        int x;
        int main(void) {
            int y = 5;
            x = ~y;
            __ASTREE_assert(x == -6);
            return 0;
        }
        """
        assert run(src).alarm_count == 0


class TestFloatArithmetic:
    def test_float_division_by_constant_safe(self):
        src = """
        volatile float v; float x;
        int main(void) { x = v / 2.0f; return 0; }
        """
        assert run(src, v=(-100.0, 100.0)).alarm_count == 0

    def test_double_intermediate_precision(self):
        src = """
        volatile float v; double d; float x;
        int main(void) {
            d = (double)v * 2.0;
            x = (float)d;
            __ASTREE_assert(x <= 20.1f);
            return 0;
        }
        """
        assert run(src, v=(-10.0, 10.0)).alarm_count == 0

    def test_fabs_bounds(self):
        src = """
        volatile float v; float x;
        int main(void) {
            x = fabsf(v);
            __ASTREE_assert(x >= 0.0f);
            __ASTREE_assert(x <= 10.1f);
            return 0;
        }
        """
        assert run(src, v=(-10.0, 10.0)).alarm_count == 0

    def test_sqrt_of_guarded_value(self):
        src = """
        volatile float v; float x;
        int main(void) {
            float y = v;
            if (y >= 0.0f) { x = sqrtf(y); }
            return 0;
        }
        """
        assert run(src, v=(-10.0, 10.0)).alarm_count == 0

    def test_float_to_int_cast_range_checked(self):
        src = """
        volatile float v; int x;
        int main(void) { x = (int)v; return 0; }
        """
        r = run(src, v=(0.0, 1e15))
        assert AlarmKind.CAST_RANGE in kinds(r)

    def test_float_compare_guard(self):
        src = """
        volatile float v; float x;
        int main(void) {
            x = v;
            if (x > 1.0f) {
                __ASTREE_assert(x > 0.5f);
            }
            return 0;
        }
        """
        assert run(src, v=(-10.0, 10.0)).alarm_count == 0


class TestGuards:
    def test_equality_guard_refines_to_constant(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            if (x == 5) { y = 100 / (x - 4); }
            return 0;
        }
        """
        assert run(src, v=(0, 10)).alarm_count == 0

    def test_conjunction_refines_both(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            if (x > 2 && x < 7) {
                __ASTREE_assert(x >= 3);
                __ASTREE_assert(x <= 6);
            }
            return 0;
        }
        """
        assert run(src, v=(0, 100)).alarm_count == 0

    def test_disjunction_joins(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            if (x < 2 || x > 7) { y = 1; }
            else { __ASTREE_assert(x >= 2); __ASTREE_assert(x <= 7); }
            return 0;
        }
        """
        assert run(src, v=(0, 100)).alarm_count == 0

    def test_negated_compound_condition(self):
        src = """
        volatile int v; int x;
        int main(void) {
            x = v;
            if (!(x > 2 && x < 7)) { } else {
                __ASTREE_assert(x >= 3);
            }
            return 0;
        }
        """
        assert run(src, v=(0, 100)).alarm_count == 0

    def test_linear_guard_two_variables(self):
        """x + y <= 10 refines x given y's range (linear-form backward)."""
        src = """
        volatile int a; volatile int b; int x; int y;
        int main(void) {
            x = a; y = b;
            if (x + y <= 10) {
                __ASTREE_assert(x <= 10);
            }
            return 0;
        }
        """
        assert run(src, a=(0, 100), b=(0, 100)).alarm_count == 0

    def test_guard_on_unreachable_branch_is_bottom(self):
        src = """
        int x; int y;
        int main(void) {
            x = 5;
            if (x > 10) { y = 1 / 0; }
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_known_fact_contradiction_gives_bottom(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            __ASTREE_known_fact(x > 5);
            __ASTREE_known_fact(x < 3);
            y = 1 / 0;  /* unreachable under the (contradictory) facts */
            return 0;
        }
        """
        assert run(src, v=(0, 10)).alarm_count == 0


class TestMemoryModel:
    def test_shrunk_array_weak_update(self):
        """Writes into a summarized array join with old contents."""
        src = """
        float big[10000];
        volatile int vi; volatile float vf;
        float x;
        int main(void) {
            int i = vi;
            if (i >= 0) { if (i < 10000) {
                big[i] = vf;
                x = big[0];
                __ASTREE_assert(x >= -1.0f);
                __ASTREE_assert(x <= 1.0f);
            } }
            return 0;
        }
        """
        r = run(src, vi=(0, 9999), vf=(-1.0, 1.0))
        assert r.alarm_count == 0

    def test_expanded_array_strong_update(self):
        src = """
        float small[4];
        int main(void) {
            small[2] = 7.0f;
            __ASTREE_assert(small[2] == 7.0f);
            __ASTREE_assert(small[0] == 0.0f);
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_unknown_index_write_weakens_all(self):
        src = """
        float a[4];
        volatile int vi;
        int main(void) {
            int i = vi;
            if (i >= 0) { if (i < 4) { a[i] = 5.0f; } }
            /* a[0] may be 0 (untouched) or 5 */
            __ASTREE_assert(a[0] <= 5.0f);
            __ASTREE_assert(a[0] >= 0.0f);
            return 0;
        }
        """
        assert run(src, vi=(0, 3)).alarm_count == 0

    def test_volatile_reads_always_full_range(self):
        """Two reads of a volatile input may differ (no caching)."""
        src = """
        volatile int v; int a; int b;
        int main(void) {
            a = v;
            b = v;
            /* a == b must NOT be assumed */
            if (a != b) { a = 0; }
            return 0;
        }
        """
        assert run(src, v=(0, 10)).alarm_count == 0

    def test_struct_field_sensitivity(self):
        src = """
        struct s { int a; int b; };
        struct s g;
        int main(void) {
            g.a = 1;
            g.b = 2;
            __ASTREE_assert(g.a == 1);
            __ASTREE_assert(g.b == 2);
            return 0;
        }
        """
        assert run(src).alarm_count == 0

    def test_uninitialized_local_is_type_range(self):
        src = """
        int out;
        int main(void) {
            int x;
            out = x;  /* may be anything in int range: no crash, no alarm */
            return 0;
        }
        """
        assert run(src).alarm_count == 0


class TestSwitchEdgeCases:
    def test_switch_without_default_falls_through(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            y = 5;
            switch (x) { case 1: y = 1; break; }
            __ASTREE_assert(y >= 1);
            __ASTREE_assert(y <= 5);
            return 0;
        }
        """
        assert run(src, v=(0, 10)).alarm_count == 0

    def test_switch_stacked_labels(self):
        src = """
        volatile int v; int x; int y;
        int main(void) {
            x = v;
            switch (x) {
                case 1: case 2: y = 10; break;
                default: y = 0; break;
            }
            __ASTREE_assert(y <= 10);
            return 0;
        }
        """
        assert run(src, v=(0, 5)).alarm_count == 0

    def test_switch_all_cases_bottom_when_scrutinee_constant(self):
        src = """
        int y;
        int main(void) {
            int x = 3;
            switch (x) {
                case 1: y = 1 / 0; break;
                case 3: y = 7; break;
                default: y = 1 / 0; break;
            }
            __ASTREE_assert(y == 7);
            return 0;
        }
        """
        assert run(src).alarm_count == 0
