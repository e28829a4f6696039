"""End-to-end analyzer integration tests (the Sect. 3.1 refinement story).

Each test pins one analyzer capability on the code shape that motivated it
in the paper, usually contrasting the refined analyzer with the baseline
interval analyzer of [5].
"""

from repro.analysis import analyze
from repro.config import AnalyzerConfig, baseline_config
from repro.iterator.alarms import AlarmKind


def kinds(result):
    return sorted({a.kind for a in result.alarms})


class TestStraightLine:
    def test_clean_program_has_no_alarms(self):
        src = """
        int x;
        int main(void) { x = 1 + 2; return 0; }
        """
        assert analyze(src).alarm_count == 0

    def test_definite_division_by_zero(self):
        src = """
        int x;
        int main(void) { x = 100 / (x - x); return 0; }
        """
        r = analyze(src)
        assert AlarmKind.DIV_BY_ZERO in kinds(r)

    def test_modulo_by_possibly_zero(self):
        src = """
        volatile int v; int x;
        int main(void) { x = 7 % v; return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 3)}))
        assert AlarmKind.MOD_BY_ZERO in kinds(r)

    def test_guarded_division_is_clean(self):
        src = """
        volatile int v; int x;
        int main(void) {
            int d = v;
            if (d > 0) { x = 100 / d; }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 10)}))
        assert r.alarm_count == 0

    def test_int_overflow_detected(self):
        src = """
        volatile int v; int x;
        int main(void) { x = v * v; return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(
            input_ranges={"v": (0, 100000)}))
        assert AlarmKind.INT_OVERFLOW in kinds(r)

    def test_small_product_no_overflow(self):
        src = """
        volatile int v; int x;
        int main(void) { x = v * v; return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 100)}))
        assert r.alarm_count == 0

    def test_array_in_bounds(self):
        src = """
        float a[10]; volatile int v; float x;
        int main(void) {
            int i = v;
            if (i >= 0) { if (i < 10) { x = a[i]; } }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (-100, 100)}))
        assert r.alarm_count == 0

    def test_array_out_of_bounds(self):
        src = """
        float a[10]; volatile int v; float x;
        int main(void) { x = a[v]; return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 20)}))
        assert AlarmKind.ARRAY_OOB in kinds(r)

    def test_shift_out_of_range(self):
        src = """
        volatile int v; int x;
        int main(void) { x = 1 << v; return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 40)}))
        assert AlarmKind.SHIFT_RANGE in kinds(r)

    def test_sqrt_of_negative(self):
        src = """
        volatile float v; float x;
        int main(void) { x = sqrtf(v); return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(
            input_ranges={"v": (-1.0, 1.0)}))
        assert AlarmKind.INVALID_OP in kinds(r)

    def test_user_assertion_violated(self):
        src = """
        volatile int v; int x;
        int main(void) { x = v; __ASTREE_assert(x < 5); return 0; }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 10)}))
        assert AlarmKind.ASSERT_FAIL in kinds(r)

    def test_known_fact_refines(self):
        src = """
        volatile int v; int x;
        int main(void) {
            x = v;
            __ASTREE_known_fact(x < 5);
            __ASTREE_assert(x < 5);
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 10)}))
        assert r.alarm_count == 0


class TestLoops:
    def test_bounded_for_loop_index(self):
        src = """
        float a[16]; float x;
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) { x = a[i]; }
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_while_loop_with_exit_bound(self):
        src = """
        int i;
        int main(void) {
            i = 0;
            while (i < 1000) { i = i + 1; }
            __ASTREE_assert(i == 1000);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_do_while(self):
        src = """
        int i;
        int main(void) {
            i = 0;
            do { i = i + 1; } while (i < 10);
            __ASTREE_assert(i >= 1);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_break_exits(self):
        src = """
        int i;
        int main(void) {
            i = 0;
            while (1) { if (i >= 5) { break; } i = i + 1; }
            __ASTREE_assert(i <= 5);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_continue(self):
        """continue must still run the for-loop step (i advances), and the
        saturated counter bound 10 is proved by adding 10 to the threshold
        ladder — the end-user parametrization of Sect. 7.1.2."""
        src = """
        volatile int v; int i; int n;
        int main(void) {
            n = 0;
            for (i = 0; i < 10; i++) {
                if (v) { continue; }
                if (n < 10) { n = n + 1; }
            }
            __ASTREE_assert(n <= 10);
            return 0;
        }
        """
        from repro.domains.thresholds import default_thresholds

        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             thresholds=default_thresholds().with_extra([10.0]))
        r = analyze(src, config=cfg)
        assert r.alarm_count == 0

    def test_threshold_parametrization_matters(self):
        """Without the documentation-supplied threshold the widening
        overshoots to the next ladder rung and the assert cannot be proved
        (the motivation for widening-with-thresholds parametrization)."""
        src = """
        volatile int v; int i; int n;
        int main(void) {
            n = 0;
            for (i = 0; i < 10; i++) {
                if (v) { continue; }
                if (n < 10) { n = n + 1; }
            }
            __ASTREE_assert(n <= 10);
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 1)}))
        assert AlarmKind.ASSERT_FAIL in kinds(r)

    def test_nested_loops(self):
        src = """
        int total;
        int main(void) {
            int i; int j;
            total = 0;
            for (i = 0; i < 10; i++) {
                for (j = 0; j < 10; j++) {
                    if (total < 10000) { total = total + 1; }
                }
            }
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_contracting_assignment_stabilizes(self):
        """X := a*X + b with 0 <= a < 1 stays bounded thanks to the
        threshold ladder (Sect. 7.1.2)."""
        src = """
        volatile float v; float x;
        int main(void) {
            x = 0.0f;
            while (1) {
                x = 0.5f * x + v;
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (-1.0, 1.0)}))
        assert r.alarm_count == 0

    def test_delayed_widening_chain(self):
        """The Sect. 7.1.3 pattern X := Y + g; Y := a*X + d stabilizes only
        with delayed widening."""
        src = """
        volatile float v; float x; float y;
        int main(void) {
            x = 0.0f; y = 0.0f;
            while (1) {
                x = y + v;
                y = 0.5f * x + v;
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (-1.0, 1.0)})
        r = analyze(src, config=cfg)
        assert r.alarm_count == 0


class TestClockedDomain:
    SRC = """
    volatile int ev;
    int count;
    int main(void) {
        count = 0;
        while (1) {
            if (ev) { count = count + 1; }
            __ASTREE_wait_for_clock();
        }
        return 0;
    }
    """

    def test_event_counter_bounded_with_clock(self):
        cfg = AnalyzerConfig(input_ranges={"ev": (0, 1)}, max_clock=3_600_000)
        r = analyze(self.SRC, config=cfg)
        assert r.alarm_count == 0

    def test_event_counter_alarms_without_clock(self):
        cfg = AnalyzerConfig(input_ranges={"ev": (0, 1)}, enable_clock=False)
        r = analyze(self.SRC, config=cfg)
        assert AlarmKind.INT_OVERFLOW in kinds(r)


class TestOctagons:
    def test_paper_l_z_v_example(self):
        """Sect. 6.2.2: after 'if (R>V) L := Z+V' we can bound L - Z."""
        src = """
        volatile float vin; volatile float vv;
        float X, Z, V, R, L; float out;
        int main(void) {
            X = vin; Z = vin; V = vv;
            {
                R = X - Z;
                L = X;
                if (R > V) { L = Z + V; }
            }
            out = L + 1.0f;
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"vin": (-100.0, 100.0),
                                           "vv": (0.0, 10.0)})
        r = analyze(src, config=cfg)
        assert r.alarm_count == 0
        assert r.octagon_pack_count >= 1

    def test_octagon_packs_are_small(self):
        src = """
        volatile float v;
        float a, b, c, d;
        int main(void) {
            a = v; b = a + 1.0f; { c = b - a; d = c + b; }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0.0, 1.0)}))
        for pack in r.ctx.oct_packs.packs:
            assert pack.size <= 8

    def test_octagon_facts_reach_expressions(self):
        """b := a + o records b - a in [1,5]; the later expression
        (int)(b - a) must see that bound (array access stays in bounds)."""
        src = """
        volatile float base_v; volatile float offs_v;
        float tab[8]; float y; float a; float b; int i;
        int main(void) {
            float o;
            {
                a = base_v;
                o = offs_v;
                b = a + o;
                i = (int)(b - a);
                y = tab[i];
            }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"base_v": (0.0, 100.0),
                                           "offs_v": (1.0, 5.0)})
        assert analyze(src, config=cfg).alarm_count == 0
        no_oct = analyze(src, config=cfg.with_overrides(enable_octagons=False))
        assert AlarmKind.ARRAY_OOB in kinds(no_oct)

    def test_useful_pack_reporting(self):
        src = """
        volatile float vin;
        float Z, V, L; float out;
        int main(void) {
            Z = vin; V = vin;
            { L = Z + V; out = L - Z; }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"vin": (0.0, 1.0)})
        r = analyze(src, config=cfg)
        assert isinstance(r.useful_octagon_packs, frozenset)


class TestEllipsoidFilter:
    SRC = """
    volatile float vin;
    volatile int reset;
    float X, Y;
    int main(void) {
        float t, Xp;
        X = 0.0f; Y = 0.0f;
        while (1) {
            t = vin;
            if (reset) {
                Y = 0.5f;
                X = 0.5f;
            } else {
                Xp = 1.5f * X - 0.7f * Y + t;
                Y = X;
                X = Xp;
            }
            __ASTREE_wait_for_clock();
        }
        return 0;
    }
    """

    def test_filter_site_detected(self):
        r = analyze(self.SRC, config=AnalyzerConfig(
            input_ranges={"vin": (-1.0, 1.0), "reset": (0, 1)}))
        assert r.filter_site_count == 1

    def test_filter_bounded_with_ellipsoids(self):
        r = analyze(self.SRC, config=AnalyzerConfig(
            input_ranges={"vin": (-1.0, 1.0), "reset": (0, 1)}))
        assert r.alarm_count == 0

    def test_filter_alarms_without_ellipsoids(self):
        r = analyze(self.SRC, config=AnalyzerConfig(
            input_ranges={"vin": (-1.0, 1.0), "reset": (0, 1)},
            enable_ellipsoids=False))
        assert AlarmKind.FLOAT_OVERFLOW in kinds(r)


class TestDecisionTrees:
    SRC = """
    volatile int vin;
    int X;
    _Bool B;
    float Y;
    int main(void) {
        while (1) {
            X = vin;
            B = (X == 0);
            if (!B) { Y = 100.0f / X; }
            __ASTREE_wait_for_clock();
        }
        return 0;
    }
    """

    def test_paper_boolean_guard_example(self):
        r = analyze(self.SRC, config=AnalyzerConfig(
            input_ranges={"vin": (0, 100)}))
        assert r.alarm_count == 0
        assert r.bool_pack_count >= 1

    def test_alarms_without_decision_trees(self):
        r = analyze(self.SRC, config=AnalyzerConfig(
            input_ranges={"vin": (0, 100)}, enable_decision_trees=False))
        assert AlarmKind.DIV_BY_ZERO in kinds(r)


class TestFunctions:
    def test_call_by_value(self):
        src = """
        int clamp(int v, int lo, int hi) {
            if (v < lo) { return lo; }
            if (v > hi) { return hi; }
            return v;
        }
        volatile int vin; int out;
        int main(void) {
            out = clamp(vin, 0, 100);
            __ASTREE_assert(out >= 0);
            __ASTREE_assert(out <= 100);
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(
            input_ranges={"vin": (-100000, 100000)}))
        assert r.alarm_count == 0

    def test_call_by_reference(self):
        src = """
        void bump(int *p) { *p = *p + 1; }
        int x;
        int main(void) {
            x = 5;
            bump(&x);
            __ASTREE_assert(x == 6);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_pointer_forwarding(self):
        src = """
        void set7(int *p) { *p = 7; }
        void via(int *q) { set7(q); }
        int x;
        int main(void) {
            via(&x);
            __ASTREE_assert(x == 7);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_polyvariant_contexts(self):
        """The same callee analyzed in two contexts keeps both precise
        (context-sensitive polyvariant analysis, Sect. 5.4)."""
        src = """
        int half(int v) { return v / 2; }
        int a; int b;
        int main(void) {
            a = half(10);
            b = half(100);
            __ASTREE_assert(a == 5);
            __ASTREE_assert(b == 50);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_struct_byref(self):
        src = """
        struct st { float x; float y; };
        void init(struct st *s) { s->x = 1.0f; s->y = 2.0f; }
        struct st g;
        int main(void) {
            init(&g);
            __ASTREE_assert(g.x == 1.0f);
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0


class TestSwitch:
    def test_switch_cases_refine(self):
        src = """
        volatile int vin; int mode; int out;
        int main(void) {
            mode = vin;
            switch (mode) {
                case 0: out = 1; break;
                case 1: out = 2; break;
                default: out = 0; break;
            }
            __ASTREE_assert(out >= 0);
            __ASTREE_assert(out <= 2);
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"vin": (0, 5)}))
        assert r.alarm_count == 0

    def test_switch_division_guarded_by_case(self):
        src = """
        volatile int vin; int mode; int out;
        int main(void) {
            mode = vin;
            out = 1;
            switch (mode) {
                case 2: out = 100 / mode; break;
                default: break;
            }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(input_ranges={"vin": (0, 5)}))
        assert r.alarm_count == 0


class TestTracePartitioning:
    SRC = """
    volatile int vin;
    int idx; int d; int out;
    int lookup(void) {
        int q;
        if (idx < 5) { d = 1; } else { d = -1; }
        q = 100 / d;
        return q;
    }
    int main(void) {
        idx = vin;
        out = lookup();
        return 0;
    }
    """

    def test_partitioning_removes_alarm(self):
        cfg = AnalyzerConfig(input_ranges={"vin": (0, 10)},
                             partition_functions={"lookup"})
        r = analyze(self.SRC, config=cfg)
        assert r.alarm_count == 0

    def test_without_partitioning_alarm_remains(self):
        cfg = AnalyzerConfig(input_ranges={"vin": (0, 10)})
        r = analyze(self.SRC, config=cfg)
        # Merging branches: d in [-1, 1] spans 0 at the division.
        assert AlarmKind.DIV_BY_ZERO in kinds(r)


class TestLinearization:
    def test_paper_x_minus_02x(self):
        """Sect. 6.3: X - 0.2*X on X in [0,1] must stay within [0, ~0.8]."""
        src = """
        volatile float vin; float x;
        int main(void) {
            x = vin;
            x = x - 0.2f * x;
            __ASTREE_assert(x >= -0.1f);
            __ASTREE_assert(x <= 0.9f);
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"vin": (0.0, 1.0)})
        r = analyze(src, config=cfg)
        assert r.alarm_count == 0

    def test_without_linearization_fails(self):
        src = """
        volatile float vin; float x;
        int main(void) {
            x = vin;
            x = x - 0.2f * x;
            __ASTREE_assert(x >= -0.1f);
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"vin": (0.0, 1.0)},
                             enable_linearization=False, enable_octagons=False)
        r = analyze(src, config=cfg)
        assert AlarmKind.ASSERT_FAIL in kinds(r)


class TestBaselineComparison:
    def test_baseline_weaker_than_refined(self):
        src = TestEllipsoidFilter.SRC
        cfg_r = AnalyzerConfig(input_ranges={"vin": (-1.0, 1.0), "reset": (0, 1)})
        cfg_b = baseline_config(input_ranges={"vin": (-1.0, 1.0), "reset": (0, 1)})
        refined = analyze(src, config=cfg_r)
        base = analyze(src, config=cfg_b)
        assert refined.alarm_count < base.alarm_count
