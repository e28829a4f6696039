"""Iterator edge cases: loop/flow interactions, modes, perturbation."""

from repro import AnalyzerConfig, analyze


def kinds(r):
    return {a.kind for a in r.alarms}


def run(src, **ranges):
    return analyze(src, config=AnalyzerConfig(input_ranges=ranges))


class TestFlowInteractions:
    def test_return_inside_loop(self):
        src = """
        volatile int v;
        int find(void) {
            int i;
            for (i = 0; i < 10; i++) {
                if (v) { return i; }
            }
            return -1;
        }
        int out;
        int main(void) {
            out = find();
            __ASTREE_assert(out >= -1);
            __ASTREE_assert(out <= 9);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_break_inside_do_while(self):
        src = """
        volatile int v; int i;
        int main(void) {
            i = 0;
            do {
                if (v) { break; }
                i = i + 1;
            } while (i < 5);
            __ASTREE_assert(i <= 5);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_continue_inside_while(self):
        """The continue path preserves the old 'odd' value, so the widened
        rung survives any narrowing: the provable bound is the next ladder
        rung (16), not the concrete 10 — unless the user supplies 10 as a
        threshold (Sect. 7.1.2), which the sibling test exercises."""
        src = """
        volatile int v; int i; int odd;
        int main(void) {
            i = 0; odd = 0;
            while (i < 10) {
                i = i + 1;
                if (v) { continue; }
                odd = i;
            }
            __ASTREE_assert(i <= 10);
            __ASTREE_assert(odd <= 16);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_continue_inside_while_with_threshold(self):
        from repro.domains.thresholds import default_thresholds

        src = """
        volatile int v; int i; int odd;
        int main(void) {
            i = 0; odd = 0;
            while (i < 10) {
                i = i + 1;
                if (v) { continue; }
                odd = i;
            }
            __ASTREE_assert(odd <= 10);
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             thresholds=default_thresholds().with_extra([10.0]))
        assert analyze(src, config=cfg).alarm_count == 0

    def test_nested_break_only_exits_inner(self):
        src = """
        volatile int v; int i; int j; int n;
        int main(void) {
            n = 0;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 3; j++) {
                    if (v) { break; }
                    if (n < 16) { n = n + 1; }   /* 16 is a ladder rung */
                }
            }
            __ASTREE_assert(n <= 16);
            __ASTREE_assert(i == 3);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_call_inside_loop_body(self):
        src = """
        int sat(int x) {
            if (x > 50) { return 50; }
            return x;
        }
        volatile int v; int acc;
        int main(void) {
            acc = 0;
            while (1) {
                acc = sat(acc + v);
                __ASTREE_assert(acc <= 50);
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        assert run(src, v=(0, 3)).alarm_count == 0

    def test_multiple_returns_join_values(self):
        src = """
        volatile int v;
        int pick(void) {
            if (v) { return 10; }
            return 20;
        }
        int out;
        int main(void) {
            out = pick();
            __ASTREE_assert(out >= 10);
            __ASTREE_assert(out <= 20);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_void_function_with_early_return(self):
        src = """
        volatile int v; int x;
        void maybe_set(void) {
            if (v) { return; }
            x = 5;
        }
        int main(void) {
            x = 1;
            maybe_set();
            __ASTREE_assert(x >= 1);
            __ASTREE_assert(x <= 5);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_infinite_loop_without_wait(self):
        """A tight loop (no clock tick) still reaches a fixpoint."""
        src = """
        volatile int v; int x;
        int main(void) {
            x = 0;
            while (1) {
                if (x < 5) { x = x + 1; }
            }
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0

    def test_loop_condition_with_conjunction(self):
        src = """
        volatile int v; int i;
        int main(void) {
            i = 0;
            while (i < 100 && v) { i = i + 1; }
            __ASTREE_assert(i <= 100);
            return 0;
        }
        """
        assert run(src, v=(0, 1)).alarm_count == 0


class TestIterationStrategies:
    def test_unrolling_improves_first_iteration_precision(self):
        """The first loop iteration is exact with unrolling (Sect. 7.1.1)."""
        src = """
        int i; int first;
        int main(void) {
            first = -1;
            for (i = 0; i < 10; i++) {
                if (i == 0) { first = 100; }
            }
            __ASTREE_assert(first == 100);
            return 0;
        }
        """
        cfg = AnalyzerConfig(default_unroll=1)
        assert analyze(src, config=cfg).alarm_count == 0

    def test_per_loop_unroll_override(self):
        src = """
        int i; int x;
        int main(void) {
            x = 0;
            for (i = 0; i < 3; i++) { x = x + 1; }
            __ASTREE_assert(x == 3);
            return 0;
        }
        """
        # With enough unrolling the loop is fully unrolled: exact result.
        cfg = AnalyzerConfig(default_unroll=4)
        assert analyze(src, config=cfg).alarm_count == 0

    def test_iteration_epsilon_zero_still_converges(self):
        src = """
        volatile float v; float x;
        int main(void) {
            x = 0.0f;
            while (1) {
                x = 0.9f * x + v;
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (-1.0, 1.0)},
                             iteration_epsilon=0.0)
        r = analyze(src, config=cfg)
        assert r.alarm_count == 0

    def test_checking_mode_reports_only_reachable(self):
        """Alarms in unreachable code are not reported (bottom states
        short-circuit)."""
        src = """
        int x;
        int main(void) {
            x = 1;
            if (x == 2) { x = 1 / 0; }
            while (0) { x = 1 / 0; }
            return 0;
        }
        """
        assert analyze(src).alarm_count == 0

    def test_widening_iteration_budget_respected(self):
        """Even adversarial slow-growing loops terminate within budget."""
        src = """
        volatile int v; int a; int b; int c;
        int main(void) {
            a = 0; b = 0; c = 0;
            while (1) {
                if (a < 1000000) { a = a + 1; }
                if (v) { if (b < a) { b = b + 1; } }
                if (v) { if (c < b) { c = c + 1; } }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             max_widening_iterations=30)
        r = analyze(src, config=cfg)  # must terminate; alarms irrelevant
        assert r.widening_iterations <= 40 * 3  # loop + forced rounds
