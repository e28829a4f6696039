"""Tests for the concrete interpreter and end-to-end differential checks.

The crowning soundness test: random concrete executions of generated
family programs must stay inside the analyzer's loop invariants, and every
concrete run-time error must be covered by an alarm.
"""

from repro import AnalyzerConfig, analyze_program
from repro.concrete import ConcreteInterpreter, RandomInputs
from repro.frontend import compile_source
from repro.fuzz.oracle import (
    containment_violations, run_oracle, uncovered_error_kinds,
)


def interpret(src, ranges=None, seed=0, max_ticks=50):
    prog = compile_source(src, "t.c")
    interp = ConcreteInterpreter(prog, RandomInputs(ranges or {}, seed),
                                 max_ticks=max_ticks)
    interp.run()
    return prog, interp


class TestConcreteBasics:
    def test_straight_line_arithmetic(self):
        src = """
        int x; int y;
        int main(void) { x = 3 + 4 * 5; y = x / 2; return 0; }
        """
        prog, interp = interpret(src)
        snap = interp.snapshot()
        assert snap["x"] == 23 and snap["y"] == 11

    def test_truncated_division(self):
        src = "int x; int main(void) { x = -7 / 2; return 0; }"
        _, interp = interpret(src)
        assert interp.snapshot()["x"] == -3

    def test_int_wraparound_recorded(self):
        src = """
        int x;
        int main(void) { x = 2147483647; x = x + 1; return 0; }
        """
        _, interp = interpret(src)
        assert interp.snapshot()["x"] == -2147483648
        assert any(e.kind == "integer-overflow" for e in interp.errors)

    def test_float32_rounding(self):
        import numpy as np

        src = "float f; int main(void) { f = 0.1f; f = f + 0.2f; return 0; }"
        _, interp = interpret(src)
        expected = float(np.float32(np.float32(0.1) + np.float32(0.2)))
        assert interp.snapshot()["f"] == expected

    def test_loop_executes(self):
        src = """
        int total;
        int main(void) {
            int i;
            total = 0;
            for (i = 0; i < 10; i++) { total = total + i; }
            return 0;
        }
        """
        _, interp = interpret(src)
        assert interp.snapshot()["total"] == 45

    def test_do_while_and_break(self):
        src = """
        int i;
        int main(void) {
            i = 0;
            do { i = i + 1; if (i >= 3) { break; } } while (1);
            return 0;
        }
        """
        _, interp = interpret(src)
        assert interp.snapshot()["i"] == 3

    def test_switch_dispatch(self):
        src = """
        int y;
        int main(void) {
            int m = 2;
            switch (m) { case 1: y = 10; break; case 2: y = 20; break;
                         default: y = 0; break; }
            return 0;
        }
        """
        _, interp = interpret(src)
        assert interp.snapshot()["y"] == 20

    def test_function_call_and_byref(self):
        src = """
        void twice(int *p) { *p = *p * 2; }
        int x;
        int main(void) { x = 21; twice(&x); return 0; }
        """
        _, interp = interpret(src)
        assert interp.snapshot()["x"] == 42

    def test_arrays_and_structs(self):
        src = """
        struct s { int a; float b; };
        struct s g;
        int tab[4];
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) { tab[i] = i * i; }
            g.a = tab[3];
            g.b = 1.5f;
            return 0;
        }
        """
        prog, interp = interpret(src)
        assert interp.memory[prog.global_by_name("tab").uid] == [0, 1, 4, 9]
        assert interp.memory[prog.global_by_name("g").uid]["a"] == 9

    def test_volatile_reads_fresh_each_time(self):
        src = """
        volatile int v; int a; int b; int differ;
        int main(void) {
            int k;
            differ = 0;
            for (k = 0; k < 64; k++) {
                a = v; b = v;
                if (a != b) { differ = 1; }
            }
            return 0;
        }
        """
        _, interp = interpret(src, ranges={"v": (0, 1000)}, seed=7)
        assert interp.snapshot()["differ"] == 1

    def test_tick_budget_and_trace(self):
        src = """
        volatile int v; int c;
        int main(void) {
            c = 0;
            while (1) {
                if (v) { c = c + 1; }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        _, interp = interpret(src, ranges={"v": (0, 1)}, max_ticks=20)
        assert interp.ticks == 20
        assert len(interp.trace) == 20
        assert all(0 <= t.values["c"] <= t.tick + 1 for t in interp.trace)

    def test_division_by_zero_recorded(self):
        src = """
        volatile int v; int x;
        int main(void) { int d = v; x = 10 / d; return 0; }
        """
        _, interp = interpret(src, ranges={"v": (0, 0)})
        assert any(e.kind == "division-by-zero" for e in interp.errors)

    def test_oob_recorded(self):
        src = """
        float a[4]; float x;
        int main(void) { int i = 9; x = a[i - 5]; a[i] = 1.0f; return 0; }
        """
        _, interp = interpret(src)
        assert any(e.kind == "array-index-out-of-bounds" for e in interp.errors)


class TestDifferentialEndToEnd:
    """Concrete executions vs abstract invariants on whole programs."""

    def _check_containment(self, prog, result, interp):
        """Every traced concrete value lies in the analyzer's invariant
        (the check itself lives in repro.fuzz.oracle, shared with the
        fuzzing campaign engine)."""
        assert result.loop_invariants, "main loop invariant required"
        checked, violations = containment_violations(result, interp)
        assert checked > 0, "containment check must cover some values"
        assert not violations, violations[:5]

    def test_quickstart_controller(self):
        src = """
        volatile float sensor; volatile int fault;
        float command; float integral; int fault_count;
        int main(void) {
            integral = 0.0f; fault_count = 0;
            while (1) {
                float err = sensor;
                integral = integral + 0.25f * err;
                if (integral > 100.0f) { integral = 100.0f; }
                if (integral < -100.0f) { integral = -100.0f; }
                command = 0.5f * command + 0.5f * integral;
                if (fault) { fault_count = fault_count + 1; }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        ranges = {"sensor": (-10.0, 10.0), "fault": (0, 1)}
        prog = compile_source(src, "c.c")
        cfg = AnalyzerConfig(input_ranges=ranges, collect_invariants=True)
        result = analyze_program(prog, cfg)
        assert result.alarm_count == 0
        for seed in range(3):
            interp = ConcreteInterpreter(prog, RandomInputs(ranges, seed),
                                         max_ticks=300)
            interp.run()
            assert not interp.errors
            self._check_containment(prog, result, interp)

    def test_family_program_containment(self):
        from repro.synth import FamilySpec, generate_program

        gp = generate_program(FamilySpec(target_kloc=0.2, seed=8))
        prog = compile_source(gp.source, "fam.c")
        cfg = gp.analyzer_config(collect_invariants=True)
        result = analyze_program(prog, cfg)
        assert result.alarm_count == 0
        interp = ConcreteInterpreter(
            prog, RandomInputs(gp.input_ranges, seed=1), max_ticks=150)
        interp.run()
        assert not interp.errors, interp.errors[:3]
        self._check_containment(prog, result, interp)

    def test_concrete_errors_covered_by_alarms(self):
        """If the concrete run errs, the analyzer must alarm (soundness)."""
        src = """
        volatile int v; int x; float a[4]; float y;
        int main(void) {
            int d = v;
            x = 100 / d;
            y = a[d];
            return 0;
        }
        """
        ranges = {"v": (0, 10)}
        prog = compile_source(src, "bug.c")
        result = analyze_program(prog, AnalyzerConfig(input_ranges=ranges))
        hit = set()
        for seed in range(30):
            interp = ConcreteInterpreter(prog, RandomInputs(ranges, seed))
            interp.run()
            hit |= {e.kind for e in interp.errors}
            assert uncovered_error_kinds(result, interp.errors) == []
        assert hit, "some seed must trigger the planted errors"

    def test_run_oracle_end_to_end(self):
        """The campaign oracle agrees with the hand-rolled checks: a
        clean family program is judged sound over seeded streams."""
        from repro.synth import FamilySpec, generate_program

        gp = generate_program(FamilySpec(target_kloc=0.1, seed=11))
        prog = compile_source(gp.source, "fam.c")
        result = analyze_program(
            prog, gp.analyzer_config(collect_invariants=True))
        report = run_oracle(prog, result, gp.input_ranges, case_seed=123,
                            streams=3, max_ticks=40)
        assert report.sound, report.to_json()
        assert report.values_checked > 0
        # The verdict is a pure function of the case seed.
        again = run_oracle(prog, result, gp.input_ranges, case_seed=123,
                           streams=3, max_ticks=40)
        assert report.to_json() == again.to_json()
