"""Tests for trace partitioning over loops (Sect. 7.1.5, second half)."""

from repro import AnalyzerConfig, analyze
from repro.iterator.alarms import AlarmKind


def kinds(r):
    return {a.kind for a in r.alarms}


class TestLoopPartitioning:
    # If the search loop never runs (n == 0), found stays 0 and the
    # division by hits is guarded; if it runs, hits >= 1.  Joining the
    # zero-iteration exit with the looped exits loses the correlation
    # between found and hits.
    SRC = """
    volatile int vn;
    int hits; int found; int avg; int total;
    int scan(void) {
        int i; int n;
        n = vn;
        hits = 0; found = 0; total = 0;
        for (i = 0; i < n; i++) {
            if (hits < 64) { hits = hits + 1; }
            if (total < 64) { total = total + 2; }
            found = 1;
        }
        if (found) { avg = total / hits; }
        return avg;
    }
    int main(void) {
        avg = 0;
        scan();
        return 0;
    }
    """

    def test_partitioned_loop_proves_guarded_division(self):
        cfg = AnalyzerConfig(input_ranges={"vn": (0, 8)},
                             partition_functions={"scan"},
                             default_unroll=1)
        r = analyze(self.SRC, config=cfg)
        assert r.alarm_count == 0

    def test_unpartitioned_loop_keeps_alarm(self):
        cfg = AnalyzerConfig(input_ranges={"vn": (0, 8)}, default_unroll=1)
        r = analyze(self.SRC, config=cfg)
        assert AlarmKind.DIV_BY_ZERO in kinds(r)

    def test_partitioning_is_sound(self):
        """A genuinely reachable error survives loop partitioning."""
        src = """
        volatile int vn;
        int x;
        int f(void) {
            int i; int n;
            n = vn;
            for (i = 0; i < n; i++) { x = x + 1; }
            x = 100 / (n - 4);   /* true error when n == 4 */
            return x;
        }
        int main(void) { f(); return 0; }
        """
        cfg = AnalyzerConfig(input_ranges={"vn": (0, 8)},
                             partition_functions={"f"})
        r = analyze(src, config=cfg)
        assert AlarmKind.DIV_BY_ZERO in kinds(r)

    def test_do_while_not_partitioned(self):
        """do-while bodies always run once: the zero-iteration split does
        not apply (and must not crash)."""
        src = """
        volatile int vn;
        int x;
        int f(void) {
            int i;
            i = 0;
            do { i = i + 1; } while (i < 3);
            x = i;
            return x;
        }
        int main(void) { f(); __ASTREE_assert(x == 3); return 0; }
        """
        cfg = AnalyzerConfig(input_ranges={"vn": (0, 8)},
                             partition_functions={"f"})
        assert analyze(src, config=cfg).alarm_count == 0

    def test_partition_depth_budget(self):
        """Deeply nested partitionable constructs stay within budget."""
        src = """
        volatile int v;
        int x;
        int f(void) {
            int i;
            for (i = 0; i < 2; i++) { x = x + 1; }
            if (v) { x = 1; } else { x = 2; }
            if (v) { x = x + 1; } else { x = x + 2; }
            if (v) { x = x + 1; } else { x = x + 2; }
            if (v) { x = x + 1; } else { x = x + 2; }
            if (v) { x = x + 1; } else { x = x + 2; }
            return x;
        }
        int main(void) { x = 0; f(); return 0; }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             partition_functions={"f"},
                             max_partition_depth=2)
        r = analyze(src, config=cfg)  # terminates quickly, no blowup
        assert r.analysis_time < 30
