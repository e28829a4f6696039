"""Tests for the configuration, thresholds, and top-level API surfaces."""

import math

from repro import (
    AnalysisResult, AnalyzerConfig, analyze, analyze_baseline,
    baseline_config, refinement_stages,
)
from repro.domains.thresholds import ThresholdSet, default_thresholds


class TestThresholdSet:
    def test_contains_infinities_and_zero(self):
        ts = ThresholdSet([])
        assert math.inf in ts.values and -math.inf in ts.values
        assert 0.0 in ts.values

    def test_sorted(self):
        ts = ThresholdSet([5.0, -3.0, 100.0])
        assert ts.values == sorted(ts.values)

    def test_geometric_ladder(self):
        ts = ThresholdSet.geometric(alpha=1.0, lam=2.0, count=5)
        for v in (1.0, 2.0, 4.0, 8.0, 16.0):
            assert v in ts

    def test_geometric_has_negatives(self):
        ts = ThresholdSet.geometric(alpha=1.0, lam=2.0, count=3)
        assert -4.0 in ts

    def test_next_above(self):
        ts = ThresholdSet([10.0, 100.0])
        assert ts.next_above(5.0) == 10.0
        assert ts.next_above(50.0) == 100.0
        assert ts.next_above(1000.0) == math.inf

    def test_next_below(self):
        ts = ThresholdSet([-100.0, -10.0])
        assert ts.next_below(-5.0) == -10.0
        assert ts.next_below(-1000.0) == -math.inf

    def test_with_extra(self):
        ts = default_thresholds().with_extra([123.0])
        assert 123.0 in ts

    def test_default_covers_type_bounds(self):
        ts = default_thresholds()
        assert 2.0**31 in ts
        assert ts.next_above(3.3e38) == math.inf or ts.next_above(3.3e38) > 3.3e38


class TestAnalyzerConfig:
    def test_defaults_enable_everything(self):
        cfg = AnalyzerConfig()
        assert cfg.enable_octagons and cfg.enable_ellipsoids
        assert cfg.enable_decision_trees and cfg.enable_clock

    def test_baseline_disables_refinements(self):
        cfg = baseline_config()
        assert not cfg.enable_octagons
        assert not cfg.enable_ellipsoids
        assert not cfg.enable_decision_trees
        assert cfg.enable_clock  # the clocked domain predates the paper ([5])

    def test_with_overrides_returns_new(self):
        cfg = AnalyzerConfig()
        cfg2 = cfg.with_overrides(max_clock=10)
        assert cfg.max_clock != 10 and cfg2.max_clock == 10

    def test_baseline_config_kwargs(self):
        cfg = baseline_config(max_clock=99)
        assert cfg.max_clock == 99


class TestRefinementStages:
    def test_stage_sequence(self):
        stages = list(refinement_stages(AnalyzerConfig()))
        names = [n for n, _ in stages]
        assert names[0] == "intervals"
        assert "full" in names[-1]
        assert len(stages) == 7

    def test_last_stage_is_fully_enabled(self):
        stages = list(refinement_stages(AnalyzerConfig()))
        _, last = stages[-1]
        assert last.enable_octagons and last.enable_ellipsoids
        assert last.enable_decision_trees


SRC = """
volatile int v; int x;
int main(void) { x = v + 1; return 0; }
"""


class TestAnalyzeAPI:
    def test_analyze_returns_result(self):
        r = analyze(SRC, config=AnalyzerConfig(input_ranges={"v": (0, 10)}))
        assert isinstance(r, AnalysisResult)
        assert r.analysis_time > 0

    def test_analyze_multiple_units(self):
        units = [
            ("a.c", "extern int shared; void main(void) { shared = 1; }"),
            ("b.c", "int shared;"),
        ]
        r = analyze(units)
        assert r.alarm_count == 0

    def test_analyze_baseline_helper(self):
        r = analyze_baseline(SRC, input_ranges={"v": (0, 10)})
        assert r.alarm_count == 0

    def test_alarms_by_kind(self):
        src = "volatile int v; int x; int main(void) { x = 1/v; return 0; }"
        r = analyze(src, config=AnalyzerConfig(input_ranges={"v": (0, 3)}))
        by_kind = r.alarms_by_kind()
        assert by_kind.get("division-by-zero") == 1

    def test_custom_entry_point(self):
        src = "int x; void tick(void) { x = x + 1; }"
        r = analyze(src, entry="tick",
                    config=AnalyzerConfig(enable_clock=False))
        # x starts at 0; one increment cannot overflow.
        assert r.alarm_count == 0

    def test_invariant_stats_empty_without_collection(self):
        r = analyze(SRC, config=AnalyzerConfig(input_ranges={"v": (0, 10)}))
        stats = r.invariant_stats()
        assert stats.total() == 0  # no loops collected

    def test_invariant_stats_with_loop(self):
        src = """
        volatile int v; int c;
        int main(void) {
            while (1) {
                if (v) { c = c + 1; }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             collect_invariants=True)
        r = analyze(src, config=cfg)
        stats = r.invariant_stats()
        assert stats.clock_assertions >= 1
        assert "c in" in r.dump_invariant_text() or "c " in r.dump_invariant_text()

    def test_trace_visit_counts(self):
        src = """
        int i; int x;
        int main(void) {
            x = 0;
            for (i = 0; i < 5; i++) { x = x + 1; }
            return 0;
        }
        """
        r = analyze(src, config=AnalyzerConfig(trace=True))
        assert r.visit_counts, "tracing must record statement visits"
        # The loop body is visited more often than the prelude assignment.
        assert max(r.visit_counts.values()) > min(r.visit_counts.values())

    def test_trace_off_records_nothing(self):
        src = "int x; int main(void) { x = 1; return 0; }"
        r = analyze(src)
        assert r.visit_counts == {}

    def test_widening_iterations_counted(self):
        src = """
        int i;
        int main(void) {
            i = 0;
            while (i < 100) { i = i + 1; }
            return 0;
        }
        """
        r = analyze(src)
        assert r.widening_iterations > 0
