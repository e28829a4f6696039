"""Tests for the result record and its text rendering."""

import json

from repro import AnalyzerConfig, analyze
from repro.report import render_text, write_report

CLEAN = """
int x;
int main(void) { x = 1; return 0; }
"""

BUGGY = """
volatile int v; int x;
int main(void) { x = 1 / v; return 0; }
"""

LOOPY = """
volatile int v; int c;
int main(void) {
    while (1) {
        if (v) { if (c < 100) { c = c + 1; } }
        __ASTREE_wait_for_clock();
    }
    return 0;
}
"""


class TestMarkdown:
    """The human-readable answer: render_text over the record."""

    def test_clean_report_says_proved(self):
        r = analyze(CLEAN)
        text = render_text(r.to_json())
        assert text.startswith("-- 0 alarm(s) in ")
        assert "DEGRADED" not in text

    def test_buggy_report_lists_alarm(self):
        r = analyze(BUGGY, config=AnalyzerConfig(input_ranges={"v": (0, 3)}))
        lines = render_text(r.to_json()).splitlines()
        assert lines[0] == str(r.alarms[0])
        assert "[division-by-zero]" in lines[0]
        assert lines[1].startswith("-- 1 alarm(s) in ")

    def test_invariant_section_with_loops(self):
        cfg = AnalyzerConfig(input_ranges={"v": (0, 1)},
                             collect_invariants=True)
        r = analyze(LOOPY, config=cfg)
        text = render_text(r.to_json(), stats=True, invariants=True)
        assert "-- stats --" in text
        assert "widening iterations:" in text
        assert text.endswith("-- main loop invariant --\n"
                             + r.dump_invariant_text() + "\n")

    def test_stored_record_without_new_keys_renders(self):
        # A result stored by a daemon that predates the shared record has
        # no incidents/peak_rss_kib/useful_octagon_packs keys.
        record = analyze(BUGGY, config=AnalyzerConfig(
            input_ranges={"v": (0, 3)})).to_json()
        for key in ("incidents", "peak_rss_kib",
                    "useful_octagon_packs", "octagon_pack_avg_size"):
            del record[key]
        text = render_text(record, stats=True, invariants=True)
        assert "1 alarm(s)" in text and "0 useful" in text
        assert "(no loop invariants collected)" in text


class TestJson:
    def test_round_trips(self):
        r = analyze(BUGGY, config=AnalyzerConfig(input_ranges={"v": (0, 3)}))
        record = json.loads(json.dumps(r.to_json()))
        assert record == r.to_json()
        assert record["alarm_count"] == 1
        assert record["alarms"][0]["kind"] == "division-by-zero"
        assert "sid" not in record["alarms"][0]
        assert record["octagon_packs"] >= 0
        assert record["useful_octagon_packs"] == len(r.useful_octagon_packs)
        assert set(record["invariant_stats"]) >= {"interval_assertions",
                                                  "clock_assertions"}
        # The work counters are always there.
        assert record["stmts_executed"] > 0
        assert "invariant_dump" not in record  # nothing collected


class TestWrite:
    def test_write_markdown(self, tmp_path):
        r = analyze(CLEAN)
        path = tmp_path / "out.txt"
        write_report(r, str(path))
        assert path.read_text() == render_text(r.to_json(), stats=True,
                                               invariants=True)

    def test_write_json_by_extension(self, tmp_path):
        r = analyze(CLEAN)
        path = tmp_path / "out.json"
        write_report(r, str(path))
        record = json.loads(path.read_text())
        assert record["alarm_count"] == 0 and record["exit_code"] == 0
        assert set(record) == set(r.to_json())
