"""Smoke test of the cost ledger at a tiny scale (0.125 kLOC ladders,
2 mixes, 3 edits).  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py
"""

import json
import os

import pytest

from benchmarks.ledger import metrics, procs
from benchmarks.ledger.__main__ import RUN_SECONDS, render, summary_line
from benchmarks.ledger.workloads import (TINY, WORKLOADS, Program, Workload,
                                         run_workload)

WORKROOT = os.path.join(procs.ROOT, ".ledger")


@pytest.fixture(scope="module")
def reports():
    os.makedirs(WORKROOT, exist_ok=True)
    out = {}
    for name in WORKLOADS:
        for trace in (False, True):
            out[name, trace] = run_workload(name, 7, 0.0, trace=trace,
                                            sizes=TINY, workroot=WORKROOT)
    return out


def _printed(report, specs):
    """Map each metric name to the text printed after it."""
    lines = render(report)
    printed = {}
    for m in specs:
        rows = [ln.split(None, 1) for ln in lines
                if ln.split(None, 1)[:1] == [m.name]]
        assert len(rows) == 1, f"{m.name} printed {len(rows)} times"
        printed[m.name] = rows[0][1]
    return printed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(reports, name):
    for trace, section, specs in (
            (False, "end_to_end",
             metrics.END_TO_END + metrics.WORKLOAD_END_TO_END),
            (True, "per_layer", metrics.PER_LAYER + metrics.WORKLOAD_LAYER)):
        report, _ = reports[name, trace]
        assert report["correct"], report
        printed = _printed(report, specs)
        for m in specs:
            if m.name in report[section]:
                assert printed[m.name].endswith(" " + m.unit), printed[m.name]
            else:
                assert printed[m.name] == "n/a"
        line = summary_line([report], trace)
        required = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert set(line["metrics"]) == {m.name for m in required}
        for m in required:
            assert line["metrics"][m.name]["unit"] == m.unit
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_fit_in_the_traced_wall(reports, name):
    report, merged = reports[name, True]
    overhead = report["overhead"]
    assert all(s >= 0 for s in overhead["self_s"].values())
    assert 0 < overhead["self_s_total"] <= overhead["traced_s"]
    assert merged["spans"] and all(
        span["job"] is not None for span in merged["spans"])


def test_end_to_end_metrics_are_never_zero(reports):
    for name in WORKLOADS:
        report, _ = reports[name, False]
        for m in metrics.END_TO_END:
            assert report["end_to_end"][m.name] > 0, (name, m.name)


def test_gate_fails_a_program_with_under_specified_ranges(tmp_path):
    from repro.synth import FamilySpec, generate_program

    gp = generate_program(FamilySpec(target_kloc=0.125, seed=7))
    name = sorted(gp.input_ranges)[0]
    program = Program("under-specified", gp.source,
                      {name: gp.input_ranges[name]}, gp.max_clock, gp.loc)
    wl = Workload(7, TINY, str(tmp_path))
    job = wl.analyze_job(program, procs.child_env(), "bad")
    assert job.alarms > 0
    assert job.error


def test_benchmark_json_mirrors_the_ledger():
    with open(os.path.join(procs.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["run_seconds"] == RUN_SECONDS
    assert bench["workloads"] == [{"name": cls.name, "why": cls.why}
                                  for cls in WORKLOADS.values()]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
