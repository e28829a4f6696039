"""The cost ledger finds analyzer code by name.

A traced ledger run (``python -m benchmarks.ledger --trace``) wraps the
functions listed in ``benchmarks.ledger.trace.TARGETS`` and copies the
``AnalysisResult`` fields named in ``RESULT_COUNTERS``.  A rename or a
deleted field breaks it, but only a traced run would notice; these
tests pin both lists (read as they are, never edited) in the tier-1
suite.
"""

import dataclasses
import json

from benchmarks.ledger import trace
from repro.analysis import AnalysisResult


def test_every_trace_target_resolves():
    missing = []
    for _layer, module, qualname, _keep in trace.TARGETS:
        try:
            owner, attr = trace._resolve(module, qualname)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module}:{qualname} ({exc})")
            continue
        # install() patches owner.__dict__[attr]: an inherited name
        # would not do.
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}:{qualname}")
    assert not missing, missing


def test_every_result_counter_is_a_result_field():
    fields = {f.name for f in dataclasses.fields(AnalysisResult)}
    assert set(trace.RESULT_COUNTERS) <= fields, \
        sorted(set(trace.RESULT_COUNTERS) - fields)


def test_recorder_dump_reads_closure_counters(tmp_path):
    path = tmp_path / "trace.json"
    trace.Recorder().dump(str(path))
    data = json.loads(path.read_text())
    assert set(data["closure_memo"]) == {"hits", "computations"}
