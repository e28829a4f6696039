"""In-memory span recorder for the ledger's traced runs.

The recorder wraps public functions of the analyzer from the outside:
each target is patched where it is defined, and every module that
imported it by name gets the wrapper too.  Nothing under ``src/`` is
edited.  A traced child process loads this file through
``boot/sitecustomize.py`` before its main module runs, so the CLI
process, the ``serve`` daemon and its worker run with the same argv and
flags as in an untraced run.

Per call the wrapper records a span: name, start, end and parent span.
Job ids are assigned when the ledger merges the per-process files: the
clock is ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), shared by
all processes, so a span belongs to the ledger job whose caller-side
interval contains it.

Coarse functions (frontend, packing, a fixpoint run, certificate
phases) keep every span.  Per-statement and per-cell functions run
thousands of times per job, so their spans are folded, as they close,
into totals (calls, self time) per function and nearest kept ancestor
span; the totals inherit that ancestor's job id.

Self time is a span's duration minus the time covered by its direct
child spans, so self times never overlap and their sum is bounded by
the traced wall time.

Each process writes one JSON file into ``$LEDGER_TRACE_DIR`` at exit.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time

__all__ = ["ENV_DIR", "TARGETS", "install", "load_process_files"]

ENV_DIR = "LEDGER_TRACE_DIR"

KEEP, FOLD = True, False

#: (layer, defining module, qualified name, keep every span?).
TARGETS = [
    ("frontend", "repro.frontend.preprocessor", "preprocess", KEEP),
    ("frontend", "repro.frontend.parser", "parse", KEEP),
    ("frontend", "repro.frontend.linker", "compile_source", KEEP),
    ("frontend", "repro.frontend.linker", "link_sources", KEEP),
    ("packing", "repro.memory.cells", "CellTable.for_program", KEEP),
    ("packing", "repro.packing.octagon_packs", "compute_octagon_packs", KEEP),
    ("packing", "repro.packing.boolean_packs", "compute_bool_packs", KEEP),
    ("packing", "repro.packing.ellipsoid_sites", "find_filter_sites", KEEP),
    ("analysis", "repro.analysis", "analyze_program", KEEP),
    ("iterator", "repro.iterator.iterator", "Iterator.run", KEEP),
    ("iterator", "repro.iterator.iterator", "Iterator.exec_stmt", FOLD),
    ("transfer", "repro.iterator.transfer", "Transfer.eval", FOLD),
    ("transfer", "repro.iterator.transfer", "Transfer.resolve_lvalue", FOLD),
    ("linear_forms", "repro.numeric.linear_forms",
     "LinearForm.with_float_rounding", FOLD),
    ("linear_forms", "repro.numeric.linear_forms",
     "LinearForm.intervalize", FOLD),
    ("linear_forms", "repro.numeric.linear_forms",
     "LinearForm.drop_to_interval", FOLD),
] + [
    ("lattice", "repro.iterator.state", f"AbstractState.{op}", FOLD)
    for op in ("join", "widen", "narrow", "includes")
] + [
    ("memory", "repro.memory.environment", f"MemoryEnv.{op}", FOLD)
    for op in ("join", "widen", "narrow", "meet", "includes")
] + [
    ("octagon", "repro.domains.octagon", f"Octagon.{op}", FOLD)
    for op in ("closed", "join", "widen", "includes", "assign_linear_form")
] + [
    ("ellipsoid", "repro.domains.ellipsoid", f"EllipsoidValue.{op}", FOLD)
    for op in ("rotate", "reinitialize", "reduce_from_intervals", "x_bound",
               "y_bound", "join", "meet", "widen", "narrow", "includes")
] + [
    ("decision_tree", "repro.domains.decision_tree", f"DecisionTree.{op}",
     FOLD)
    for op in ("assign_bool", "guard_bool", "numeric_refinement",
               "bool_value", "assign_numeric", "forget_bool", "join", "meet",
               "widen", "narrow", "includes")
] + [
    ("values", "repro.domains.values", f"CellValue.{op}", FOLD)
    for op in ("join", "widen", "includes", "on_clock_tick")
] + [
    ("certify", "repro.certify.api", "certify_result", KEEP),
    ("certify", "repro.certify.api", "build_certificate", KEEP),
    ("certify", "repro.certify.api", "check_certificate", KEEP),
    ("certify", "repro.certify.artifact", "encode_state", FOLD),
    ("certify", "repro.certify.artifact", "save_certificate", KEEP),
    ("certify", "repro.certify.artifact", "load_certificate", KEEP),
    ("certify", "repro.certify.artifact", "decode_blob", FOLD),
    ("certify", "repro.certify.artifact", "payload_digest", KEEP),
    ("certify", "repro.certify.walker", "CertWalker.walk", KEEP),
]

#: AnalysisResult counters captured from each analyze_program call.
RESULT_COUNTERS = (
    "stmts_executed", "stmts_skipped", "widening_iterations",
    "lattice_memo_hits", "lattice_memo_misses", "vector_batches",
    "vector_cells", "vector_scalar_fallbacks", "octagon_pack_count",
    "bool_pack_count", "filter_site_count",
)


class Recorder:
    """Spans and folded totals of one process."""

    def __init__(self):
        self.started = time.perf_counter()
        self.spans = []    # [name, start, end, parent span index or -1]
        self.folded = {}   # (name, kept ancestor index) -> [calls, self s]
        self.results = []  # counters of each analyze_program call
        self._local = threading.local()

    def wrap(self, name, fn, keep):
        spans, folded, local = self.spans, self.folded, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # frame: [time covered by children, nearest kept span index]
            ancestor = stack[-1][1] if stack else -1
            frame = [0.0, ancestor]
            if keep:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, ancestor])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if keep:
                    span = spans[frame[1]]
                    span[1], span[2] = start, end
                    span.append(duration - frame[0])
                else:
                    total = folded.get((name, ancestor))
                    if total is None:
                        total = folded[(name, ancestor)] = [0, 0.0]
                    total[0] += 1
                    total[1] += duration - frame[0]
        return wrapper

    def capture_results(self, fn):
        results = self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append({k: getattr(result, k) for k in RESULT_COUNTERS})
            return result
        return wrapper

    def dump(self, path):
        from repro.domains.octagon import Octagon, closure_memo_stats

        hits, _size, _evictions = closure_memo_stats()
        data = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "started": self.started,
            "spans": self.spans,
            "folded": [[name, ancestor, calls, self_s] for
                       (name, ancestor), (calls, self_s)
                       in self.folded.items()],
            "results": self.results,
            "closure_memo": {"hits": hits,
                             "computations": Octagon.closure_computations},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)


def _resolve(module, qualname):
    owner = importlib.import_module(module)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(out_dir):
    """Wrap every target in this process; write the trace file to
    ``out_dir`` at exit.  Returns the recorder."""
    rec = Recorder()
    # Import every defining module first, so the by-name re-binding
    # below also reaches modules that imported a target before it was
    # wrapped.
    resolved = [(name, keep, *_resolve(module, name))
                for _layer, module, name, keep in TARGETS]
    replaced = {}
    for name, keep, owner, attr in resolved:
        original = owner.__dict__[attr]
        is_static = isinstance(original, staticmethod)
        fn = original.__func__ if is_static else original
        wrapped = rec.wrap(name, fn, keep)
        if name == "analyze_program":
            wrapped = rec.capture_results(wrapped)
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        if not isinstance(owner, type):
            replaced[id(fn)] = (fn, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    atexit.register(rec.dump, os.path.join(out_dir, f"{os.getpid()}.json"))
    return rec


def install_from_env():
    out_dir = os.environ.get(ENV_DIR)
    if out_dir:
        install(out_dir)


def load_process_files(out_dir):
    """Every per-process trace file written into ``out_dir``."""
    out = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as f:
                out.append(json.load(f))
    return out
