"""The ledger's four workloads and the pass that runs them.

Every input comes from the benchmark seed; the analyzer only receives
generated C files, input ranges and serve requests, always with its
default configuration plus any ``--analyzer-arg`` passthrough.  One
closed-loop client runs one job at a time.

The structure of every program is pinned to the family seed 2003; the
benchmark seed picks a *version* of each ladder and mix program (seeded
one-constant edits, as successive versions of one program differ) and
which edits the edit loop repeats, whose base and edits are pinned.
With the structure itself drawn from the benchmark seed,
the cost of the 2 kLOC rung varied from 3.4 s to 5.8 s over seeds 1-10,
far beyond the regression bounds; versions keep the work of a run the
same while its inputs still change with the seed.

A workload yields an endless, seeded sequence of specs.  An untimed run
executes specs until the next one is predicted (from the median of the
earlier specs with the same key) to overrun the ``--seconds`` window,
and always completes at least one pass, so every rung or mix is
measured.  A traced run executes exactly one pass untraced and the same
pass traced, so per-layer totals are comparable between commits.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import statistics
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import procs
from .metrics import (best_by_key, kloc_per_s, layer_metrics, merge_trace,
                      ratio, scaling_exponent)
from .trace import load_process_files

__all__ = ["Sizes", "TINY", "WORKLOADS", "run_workload"]

MIB = 1024.0

#: Seed of the program family's structure (as in the Fig. 2 benchmarks).
FAMILY_SEED = 2003

#: Constant edits that make one version of a program.
VERSION_EDITS = 4


def safe_edit(source, rng):
    """``make_variant`` with the next edit seed from ``rng`` that leaves
    filter coefficients alone.  Editing a second-order filter's or a lag's
    coefficient can make it diverge, and the analyzer then rightly reports
    an overflow; every other one-constant edit keeps the family alarm-free.
    Returns (edit seed, edited source)."""
    from repro.serve.workload import make_variant

    while True:
        edit_seed = rng.randrange(1, 2 ** 31)
        variant = make_variant(source, edit_seed)
        at = len(os.path.commonprefix([source, variant]))
        line = source[source.rfind("\n", 0, at) + 1:source.find("\n", at)]
        if "_Xp =" not in line and "_S =" not in line:
            return edit_seed, variant


@dataclass(frozen=True)
class Sizes:
    """Program sizes and pass lengths of the workloads."""

    ladder_kloc: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    cert_kloc: Tuple[float, ...] = (0.125, 0.25, 0.5)
    mix_kloc: float = 0.5
    mixes: int = 12
    edit_base_kloc: float = 1.0
    edits_per_pass: int = 12
    setup_runs: int = 5
    references: int = 3


#: The smoke-test scale: 0.125 kLOC ladders, 2 mixes, 3 edits.
TINY = Sizes(ladder_kloc=(0.0625, 0.125), cert_kloc=(0.0625, 0.125),
             mix_kloc=0.125, mixes=2, edit_base_kloc=0.125,
             edits_per_pass=3, setup_runs=2, references=1)


@dataclass
class Program:
    """A generated C program with the environment needed to analyze it."""

    label: str
    source: str
    ranges: Dict[str, Tuple[float, float]]
    max_clock: int
    lines: int

    @classmethod
    def generated(cls, label, gp):
        return cls(label, gp.source, dict(gp.input_ranges), gp.max_clock,
                   gp.loc)

    @classmethod
    def version(cls, label, gp, seed):
        """The seed's version of a generated program."""
        program = cls.generated(label, gp)
        rng = random.Random(f"{seed}:{label}")
        for _ in range(VERSION_EDITS):
            program.source = safe_edit(program.source, rng)[1]
        return program

    def cli_args(self, path):
        args = [path, "--max-clock", str(self.max_clock)]
        for name, (lo, hi) in sorted(self.ranges.items()):
            args += ["--input-range", f"{name}={lo!r}:{hi!r}"]
        return args

    def serve_config(self):
        return {"input_ranges": {k: list(v) for k, v in self.ranges.items()},
                "max_clock": self.max_clock}


@dataclass
class Job:
    """One timed request, measured from the caller's side."""

    label: str
    kind: str
    key: str
    lines: int
    start: float
    end: float
    rss_kib: int = 0
    alarms: int = 0
    error: str = ""
    data: dict = field(default_factory=dict)

    @property
    def wall(self):
        return self.end - self.start

    def summary(self):
        out = {"label": self.label, "kind": self.kind, "key": self.key,
               "lines": self.lines, "wall_s": self.wall,
               "alarms": self.alarms}
        if self.rss_kib:
            out["rss_kib"] = self.rss_kib
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class Check:
    """One correctness-gate check beyond the per-job verdict checks."""

    name: str
    error: str = ""


@dataclass
class Spec:
    key: str
    payload: object


def oracle_error(program, case_seed):
    """Untimed in-process re-analysis with invariants collected, judged
    by the concrete containment oracle (3 streams x 48 ticks)."""
    from repro.analysis import analyze
    from repro.config import AnalyzerConfig
    from repro.fuzz.oracle import run_oracle

    cfg = AnalyzerConfig(input_ranges=dict(program.ranges),
                         max_clock=program.max_clock,
                         collect_invariants=True)
    result = analyze(program.source, "ledger.c", config=cfg)
    if result.alarm_count:
        return f"{result.alarm_count} alarm(s) on re-analysis"
    report = run_oracle(result.ctx.prog, result, program.ranges, case_seed,
                        streams=3, max_ticks=48)
    if not report.sound:
        return (f"{len(report.violations)} containment violation(s), "
                f"uncovered error kinds {report.uncovered_error_kinds}")
    if report.values_checked == 0:
        return "the oracle checked no values"
    return ""


def guarded(name, check):
    """Run one gate check; an exception is a failed check, not a crash."""
    try:
        return Check(name, check())
    except Exception as exc:  # noqa: BLE001 — a gate reports, never dies
        traceback.print_exc()
        return Check(name, f"{type(exc).__name__}: {exc}")


class Workload:
    """Base of the four workloads: seeded specs, how to run one, gates
    and end-to-end metrics."""

    name = ""
    why = ""

    def __init__(self, seed, sizes, workdir, analyzer_args=()):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.analyzer_args = list(analyzer_args)
        self._paths = {}

    # -- overridden by workloads -------------------------------------------

    pass_len = 1

    def specs(self):
        raise NotImplementedError

    def run_spec(self, spec, env) -> List[Job]:
        raise NotImplementedError

    def gates(self, jobs) -> List[Check]:
        return []

    def end_to_end(self, jobs, info) -> dict:
        raise NotImplementedError

    def layer_extras(self, jobs, info) -> dict:
        return {}

    def open(self, env, traced):
        pass

    def close(self) -> dict:
        return {}

    def measure_setup(self, env):
        return procs.cli_setup_s(env, self.workdir, self.sizes.setup_runs)

    # -- CLI jobs ------------------------------------------------------------

    def source_path(self, program):
        """The program's C file, written once, relative to the root."""
        path = self._paths.get(program.label)
        if path is None:
            full = os.path.join(self.workdir, f"p{len(self._paths)}.c")
            with open(full, "w", encoding="utf-8") as f:
                f.write(program.source)
            path = self._paths[program.label] = os.path.relpath(
                full, procs.ROOT)
        return path

    def analyze_job(self, program, env, key, kind="analyze", extra=()):
        run = procs.run_cli(
            ["analyze"] + program.cli_args(self.source_path(program))
            + ["--json", "--stats"] + list(extra) + self.analyzer_args,
            env, self.workdir)
        job = Job(program.label, kind, key, program.lines, run.start,
                  run.end, run.rss_kib, error=run.failure())
        if not job.error:
            try:
                job.data = json.loads(run.stdout)
            except ValueError:
                job.error = f"exit {run.code} without a --json verdict"
                return job
            job.alarms = job.data["alarm_count"]
            if run.code != 0 or job.alarms:
                job.error = f"exit {run.code} with {job.alarms} alarm(s)"
        return job

    @staticmethod
    def peak_rss_mib(jobs):
        return max(j.rss_kib for j in jobs) / MIB


class Ladder(Workload):
    """The seed's versions of the family at doubling sizes (``rungs``,
    smallest first), run largest first so that a window's spare seconds
    go to the top rung."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.synth import FamilySpec, generate_program

        self.rungs = [Program.version(f"{k:g} kLOC", generate_program(
            FamilySpec(target_kloc=k, seed=FAMILY_SEED)), self.seed)
            for k in self.rung_kloc()]
        self.pass_len = len(self.rungs)

    def rung_kloc(self):
        raise NotImplementedError

    def specs(self):
        return (Spec(p.label, p) for p in itertools.cycle(self.rungs[::-1]))

    def ladder_metrics(self, best):
        """Metrics of the ladder from the per-rung best walls."""
        ladder_s = sum(best[p.label] for p in self.rungs)
        return {
            "verdict_s": best[self.rungs[-1].label],
            "kloc_per_s": sum(p.lines for p in self.rungs) / 1000.0 / ladder_s,
            "ladder_s": ladder_s,
            "scaling_exponent": scaling_exponent(
                [p.lines for p in self.rungs],
                [best[p.label] for p in self.rungs]),
        }


class Fig2Ladder(Ladder):
    name = "fig2-ladder"
    why = ("The Fig. 2 scaling experiment: cold analyze runs of one family "
           "at doubling sizes, so superlinear costs show in the top rung.")

    def rung_kloc(self):
        return self.sizes.ladder_kloc

    def run_spec(self, spec, env):
        return [self.analyze_job(spec.payload, env, spec.key)]

    def gates(self, jobs):
        # Not the top rung: its re-analysis alone would take a fifth of
        # the window.
        return [guarded(f"oracle {p.label}",
                        lambda p=p: oracle_error(p, self.seed))
                for p in self.rungs[:-1]]

    def end_to_end(self, jobs, info):
        return {**self.ladder_metrics(best_by_key(jobs)),
                "peak_rss_mib": self.peak_rss_mib(jobs)}


#: Block types of the generator grouped by the domain they stress.
MIX_GROUPS = {
    "filters": ("SecondOrderFilter", "FirstOrderLag", "PIController"),
    "rate-limiters": ("RateLimiter", "DeltaIndexer", "Saturator"),
    "booleans": ("SwitchedDivider", "Hysteresis", "BooleanCombiner",
                 "ModeSelector"),
    "counters": ("EventCounter", "Accumulator", "Debouncer",
                 "InterpolationTable"),
}


class MixSweep(Workload):
    name = "mix-sweep"
    why = ("Cold analyze runs of programs with seeded block mixes, each "
           "heavy on one domain, so a gain or blow-up in one domain shows.")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.synth import ALL_BLOCK_TYPES, FamilySpec, generate_program

        # The pool takes the groups in turn; each program has its own
        # random weight vector, heavy on its group.
        rng = random.Random(f"{FAMILY_SEED}:mixes")
        types = [t.__name__ for t in ALL_BLOCK_TYPES]
        groups = list(MIX_GROUPS)
        self.pool = []
        for n in range(self.sizes.mixes):
            group = groups[n % len(groups)]
            heavy = rng.uniform(4.0, 8.0)
            weights = [rng.uniform(0.25, 1.0)
                       * (heavy if t in MIX_GROUPS[group] else 1.0)
                       for t in types]
            gp = generate_program(FamilySpec(
                target_kloc=self.sizes.mix_kloc,
                seed=rng.randrange(2 ** 31), weights=weights))
            self.pool.append(Program.version(f"mix {n} ({group})", gp,
                                             self.seed))
        self.pass_len = len(self.pool)

    def specs(self):
        return (Spec(p.label, p) for p in itertools.cycle(self.pool))

    def run_spec(self, spec, env):
        return [self.analyze_job(spec.payload, env, spec.key)]

    def gates(self, jobs):
        # The oracle re-analyzes the first program of each group: one
        # run's budget cannot pay for a second analysis of every program.
        return [guarded(f"oracle {p.label}",
                        lambda p=p: oracle_error(p, self.seed))
                for p in self.pool[:len(MIX_GROUPS)]]

    def end_to_end(self, jobs, info):
        # Per-program best walls first, so a run that fits one more
        # program in its window does not shift the mix the metrics describe.
        best = best_by_key(jobs)
        return {
            "verdict_s": statistics.median(best.values()),
            "kloc_per_s": (sum(p.lines for p in self.pool) / 1000.0
                           / sum(best.values())),
            "peak_rss_mib": self.peak_rss_mib(jobs),
        }


class Certified(Ladder):
    name = "certified"
    why = ("The qualification flow: analyze --emit-certificate, then "
           "check-certificate, each a fresh process, at doubling sizes.")

    def rung_kloc(self):
        return self.sizes.cert_kloc

    def run_spec(self, spec, env):
        program = spec.payload
        cert = os.path.relpath(os.path.join(
            self.workdir, f"cert{self.rungs.index(program)}.json"),
            procs.ROOT)
        emit = self.analyze_job(program, env, spec.key, kind="emit",
                                extra=["--emit-certificate", cert])
        run = procs.run_cli(["check-certificate", cert, "--json"], env,
                            self.workdir)
        check = Job(program.label, "check", spec.key, program.lines,
                    run.start, run.end, run.rss_kib, error=run.failure())
        if emit.error:
            check.error = check.error or "no certificate to check"
            return [emit, check]
        emit.data["certificate_bytes"] = os.path.getsize(cert)
        if not check.error:
            check.data = json.loads(run.stdout)
            check.alarms = check.data["claimed_alarms"]
            records = emit.data["certification"]["stmt_records"]
            if not check.data["valid"] or run.code != emit.data["exit_code"]:
                check.error = (f"checker exit {run.code} against analyze "
                               f"exit {emit.data['exit_code']}")
            elif check.data["stmts_checked"] != records:
                check.error = (f"checked {check.data['stmts_checked']} of "
                               f"{records} statement records")
            elif check.alarms != emit.alarms:
                check.error = (f"certificate claims {check.alarms} alarm(s), "
                               f"analyze found {emit.alarms}")
        return [emit, check]

    def end_to_end(self, jobs, info):
        emits = [j for j in jobs if j.kind == "emit"]
        checks = [j for j in jobs if j.kind == "check"]
        # One unit of work is a checked verdict: emit, then check.
        units = [Job(e.label, "unit", e.key, e.lines, e.start, c.end)
                 for e, c in zip(emits, checks)]
        return {**self.ladder_metrics(best_by_key(units)),
                "peak_rss_mib": self.peak_rss_mib(jobs),
                "check_s": sum(best_by_key(checks).values())}

    def layer_extras(self, jobs, info):
        last = {j.label: j.data for j in jobs
                if j.kind == "emit" and not j.error}
        return {
            "certify.artifact_mib": sum(
                d["certificate_bytes"] for d in last.values()) / MIB / MIB,
            "certify.stmt_records": sum(
                d["certification"]["stmt_records"] for d in last.values()),
        }


class EditLoop(Workload):
    name = "edit-loop"
    why = ("One serve daemon and one client: a cold base, then one-constant "
           "edits with exact repeats interleaved, as successive versions.")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.serve.workload import base_program

        self.base = Program.generated("cold base", base_program(
            kloc=self.sizes.edit_base_kloc, seed=FAMILY_SEED))
        edits = self.sizes.edits_per_pass
        self.pass_len = 1 + edits + edits // 3
        self.daemon = None
        self.digests = {}

    def specs(self):
        # The base and its edits are pinned; the seed picks the repeats.
        # Which edits run on which version decides how many journal
        # records replay and which results the daemon certifies (one in
        # eight, by source digest): seeded edits on seeded versions spread
        # the edit stream's throughput by 28% between quartiles over
        # seeds 1-10.
        edits = random.Random(f"{FAMILY_SEED}:edits")
        repeats = random.Random(f"{self.seed}:repeats")
        yield Spec("cold", ("cold base", self.base.source))
        seen = {self.base.source}
        distinct = []
        while True:
            edit_seed, source = safe_edit(self.base.source, edits)
            if source in seen:
                continue
            seen.add(source)
            distinct.append((f"edit {edit_seed}", source))
            yield Spec("edit", distinct[-1])
            # 8 exact repeats per 24 distinct edits, interleaved.
            if len(distinct) % 3 == 0:
                label, source = repeats.choice(distinct)
                yield Spec("repeat", (f"repeat of {label}", source))

    def measure_setup(self, env):
        boots = []
        for n in range(self.sizes.setup_runs):
            daemon = procs.Daemon(self.workdir, f"setup{n}", env,
                                  self.analyzer_args)
            boots.append(daemon.setup_s)
            daemon.close()
        return statistics.median(boots)

    def open(self, env, traced):
        self.digests = {}
        self.daemon = procs.Daemon(
            self.workdir, "traced" if traced else "loop", env,
            self.analyzer_args, warm=not traced)

    def close(self):
        try:
            return {"rss_kib": self.daemon.vmhwm_kib(),
                    "stats": self.daemon.client.stats()["stats"]}
        finally:
            self.daemon.close()

    def submit(self, client, source, **kwargs):
        return client.submit([("fam.c", source)],
                             config=self.base.serve_config(), **kwargs)

    def run_spec(self, spec, env):
        label, source = spec.payload
        start = time.perf_counter()
        reply = self.submit(self.daemon.client, source)
        end = time.perf_counter()
        job = Job(label, "submit", spec.key, self.base.lines, start, end)
        if not reply.get("ok"):
            job.error = f"submit failed: {reply.get('error')}"
            return [job]
        result = reply["result"]
        job.alarms = result["alarm_count"]
        job.data = {"source": source,
                    "digest": reply["digest"], "cached": reply["cached"],
                    "wall_s": reply["wall_s"],
                    "cross_run_hits": result["cross_run_hits"],
                    "cross_run_seeded": result["cross_run_seeded"]}
        first = self.digests.setdefault(source, reply["digest"])
        if job.alarms or result["exit_code"] != 0:
            job.error = (f"exit {result['exit_code']} with {job.alarms} "
                         f"alarm(s)")
        elif reply["cached"] != (spec.key == "repeat"):
            job.error = f"cached={reply['cached']} on a {spec.key} submit"
        elif reply["digest"] != first:
            job.error = "repeat digest differs from the first submit"
        return [job]

    def gates(self, jobs):
        # Every 4th distinct edit against a bypass_cache run on a second,
        # fresh daemon, after the timed loop so its journals are intact.
        edits = [j for j in jobs if j.key == "edit" and not j.error]
        chosen = (edits[3::4] or edits[-1:])[:self.sizes.references]
        daemon = procs.Daemon(self.workdir, "reference", procs.child_env(),
                              self.analyzer_args)
        try:
            def same_digest(job):
                reply = self.submit(daemon.client, job.data["source"],
                                    bypass_cache=True)
                if not reply.get("ok"):
                    return f"reference failed: {reply.get('error')}"
                if reply["digest"] != job.data["digest"]:
                    return "digest differs from the bypass_cache reference"
                return ""
            return [guarded(f"reference {j.label}",
                            lambda j=j: same_digest(j)) for j in chosen]
        finally:
            daemon.close()

    def end_to_end(self, jobs, info):
        return {
            "verdict_s": statistics.median(
                j.wall for j in jobs if j.key == "edit"),
            # The edit stream after the cold base: edits and repeats.
            "kloc_per_s": kloc_per_s([j for j in jobs if j.key != "cold"]),
            "peak_rss_mib": info["rss_kib"] / MIB,
            "cold_s": next(j.wall for j in jobs if j.key == "cold"),
        }

    def layer_extras(self, jobs, info):
        stats = info["stats"]
        jobs = [j for j in jobs if j.data]
        edits = [j for j in jobs if j.key == "edit"]
        repeats = [j.wall for j in jobs if j.key == "repeat"]
        fcache = stats["frontend_cache"]
        return {
            "serve.server_s": sum(j.data["wall_s"] for j in jobs),
            "serve.transport_s": sum(j.wall - j.data["wall_s"] for j in jobs),
            "serve.store_hit_ms": (1000.0 * statistics.median(repeats)
                                   if repeats else 0.0),
            "serve.journal_hit_ratio": ratio(
                sum(j.data["cross_run_hits"] for j in edits),
                sum(j.data["cross_run_seeded"] for j in edits)),
            "serve.warm_share": ratio(
                sum(1 for j in edits if j.data["cross_run_hits"] > 0),
                len(edits)),
            "serve.frontend_cache_hit_ratio": ratio(
                fcache["hits"], fcache["hits"] + fcache["misses"]),
            "serve.worker_restarts": stats["worker"]["restarts"],
            "serve.certified": stats["certify"]["certified"],
            "serve.certify_rejected": stats["certify"]["rejections"],
        }


WORKLOADS = {cls.name: cls for cls in
             (Fig2Ladder, MixSweep, EditLoop, Certified)}


class Window:
    """The ``--seconds`` measuring window of an untraced run."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def fits(self, predicted_s):
        return (time.perf_counter() - self.start + predicted_s
                <= self.seconds)


def run_pass(wl, env, traced, window=None, count=None):
    """Run specs in order: exactly ``count``, or at least one pass and
    then while the window has room.  Returns (jobs, specs run, info)."""
    jobs = []
    walls = defaultdict(list)
    n = 0
    wl.open(env, traced)
    try:
        for spec in wl.specs():
            if count is not None:
                if n >= count:
                    break
            elif n >= wl.pass_len:
                seen = walls[spec.key]
                if not window.fits(statistics.median(seen) if seen else 0):
                    break
            done = wl.run_spec(spec, env)
            jobs.extend(done)
            walls[spec.key].append(sum(j.wall for j in done))
            n += 1
    finally:
        info = wl.close()
    return jobs, n, info


def run_workload(name, seed, seconds, trace=False, sizes=Sizes(),
                 analyzer_args=(), workroot=None):
    """Run one workload; returns its report (a JSON-safe dict) and, for a
    traced run, the merged trace."""
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workroot)
    try:
        wl = WORKLOADS[name](seed, sizes, workdir, analyzer_args)
        env = procs.child_env()
        report = {"workload": name, "seed": seed, "trace": bool(trace),
                  "analyzer_args": list(analyzer_args)}
        merged = None
        if trace:
            jobs, n, info = run_pass(wl, env, False, count=wl.pass_len)
            trace_dir = os.path.join(workdir, "trace")
            os.mkdir(trace_dir)
            traced, _, _ = run_pass(wl, procs.child_env(trace_dir), True,
                                    count=n)
            tables, merged = merge_trace(load_process_files(trace_dir),
                                         traced)
            layers = layer_metrics(tables, procs.import_s(env, workdir))
            layers.update(wl.layer_extras(jobs, info))
            untraced_s = sum(j.wall for j in jobs)
            traced_s = sum(j.wall for j in traced)
            report["per_layer"] = layers
            report["overhead"] = {
                "untraced_s": untraced_s, "traced_s": traced_s,
                "overhead_s": traced_s - untraced_s,
                "overhead_ratio": traced_s / untraced_s - 1.0,
                "self_s_total": sum(tables["self_s"].values()),
                "calls": tables["calls"],
                "self_s": tables["self_s"],
            }
            all_jobs = jobs + traced
        else:
            report["seconds"] = seconds
            setup_s = wl.measure_setup(env)
            window = Window(seconds)
            jobs, n, info = run_pass(wl, env, False, window=window)
            report["measured_s"] = time.perf_counter() - window.start
            report["end_to_end"] = {"setup_s": setup_s,
                                    **wl.end_to_end(jobs, info)}
            all_jobs = jobs
        checks = wl.gates(jobs)
        attempted = len(all_jobs) + len(checks)
        failed = (sum(1 for j in all_jobs if j.error)
                  + sum(1 for c in checks if c.error))
        alarms = sum(j.alarms for j in all_jobs)
        report.update({
            "specs": n,
            "attempted": attempted,
            "failed": failed,
            "alarms": alarms,
            "failed_ratio": failed / attempted,
            "correct": failed == 0 and alarms == 0,
            "jobs": [j.summary() for j in all_jobs],
            "checks": [{"name": c.name, "error": c.error} for c in checks],
        })
        if "end_to_end" in report:
            report["end_to_end"].update(
                alarms=alarms, failed_ratio=failed / attempted)
        return report, merged
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
