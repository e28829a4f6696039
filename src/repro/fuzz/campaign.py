"""Campaign orchestration: generate, execute, triage, reduce, persist.

A campaign is fully determined by its configuration — above all the
``campaign_seed``, from which every case spec, every mutation draw and
every oracle input stream is derived (:func:`repro.concrete.derive_seed`).
The per-case *verdict digest* hashes only deterministic fields, so
replaying a persisted corpus case yields a bit-identical digest; wall
times and retry counts live outside the digest.

Failing cases (crash / unsound / timeout) are persisted as JSON specs in
the corpus directory, one signature bucket gets one delta-debugging
reduction, and everything is folded into a machine-readable
:class:`CampaignReport` for CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..concrete.interpreter import derive_seed
from ..errors import ReproError
from ..supervisor.budget import ResourceBudget
from .case import BLOCK_TYPE_NAMES, CaseSpec, case_size
from .mutators import MUTATION_KINDS
from .reduce import ReductionResult, reduce_case
from .runner import CaseOutcome, InProcessRunner, SubprocessRunner
from .triage import triage_failures

__all__ = [
    "CampaignConfig", "CampaignReport", "CaseResult", "generate_case_specs",
    "load_case", "replay_case", "run_campaign", "save_case",
    "verdict_digest",
]

#: Outcomes that mean the soundness claim (or the analyzer) broke.
FAILURE_OUTCOMES = ("crash", "unsound")


@dataclass
class CampaignConfig:
    """Everything a campaign run depends on."""

    campaign_seed: int = 0
    cases: int = 50
    # Budgets: campaign wall clock and per-case subprocess timeout.
    max_wall_s: Optional[float] = None
    case_timeout_s: Optional[float] = 120.0
    # Isolation: subprocess-per-case (default) or in-process.
    isolation: bool = True
    infra_retries: int = 2
    backoff_s: float = 0.5
    # Corpus persistence (failing specs + reductions); None disables.
    corpus_dir: Optional[str] = None
    # Reduction of one representative case per failure signature.
    reduce_failures: bool = True
    max_reduce_attempts: int = 60
    # Generation knobs.
    min_kloc: float = 0.06
    max_kloc: float = 0.2
    max_mutations: int = 3
    streams: int = 3
    max_ticks: int = 48
    # Fault-injection hook, stamped onto every generated spec (see
    # CaseSpec.inject_crash); validates the triage/reduce pipeline.
    inject_crash: Optional[str] = None

    def to_json(self) -> Dict:
        return {
            "campaign_seed": self.campaign_seed,
            "cases": self.cases,
            "max_wall_s": self.max_wall_s,
            "case_timeout_s": self.case_timeout_s,
            "isolation": self.isolation,
            "min_kloc": self.min_kloc,
            "max_kloc": self.max_kloc,
            "max_mutations": self.max_mutations,
            "streams": self.streams,
            "max_ticks": self.max_ticks,
            "inject_crash": self.inject_crash,
        }


@dataclass
class CaseResult:
    """One case's classified outcome plus its replay digest."""

    spec: CaseSpec
    outcome: str
    signature: Optional[str] = None
    digest: str = ""
    payload: Optional[Dict] = None
    stderr_tail: str = ""
    attempts: int = 1
    infra_retries: int = 0
    wall_time_s: float = 0.0

    def to_json(self, full: bool = False) -> Dict:
        out = {
            "case_id": self.spec.case_id,
            "outcome": self.outcome,
            "signature": self.signature,
            "digest": self.digest,
            "attempts": self.attempts,
            "infra_retries": self.infra_retries,
            "wall_time_s": round(self.wall_time_s, 3),
            "case_size": case_size(self.spec),
        }
        if full:
            out["spec"] = self.spec.to_json()
            out["payload"] = self.payload
            out["stderr_tail"] = self.stderr_tail
        return out


def verdict_digest(spec: CaseSpec, outcome: str,
                   signature: Optional[str],
                   payload: Optional[Dict]) -> str:
    """SHA-256 over the deterministic verdict of one case.

    Covers the spec and the classified outcome (payload included for
    verdicts, triage signature for failures); excludes wall time, RSS,
    retry counts and stderr text, so replays are bit-identical.
    """
    blob = json.dumps({
        "spec": spec.to_json(),
        "outcome": outcome,
        "signature": signature,
        "payload": payload,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CampaignReport:
    """The machine-readable result of a whole campaign (CI consumes the
    JSON form; ``repro.report`` renders the human-readable summary)."""

    config: CampaignConfig
    results: List[CaseResult]
    reductions: List[ReductionResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    stopped_reason: Optional[str] = None
    cases_planned: int = 0

    @property
    def outcome_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for res in self.results:
            out[res.outcome] = out.get(res.outcome, 0) + 1
        return dict(sorted(out.items()))

    @property
    def triage(self) -> Dict[str, List[str]]:
        return triage_failures(self.results)

    @property
    def ok(self) -> bool:
        """No soundness violation and no analyzer crash (the CI gate;
        timeouts and degradations are reported but not failures)."""
        counts = self.outcome_counts
        return all(counts.get(k, 0) == 0 for k in FAILURE_OUTCOMES)

    def to_json(self) -> Dict:
        failing = [r for r in self.results if r.outcome in
                   ("crash", "unsound", "timeout")]
        return {
            "config": self.config.to_json(),
            "cases_planned": self.cases_planned,
            "cases_run": len(self.results),
            "outcome_counts": self.outcome_counts,
            "ok": self.ok,
            "stopped_reason": self.stopped_reason,
            "wall_time_s": round(self.wall_time_s, 3),
            "triage": self.triage,
            "results": [r.to_json() for r in self.results],
            "failures": [r.to_json(full=True) for r in failing],
            "reductions": [r.to_json() for r in self.reductions],
        }


def _spec_rng(campaign_seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(campaign_seed, "genspec", index))


def _random_mutations(rng: random.Random, max_mutations: int) -> List[Dict]:
    kinds = sorted(MUTATION_KINDS)
    out: List[Dict] = []
    for _ in range(rng.randint(0, max_mutations)):
        kind = rng.choice(kinds)
        desc: Dict = {"kind": kind}
        if kind == "boundary-constants":
            desc["count"] = rng.randint(1, 3)
        elif kind == "adversarial-ranges":
            desc["count"] = rng.randint(1, 2)
        elif kind == "deep-nesting":
            desc["depth"] = rng.choice([2, 4, 8, 16, 32])
        elif kind == "degenerate-filter":
            desc["variant"] = rng.randrange(6)
        out.append(desc)
    return out


def generate_case_specs(config: CampaignConfig) -> List[CaseSpec]:
    """The campaign's case list — a pure function of the config."""
    specs: List[CaseSpec] = []
    for index in range(config.cases):
        rng = _spec_rng(config.campaign_seed, index)
        kloc = round(rng.uniform(config.min_kloc, config.max_kloc), 3)
        block_types = None
        if rng.random() < 0.3:
            k = rng.randint(3, len(BLOCK_TYPE_NAMES))
            block_types = sorted(rng.sample(BLOCK_TYPE_NAMES, k))
        specs.append(CaseSpec(
            case_id=f"c{config.campaign_seed:016x}-{index:04d}",
            campaign_seed=config.campaign_seed,
            index=index,
            target_kloc=kloc,
            family_seed=derive_seed(config.campaign_seed, "family", index),
            version=rng.randrange(3),
            modules_per_function=rng.choice([1, 2, 4, 8]),
            block_types=block_types,
            mutations=_random_mutations(rng, config.max_mutations),
            streams=config.streams,
            max_ticks=config.max_ticks,
            inject_crash=config.inject_crash,
        ))
    return specs


def save_case(spec: CaseSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(spec.to_json(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_case(path: str) -> CaseSpec:
    """Load a corpus case; unreadable or corrupt files are diagnosed
    (with the path) as :class:`ReproError` — CLI exit code 3."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ReproError(f"cannot read case file {path}: "
                         f"{exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ReproError(f"corrupt case file {path}: {exc}") from exc
    try:
        return CaseSpec.from_json(data)
    except (TypeError, ValueError) as exc:
        raise ReproError(f"corrupt case file {path}: {exc}") from exc


def _make_runner(config: CampaignConfig):
    if config.isolation:
        return SubprocessRunner(timeout_s=config.case_timeout_s,
                                infra_retries=config.infra_retries,
                                backoff_s=config.backoff_s)
    return InProcessRunner()


def _classify(spec: CaseSpec, outcome: CaseOutcome) -> CaseResult:
    signature = outcome.signature
    if outcome.outcome == "unsound" and signature is None:
        oracle = (outcome.payload or {}).get("oracle", {})
        uncovered = ",".join(oracle.get("uncovered_error_kinds", []))
        escaped = ",".join(sorted({v["name"] for v in
                                   oracle.get("violations", [])}))
        signature = f"unsound|uncovered:{uncovered}|escaped:{escaped}"
    return CaseResult(
        spec=spec, outcome=outcome.outcome, signature=signature,
        digest=verdict_digest(spec, outcome.outcome, signature,
                              outcome.payload),
        payload=outcome.payload, stderr_tail=outcome.stderr_tail,
        attempts=outcome.attempts, infra_retries=outcome.infra_retries,
        wall_time_s=outcome.wall_time_s)


def replay_case(spec_or_path: Union[CaseSpec, str],
                isolation: bool = True,
                case_timeout_s: Optional[float] = 120.0) -> CaseResult:
    """Re-execute one corpus case; the digest of an identical spec under
    an identical code base is bit-identical to the campaign's."""
    spec = (load_case(spec_or_path) if isinstance(spec_or_path, str)
            else spec_or_path)
    runner = (SubprocessRunner(timeout_s=case_timeout_s) if isolation
              else InProcessRunner())
    return _classify(spec, runner.run_spec(spec))


def _persist_corpus(report: CampaignReport) -> None:
    corpus_dir = report.config.corpus_dir
    if corpus_dir is None:
        return
    os.makedirs(corpus_dir, exist_ok=True)
    for res in report.results:
        if res.outcome in ("crash", "unsound", "timeout"):
            save_case(res.spec,
                      os.path.join(corpus_dir, f"{res.spec.case_id}.json"))
    for red in report.reductions:
        save_case(red.reduced, os.path.join(
            corpus_dir, f"{red.original.case_id}.reduced.json"))


def run_campaign(config: CampaignConfig,
                 progress: Optional[Callable[[CaseResult], None]] = None,
                 ) -> CampaignReport:
    """Run a whole campaign under the configured budgets."""
    specs = generate_case_specs(config)
    runner = _make_runner(config)
    budget = ResourceBudget(wall_deadline_s=config.max_wall_s)
    started = time.perf_counter()
    report = CampaignReport(config=config, results=[],
                            cases_planned=len(specs))
    for spec in specs:
        if budget.check(started) is not None:
            report.stopped_reason = "wall-budget"
            break
        result = _classify(spec, runner.run_spec(spec))
        report.results.append(result)
        if progress is not None:
            progress(result)
    if config.reduce_failures:
        reduced_signatures = set()
        for res in report.results:
            if res.outcome not in FAILURE_OUTCOMES:
                continue
            if res.signature in reduced_signatures:
                continue
            reduced_signatures.add(res.signature)
            report.reductions.append(reduce_case(
                res.spec, max_attempts=config.max_reduce_attempts))
    _persist_corpus(report)
    report.wall_time_s = time.perf_counter() - started
    return report
