"""Soundness fuzzing campaign engine (randomized differential testing).

The paper's central claim is soundness: every behaviour of the analyzed
program is covered by the analyzer's invariants and alarms.  This package
continuously manufactures adversarial evidence for that claim.  It

* mutates :mod:`repro.synth` block-diagram specs and the generated
  programs into edge-case variants (:mod:`.mutators`),
* runs every case in an isolated worker process with a per-case timeout
  and retry/backoff on infrastructure failures (:mod:`.runner`, over
  :mod:`repro.ipc.process`),
* checks each case against the differential soundness oracle — concrete
  executions must stay inside the abstract invariants and every concrete
  run-time error must be covered by an alarm (:mod:`.oracle`),
* triages failures by signature (:mod:`.triage`), minimizes them
  with a spec-level delta-debugging reducer (:mod:`.reduce`), and
* persists a replayable corpus plus a JSON campaign report
  (:mod:`.campaign`); ``astree-repro fuzz --replay case.json``
  reproduces bit-identical verdicts.
"""

from .case import BuiltCase, CaseSpec, build_case, case_size
from .campaign import (
    CampaignConfig, CampaignReport, CaseResult, generate_case_specs,
    load_case, replay_case, run_campaign, save_case, verdict_digest,
)
from .oracle import OracleReport, run_oracle
from .reduce import ReductionResult, reduce_case
from .runner import CaseOutcome, InProcessRunner, SubprocessRunner
from .triage import triage_failures

__all__ = [
    "BuiltCase", "CampaignConfig", "CampaignReport", "CaseOutcome",
    "CaseResult", "CaseSpec", "InProcessRunner", "OracleReport",
    "ReductionResult", "SubprocessRunner", "build_case", "case_size",
    "generate_case_specs", "load_case", "reduce_case",
    "replay_case", "run_campaign", "run_oracle", "save_case",
    "triage_failures", "verdict_digest",
]
