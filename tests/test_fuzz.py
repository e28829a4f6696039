"""Tests for the soundness fuzzing campaign engine (repro.fuzz).

Covers determinism of the seed chain, the mutators, subprocess
isolation with outcome classification, the fault-injection hook, crash
triage, delta-debugging reduction, corpus replay with bit-identical
digests, and the campaign wall budget.
"""

import os
import signal

import pytest

from repro.concrete.interpreter import RandomInputs, derive_seed
from repro.fuzz import (
    CampaignConfig, CaseSpec, InProcessRunner, SubprocessRunner,
    build_case, case_size, generate_case_specs, load_case,
    reduce_case, replay_case, run_campaign, save_case, triage_failures,
    verdict_digest,
)
from repro.ipc.process import crash_signature
from repro.fuzz.mutators import MUTATION_KINDS, apply_mutations
from repro.fuzz.worker import _analyzer_config, execute_spec


def spec_with(**kw):
    base = dict(case_id="t-0000", campaign_seed=99, index=0,
                target_kloc=0.08, family_seed=12345, streams=2,
                max_ticks=24)
    base.update(kw)
    return CaseSpec(**base)


class TestSeedChain:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(1, "case", 0)
        assert a == derive_seed(1, "case", 0)
        assert a != derive_seed(1, "case", 1)
        assert a != derive_seed(2, "case", 0)
        assert 0 <= a < 2 ** 63

    def test_random_inputs_replay(self):
        ranges = {"v": (0.0, 100.0)}
        a = RandomInputs(ranges, 7)
        b = RandomInputs(ranges, 7)
        assert [a.rng.random() for _ in range(5)] == \
               [b.rng.random() for _ in range(5)]

    def test_fork_independent_streams(self):
        base = RandomInputs({}, 7)
        assert base.fork(0).seed != base.fork(1).seed
        assert base.fork(0).seed == RandomInputs({}, 7).fork(0).seed

    def test_case_seed_chain(self):
        spec = spec_with()
        assert spec.case_seed == derive_seed(99, "case", 0)
        assert spec.stream_seed(2) == derive_seed(spec.case_seed,
                                                  "stream", 2)


class TestCaseSpec:
    def test_json_round_trip(self):
        spec = spec_with(mutations=[{"kind": "deep-nesting", "depth": 4}],
                         block_types=["Accumulator", "Saturator"],
                         inject_crash="Saturator")
        again = CaseSpec.from_json(spec.to_json())
        assert again == spec

    def test_from_json_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            CaseSpec.from_json({"case_id": "x"})

    def test_build_is_deterministic(self):
        spec = spec_with(mutations=[{"kind": "boundary-constants"}])
        a, b = build_case(spec), build_case(spec)
        assert a.source == b.source
        assert a.input_ranges == b.input_ranges

    def test_save_load_round_trip(self, tmp_path):
        spec = spec_with()
        path = str(tmp_path / "case.json")
        save_case(spec, path)
        assert load_case(path) == spec

    def test_case_size_axes(self):
        spec = spec_with()
        smaller = spec_with(target_kloc=0.04)
        assert case_size(smaller) < case_size(spec)
        bigger = spec_with(mutations=[{"kind": "deep-nesting"}])
        assert case_size(bigger) > case_size(spec)


class TestMutators:
    def test_all_kinds_apply(self):
        spec = spec_with()
        built = build_case(spec)
        for kind in MUTATION_KINDS:
            src, ranges, applied = apply_mutations(
                built.source, dict(built.input_ranges),
                [{"kind": kind}], spec.case_seed)
            assert applied == [kind]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_mutations("int main(void) { return 0; }", {},
                            [{"kind": "no-such-mutation"}], 1)

    def test_mutations_deterministic(self):
        spec = spec_with(mutations=[{"kind": "boundary-constants",
                                     "count": 3},
                                    {"kind": "adversarial-ranges"}])
        assert build_case(spec).source == build_case(spec).source

    def test_deep_nesting_still_compiles(self):
        from repro.frontend import compile_source

        spec = spec_with(mutations=[{"kind": "deep-nesting", "depth": 12}])
        built = build_case(spec)
        assert compile_source(built.source, "deep.c") is not None

    def test_degenerate_filter_adds_input(self):
        spec = spec_with(mutations=[{"kind": "degenerate-filter",
                                     "variant": 1}])
        built = build_case(spec)
        assert any(name.startswith("fz1") for name in built.input_ranges)


class TestWorkerAndRunner:
    def test_execute_spec_sound(self):
        payload = execute_spec(spec_with())
        assert payload["outcome"] == "sound"
        assert payload["oracle"]["sound"] is True
        assert payload["oracle"]["values_checked"] > 0

    def test_payload_deterministic(self):
        assert execute_spec(spec_with()) == execute_spec(spec_with())

    def test_inject_crash_hook(self):
        spec = spec_with()
        present = sorted(build_case(spec).block_counts)
        crash_spec = spec_with(inject_crash=present[0])
        with pytest.raises(RuntimeError, match="injected crash"):
            execute_spec(crash_spec)

    def test_in_process_runner_classifies_crash(self):
        spec = spec_with()
        present = sorted(build_case(spec).block_counts)
        out = InProcessRunner().run_spec(spec_with(inject_crash=present[0]))
        assert out.outcome == "crash"
        assert out.signature.startswith("RuntimeError|repro.fuzz.worker:")

    def test_subprocess_runner_sound(self):
        out = SubprocessRunner(timeout_s=300.0).run_spec(spec_with())
        assert out.outcome == "sound"
        assert out.returncode == 0

    def test_subprocess_runner_timeout_reaps_child(self, monkeypatch):
        from repro.fuzz import runner

        spawned = []

        class Recording(runner.WorkerProcess):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(runner, "WorkerProcess", Recording)
        out = SubprocessRunner(timeout_s=0.05).run_spec(spec_with())
        assert out.outcome == "timeout"
        assert out.signature == "timeout|0.05s|"
        assert out.infra_retries == 0
        # The overrun child was killed and reaped: nothing left running.
        assert len(spawned) == 1
        assert spawned[0].proc.returncode == -signal.SIGKILL
        with pytest.raises(ProcessLookupError):
            os.kill(spawned[0].pid, 0)

    def test_subprocess_runner_retries_a_sigkilled_worker(self,
                                                          monkeypatch):
        from repro.fuzz import runner

        killed = []

        class KilledOnce(runner.WorkerProcess):
            def request(self, message, timeout_s=None):
                if not killed:  # what the OOM killer delivers
                    killed.append(self.pid)
                    os.kill(self.pid, signal.SIGKILL)
                return super().request(message, timeout_s)

        monkeypatch.setattr(runner, "WorkerProcess", KilledOnce)
        out = SubprocessRunner(timeout_s=300.0).run_spec(spec_with())
        assert out.outcome == "sound"
        assert (out.attempts, out.infra_retries) == (2, 1)

    def test_subprocess_crash_signature_matches_in_process(self):
        spec = spec_with()
        present = sorted(build_case(spec).block_counts)
        crash_spec = spec_with(inject_crash=present[0])
        sub = SubprocessRunner(timeout_s=300.0).run_spec(crash_spec)
        inp = InProcessRunner().run_spec(crash_spec)
        assert sub.outcome == inp.outcome == "crash"
        assert sub.signature == inp.signature

    def test_rejected_outcome(self):
        # An unknown analyzer override is rejected before analysis; a
        # ReproError-style rejection classifies as "rejected" only for
        # frontend errors, so use a spec that fails to build cleanly.
        spec = spec_with(mutations=[{"kind": "deep-nesting",
                                     "depth": 40}])
        out = InProcessRunner().run_spec(spec)
        assert out.outcome in ("sound", "rejected")

    def test_removed_override_is_refused(self):
        # Old corpus files that ran a removed mode (the scalar kernels,
        # full re-execution) must fail loudly, not silently replay
        # under a different mode.
        for knob in ("vectorize", "incremental"):
            spec = spec_with(analyzer={knob: False})
            with pytest.raises(ValueError, match=r"unknown analyzer "
                                                 rf"overrides: \['{knob}'\]"):
                _analyzer_config(spec, build_case(spec))


class TestTriage:
    TRACEBACK = '''Traceback (most recent call last):
  File "/x/src/repro/fuzz/worker.py", line 60, in run_built_case
    raise RuntimeError("injected crash: block type Saturator present")
RuntimeError: injected crash: block type Saturator present
'''

    def test_signature_shape(self):
        sig = crash_signature(self.TRACEBACK)
        assert sig == ("RuntimeError|repro.fuzz.worker:run_built_case|"
                       "injected crash: block type Saturator present")

    def test_signature_normalizes_digits(self):
        a = self.TRACEBACK.replace("Saturator", "B12")
        b = self.TRACEBACK.replace("Saturator", "B99")
        assert crash_signature(a) == crash_signature(b)

    def test_signature_without_frames(self):
        sig = crash_signature("MemoryError")
        assert sig.startswith("MemoryError|?|")

    def test_triage_groups_by_signature(self):
        class R:
            def __init__(self, cid, outcome, sig):
                self.outcome = outcome
                self.signature = sig
                self.spec = spec_with(case_id=cid)

        groups = triage_failures([
            R("a", "crash", "sigA"), R("b", "crash", "sigA"),
            R("c", "unsound", "sigB"), R("d", "sound", None),
        ])
        assert groups == {"sigA": ["a", "b"], "sigB": ["c"]}


class TestReduction:
    def test_reducer_shrinks_injected_crash(self):
        """The ISSUE acceptance check: a deliberately injected failing
        case reduces to a strictly smaller spec with the same crash
        signature."""
        spec = spec_with(
            target_kloc=0.15,
            mutations=[{"kind": "boundary-constants"},
                       {"kind": "deep-nesting", "depth": 8}])
        present = sorted(build_case(spec).block_counts)
        failing = CaseSpec.from_json({**spec.to_json(),
                                      "inject_crash": present[0]})
        result = reduce_case(failing, max_attempts=80)
        assert result.target[0] == "crash"
        assert result.shrank, (result.original_size, result.reduced_size)
        assert result.reduced_size < result.original_size
        # The reduced spec still reproduces the same failure.
        out = InProcessRunner().run_spec(result.reduced)
        assert (out.outcome, out.signature) == result.target
        # The injected block type survived reduction (it is the trigger).
        assert present[0] in build_case(result.reduced).block_counts

    def test_reduction_of_sound_case_is_lossless(self):
        spec = spec_with()
        result = reduce_case(spec, max_attempts=12)
        assert result.target[0] == "sound"
        # Whatever it shrank to still verdicts sound.
        assert InProcessRunner().run_spec(result.reduced).outcome == "sound"


class TestCampaign:
    def test_spec_generation_deterministic(self):
        cfg = CampaignConfig(campaign_seed=5, cases=6)
        a = [s.to_json() for s in generate_case_specs(cfg)]
        b = [s.to_json() for s in generate_case_specs(cfg)]
        assert a == b
        assert len({s["case_id"] for s in a}) == 6

    def test_clean_campaign_in_process(self):
        cfg = CampaignConfig(campaign_seed=3, cases=2, isolation=False,
                             reduce_failures=False)
        report = run_campaign(cfg)
        assert report.ok
        assert len(report.results) == 2
        payload = report.to_json()
        assert payload["outcome_counts"].get("sound", 0) \
            + payload["outcome_counts"].get("rejected", 0) == 2

    def test_campaign_digests_replay_bit_identical(self, tmp_path):
        cfg = CampaignConfig(campaign_seed=3, cases=2, isolation=False,
                             reduce_failures=False)
        report = run_campaign(cfg)
        for res in report.results:
            path = str(tmp_path / f"{res.spec.case_id}.json")
            save_case(res.spec, path)
            again = replay_case(path, isolation=False)
            assert again.digest == res.digest
            assert again.outcome == res.outcome

    def test_wall_budget_stops_campaign(self):
        cfg = CampaignConfig(campaign_seed=3, cases=50, isolation=False,
                             max_wall_s=0.0, reduce_failures=False)
        report = run_campaign(cfg)
        assert report.stopped_reason == "wall-budget"
        assert len(report.results) < 50

    def test_failing_campaign_persists_and_reduces(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        probe = generate_case_specs(
            CampaignConfig(campaign_seed=11, cases=1))[0]
        block = sorted(build_case(probe).block_counts)[0]
        cfg = CampaignConfig(campaign_seed=11, cases=1, isolation=False,
                             corpus_dir=corpus, inject_crash=block,
                             max_reduce_attempts=40)
        report = run_campaign(cfg)
        assert not report.ok
        assert report.outcome_counts.get("crash") == 1
        assert len(report.triage) == 1
        assert report.reductions and report.reductions[0].shrank
        files = sorted(os.listdir(corpus))
        assert any(f.endswith(".reduced.json") for f in files)
        # The persisted reduced case replays to the same signature.
        reduced = [f for f in files if f.endswith(".reduced.json")][0]
        res = replay_case(os.path.join(corpus, reduced), isolation=False)
        assert res.outcome == "crash"
        assert res.signature == report.results[0].signature

    def test_verdict_digest_ignores_timing_fields(self):
        spec = spec_with()
        d1 = verdict_digest(spec, "sound", None, {"outcome": "sound"})
        d2 = verdict_digest(spec, "sound", None, {"outcome": "sound"})
        assert d1 == d2
        assert d1 != verdict_digest(spec, "crash", "sig", None)

    def test_load_case_errors_name_path(self, tmp_path):
        from repro.errors import ReproError

        missing = str(tmp_path / "missing.json")
        with pytest.raises(ReproError, match="missing.json"):
            load_case(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ReproError, match="bad.json"):
            load_case(str(bad))
        not_spec = tmp_path / "notspec.json"
        not_spec.write_text('{"hello": 1}')
        with pytest.raises(ReproError, match="notspec.json"):
            load_case(str(not_spec))
