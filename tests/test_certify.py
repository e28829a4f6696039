"""Invariant-certificate tests: emission, independent checking,
mutation rejection, the CLI contract, and the default-vs-reference
engine divergence witness.

The mutation suite is the teeth of the feature: a certificate whose
invariants were widened away, whose alarms were dropped, whose posts
were spliced from a stale run, or whose bytes were corrupted must be
*rejected* by the independent checker — never validated, never a raw
traceback (the CLI maps every failure to a located ``phase=certify``
incident, exit 3).
"""

import base64
import contextlib
import copy
import json
import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro.analysis import analyze
from repro.certify import (api, build_certificate, certify_result,
                           check_certificate, payload_digest,
                           save_certificate)
from repro.certify.artifact import decode_config, decode_states, encode_state
from repro.cli import main
from repro.config import AnalyzerConfig
from repro.errors import CertificateError
from repro.frontend import compile_source

# The ROADMAP's divergence witness family: a bounded float filter next
# to a persistent, clock-tracked saturating integer counter.
WITNESS_SRC = """
volatile float in1;
int count = 0;
float x = 0.0f;
void main() {
  while (1) {
    float v = in1;
    if (count < 100000) { count = count + 1; }
    x = 0.8f * x + v;
    if (x > 1000.0f) { x = 1000.0f; }
    __ASTREE_wait_for_clock();
  }
}
"""

# Unbounded accumulation: carries a float-overflow alarm at full
# precision, so certificates with a non-empty claimed alarm set (and
# the CLI's exit-1 arm) get exercised.
ALARM_SRC = """
volatile float in1;
float x = 0.0f;
void main() {
  while (1) {
    x = x + in1;
    __ASTREE_wait_for_clock();
  }
}
"""


# Every loop shape the shared loop driver (``Iterator._exec_loop``) runs
# for the engine and the certificate walker alike: a do-while, a ``for``
# whose ``continue`` path runs the step, a ``break``, and a ``return``
# from inside a loop in a callee.
LOOP_SHAPES_SRC = """
volatile int in1;
int acc = 0;
int hits = 0;
int total = 0;

int find(int lim) {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (i * 3 > lim) { return i; }
  }
  return 10;
}

void main() {
  int i; int k; int n;
  while (1) {
    n = in1;
    k = 0;
    do { k = k + 1; } while (k < n);
    acc = 0;
    for (i = 0; i < 8; i = i + 1) {
      if (i == n) { continue; }
      acc = acc + 1;
    }
    k = 0;
    while (1) {
      k = k + 1;
      if (k > 5) { break; }
    }
    hits = k;
    total = find(n);
    __ASTREE_wait_for_clock();
  }
}
"""


def _cfg(**overrides):
    base = dict(input_ranges={"in1": (-10.0, 10.0)}, max_clock=1000,
                certify=True)
    base.update(overrides)
    return AnalyzerConfig(**base)


@pytest.fixture(scope="module")
def witness_cert():
    result = analyze(WITNESS_SRC, "witness.c", config=_cfg())
    return build_certificate(result, WITNESS_SRC, "witness.c")


@pytest.fixture(scope="module")
def alarm_cert():
    result = analyze(ALARM_SRC, "alarm.c", config=_cfg())
    assert result.alarm_count > 0, "alarm fixture lost its alarm"
    return build_certificate(result, ALARM_SRC, "alarm.c")


def _mutated(cert, mutate):
    """Deep-copy, mutate the payload, recompute the content digest (so
    the mutation is tested against the semantic checks, not just the
    digest envelope)."""
    out = copy.deepcopy(cert)
    mutate(out["payload"])
    out["digest"] = payload_digest(out["payload"])
    return out


@contextlib.contextmanager
def _decoding(payload):
    """Yield a fresh context for the payload's program, so its state
    table decodes (and re-encodes) outside the checker."""
    with api._walk_globals():
        yield api._fresh_context(
            [tuple(u) for u in payload["sources"]], payload["entry"],
            decode_config(payload["config"]))


class TestRoundTrip:
    def test_emit_and_check(self, witness_cert):
        chk = check_certificate(witness_cert)
        assert chk.exit_code == 0
        assert chk.claimed_alarms == 0
        assert chk.stmts_checked == len(
            witness_cert["payload"]["stmt_records"])
        assert chk.loops_checked == len(
            witness_cert["payload"]["loop_records"])
        assert chk.loops_checked >= 1

    def test_digest_is_content_address(self, witness_cert):
        assert witness_cert["digest"] == payload_digest(
            witness_cert["payload"])

    def test_alarm_certificate_checks_with_exit_1(self, alarm_cert):
        chk = check_certificate(alarm_cert)
        assert chk.claimed_alarms >= 1
        assert chk.exit_code == 1

    def test_certify_result_summary(self):
        result = analyze(WITNESS_SRC, "witness.c", config=_cfg())
        summ = certify_result(result, WITNESS_SRC, "witness.c")
        assert summ.stmt_records > 0
        assert summ.loop_records >= 1
        assert summ.claimed_alarms == 0

    def test_save_and_check_from_disk(self, witness_cert, tmp_path):
        path = str(tmp_path / "w.cert")
        save_certificate(witness_cert, path)
        chk = check_certificate(path)
        assert chk.exit_code == 0

    def test_checks_in_a_fresh_process(self, tmp_path):
        # The emitting process compiled another program first; statement
        # ids are per program, so a fresh checking process agrees on them.
        compile_source(WITNESS_SRC, "witness.c")
        result = analyze(LOOP_SHAPES_SRC, "shapes.c", config=_cfg())
        path = str(tmp_path / "shapes.cert")
        save_certificate(
            build_certificate(result, LOOP_SHAPES_SRC, "shapes.c"), path)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check-certificate", path],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
        assert proc.returncode == result.exit_code, proc.stderr

    def test_failed_save_leaves_no_file(self, witness_cert, tmp_path,
                                        monkeypatch):
        import errno

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(OSError):
            save_certificate(witness_cert, str(tmp_path / "w.cert"))
        assert os.listdir(tmp_path) == []

    def test_saved_like_open(self, witness_cert, tmp_path):
        # A certificate is handed to an independent checker: it gets the
        # mode open() gives under the umask, and a missing directory is
        # an error, not created.
        old = os.umask(0o022)
        try:
            save_certificate(witness_cert, str(tmp_path / "w.cert"))
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "w.cert").st_mode & 0o777 == 0o644
        with pytest.raises(FileNotFoundError):
            save_certificate(witness_cert, str(tmp_path / "no" / "w.cert"))
        assert os.listdir(tmp_path) == ["w.cert"]

    def test_run_without_certify_is_refused(self):
        result = analyze(WITNESS_SRC, "witness.c",
                         config=_cfg(certify=False))
        with pytest.raises(CertificateError, match="--certify"):
            build_certificate(result, WITNESS_SRC, "witness.c")

    def test_degraded_run_is_refused(self):
        result = analyze(WITNESS_SRC, "witness.c", config=_cfg())
        result.degraded = True
        with pytest.raises(CertificateError, match="degraded"):
            certify_result(result, WITNESS_SRC, "witness.c")

    def test_engine_records_only_under_certify(self):
        on = analyze(WITNESS_SRC, "witness.c", config=_cfg())
        off = analyze(WITNESS_SRC, "witness.c",
                      config=_cfg(certify=False))
        assert on.cert_invariants
        assert not off.cert_invariants

    def test_certify_does_not_change_the_verdict(self):
        on = analyze(WITNESS_SRC, "witness.c", config=_cfg())
        off = analyze(WITNESS_SRC, "witness.c",
                      config=_cfg(certify=False))
        assert ([(a.kind, a.loc.line) for a in on.alarms]
                == [(a.kind, a.loc.line) for a in off.alarms])
        assert on.widening_iterations == off.widening_iterations


def _loop_shapes(prog):
    from repro.frontend import ir as I

    def inside(body, kind):
        return any(isinstance(x, kind) for x in I.iter_stmts(body))

    shapes = set()
    for fn in prog.functions.values():
        for s in I.iter_stmts(fn.body or []):
            if not isinstance(s, I.SWhile):
                continue
            if s.run_body_first:
                shapes.add("do-while")
            if s.step and inside(s.body, I.SContinue):
                shapes.add("for-continue")
            if inside(s.body, I.SBreak):
                shapes.add("break")
            if fn.name != prog.entry and inside(s.body, I.SReturn):
                shapes.add("callee-return")
    return shapes


@pytest.mark.parametrize("unroll", [0, 1, 3])
def test_loop_shapes_round_trip(unroll):
    from repro.frontend import compile_source

    assert _loop_shapes(compile_source(LOOP_SHAPES_SRC, "shapes.c")) == {
        "do-while", "for-continue", "break", "callee-return"}
    result = analyze(LOOP_SHAPES_SRC, "shapes.c",
                     config=_cfg(default_unroll=unroll))
    cert = build_certificate(result, LOOP_SHAPES_SRC, "shapes.c")
    chk = check_certificate(cert)
    assert chk.exit_code == result.exit_code == 0
    assert chk.stmts_checked == len(cert["payload"]["stmt_records"])
    assert chk.loops_checked == len(cert["payload"]["loop_records"])
    # The main loop plus one occurrence of each inner loop, and every
    # unrolled iteration replays its nested loops once more.
    assert chk.loops_checked >= 5


class TestMutationRejection:
    def test_spliced_stale_post(self, witness_cert):
        # Replace a statement's post with its own pre: the transfer
        # application escapes the spliced post (or the next record's
        # pre-containment breaks) at the exact corrupted record.
        def splice(payload):
            rec = payload["stmt_records"][1]
            rec[2] = rec[1]

        with pytest.raises(CertificateError):
            check_certificate(_mutated(witness_cert, splice))

    def test_widened_away_bound(self, witness_cert):
        # Splice the loop invariant of a *wider-input* run of the same
        # program: every per-cell bound the narrow run proved is gone.
        # Loop stability may hold for the wider state, but the
        # downstream records certify the narrow run's states, so the
        # containment chain (or the final-state check) must break.
        wide_result = analyze(
            WITNESS_SRC, "witness.c",
            config=_cfg(input_ranges={"in1": (-1000.0, 1000.0)}))
        wide_cert = build_certificate(wide_result, WITNESS_SRC,
                                      "witness.c")
        wide = wide_cert["payload"]

        def widen(payload):
            with _decoding(payload) as ctx:
                states = decode_states(payload["states"], ctx)
                wide_inv = decode_states(wide["states"], ctx)[
                    wide["loop_records"][0][1]]
                payload["states"] = encode_state(states + [wide_inv])
            payload["loop_records"][0][1] = len(states)

        with pytest.raises(CertificateError):
            check_certificate(_mutated(witness_cert, widen))

    def test_dropped_alarm(self, alarm_cert):
        def drop(payload):
            del payload["alarms"][0]

        with pytest.raises(CertificateError, match="dropped"):
            check_certificate(_mutated(alarm_cert, drop))

    def test_truncated_record_list(self, witness_cert):
        def truncate(payload):
            del payload["stmt_records"][-1]

        with pytest.raises(CertificateError):
            check_certificate(_mutated(witness_cert, truncate))

    def test_extra_record_rejected(self, witness_cert):
        def duplicate(payload):
            payload["stmt_records"].append(payload["stmt_records"][-1])

        with pytest.raises(CertificateError):
            check_certificate(_mutated(witness_cert, duplicate))

    def test_corrupted_state_blob(self, witness_cert):
        def corrupt(payload):
            payload["states"] = "AAAA" + payload["states"]

        with pytest.raises(CertificateError, match="decode"):
            check_certificate(_mutated(witness_cert, corrupt))

    def test_unknown_state_id(self, witness_cert):
        def dangle(payload):
            payload["stmt_records"][0][1] = "s999999"

        with pytest.raises(CertificateError, match="unknown state"):
            check_certificate(_mutated(witness_cert, dangle))

    # -1 would silently resolve to the last state under plain indexing;
    # True passes isinstance(x, int).
    @pytest.mark.parametrize("sid", [-1, True, "s0", 10**6])
    @pytest.mark.parametrize("field", ["stmt", "loop", "final"])
    def test_invalid_state_id(self, witness_cert, sid, field):
        def dangle(payload):
            if field == "stmt":
                payload["stmt_records"][0][1] = sid
            elif field == "loop":
                payload["loop_records"][0][1] = sid
            else:
                payload["final"] = sid

        # The envelope already refuses a non-integer ``final``.
        expected = ("'final' is missing or malformed"
                    if field == "final" and type(sid) is str
                    else "unknown state id")
        with pytest.raises(CertificateError, match=expected):
            check_certificate(_mutated(witness_cert, dangle))

    @pytest.mark.parametrize("table", [{"s0": 0}, [1, 2], None])
    def test_table_must_be_a_list_of_states(self, witness_cert, table):
        def replace(payload):
            payload["states"] = base64.b64encode(
                zlib.compress(pickle.dumps(table))).decode("ascii")

        with pytest.raises(CertificateError, match="list of AbstractState"):
            check_certificate(_mutated(witness_cert, replace))

    def test_digest_mismatch_detected_before_unpickling(self,
                                                        witness_cert):
        tampered = copy.deepcopy(witness_cert)
        tampered["payload"]["entry"] = "not_main"  # digest NOT recomputed
        with pytest.raises(CertificateError, match="digest mismatch"):
            check_certificate(tampered)

    def test_wrong_version(self, witness_cert):
        bad = copy.deepcopy(witness_cert)
        bad["version"] = 99
        with pytest.raises(CertificateError, match="version"):
            check_certificate(bad)

    def test_wrong_format(self, witness_cert):
        bad = copy.deepcopy(witness_cert)
        bad["format"] = "something-else"
        with pytest.raises(CertificateError, match="format"):
            check_certificate(bad)

    def test_rewritten_config_fingerprint(self, witness_cert):
        def rewrite(payload):
            payload["config_fingerprint"] = "0" * 64

        with pytest.raises(CertificateError, match="fingerprint"):
            check_certificate(_mutated(witness_cert, rewrite))

    def test_other_semantics_refused(self, monkeypatch):
        import repro.config

        monkeypatch.setattr(repro.config, "SEMANTICS_VERSION",
                            repro.config.SEMANTICS_VERSION - 1)
        result = analyze(WITNESS_SRC, "witness.c", config=_cfg())
        cert = build_certificate(result, WITNESS_SRC, "witness.c")
        monkeypatch.undo()
        with pytest.raises(CertificateError, match="SEMANTICS_VERSION"):
            check_certificate(cert)

    def test_wrong_source_rejected(self, witness_cert):
        # Certificate for program A presented with program B's records:
        # the traversal desynchronizes (or containment fails); it must
        # not validate.
        def reseat(payload):
            payload["sources"] = [["alarm.c", ALARM_SRC]]

        with pytest.raises(CertificateError):
            check_certificate(_mutated(witness_cert, reseat))


class TestCheckCertificateCLI:
    def _emit(self, tmp_path, src=WITNESS_SRC):
        c = tmp_path / "prog.c"
        c.write_text(src)
        cert = str(tmp_path / "prog.cert")
        rc = main(["analyze", str(c), "--input-range", "in1=-10:10",
                   "--max-clock", "1000", "--emit-certificate", cert])
        return rc, cert

    def test_emit_then_check_exit_0(self, tmp_path, capsys):
        rc, cert = self._emit(tmp_path)
        assert rc == 0
        assert "certified" in capsys.readouterr().out
        assert main(["check-certificate", cert]) == 0
        assert "certificate valid" in capsys.readouterr().out

    def test_check_json_payload(self, tmp_path, capsys):
        _, cert = self._emit(tmp_path)
        capsys.readouterr()
        assert main(["check-certificate", cert, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["loops_checked"] >= 1

    def test_alarm_certificate_exits_1(self, tmp_path, capsys):
        rc, cert = self._emit(tmp_path, src=ALARM_SRC)
        assert rc == 1
        capsys.readouterr()
        assert main(["check-certificate", cert]) == 1

    def test_missing_file_exit_3_phase_certify(self, tmp_path, capsys):
        rc = main(["check-certificate", str(tmp_path / "no.cert")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err
        assert "Traceback" not in err

    def test_truncated_file_exit_3(self, tmp_path, capsys):
        _, cert = self._emit(tmp_path)
        data = open(cert, "rb").read()
        open(cert, "wb").write(data[:len(data) // 2])
        capsys.readouterr()
        rc = main(["check-certificate", cert])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err

    def test_flipped_byte_exit_3(self, tmp_path, capsys):
        _, cert = self._emit(tmp_path)
        data = bytearray(open(cert, "rb").read())
        # Flip one byte in the middle of the state table (keeps the
        # JSON valid).
        start = data.index(b'"states":"') + len(b'"states":"')
        idx = (start + data.index(b'"', start)) // 2
        data[idx] = (data[idx] + 1) % 128 or 65
        open(cert, "wb").write(bytes(data))
        capsys.readouterr()
        rc = main(["check-certificate", cert])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err

    def test_v1_certificate_exit_3(self, tmp_path, capsys):
        # The v1 layout: one blob per state under string ids.
        _, cert = self._emit(tmp_path)
        doc = json.load(open(cert))
        p = doc["payload"]
        p["states"] = {"s0": p["states"]}
        p["stmt_records"] = [[o, f"s{a}", f"s{b}"]
                             for o, a, b in p["stmt_records"]]
        p["loop_records"] = [[o, f"s{a}"] for o, a in p["loop_records"]]
        p["final"] = f"s{p['final']}"
        doc["version"] = 1
        doc["digest"] = payload_digest(p)
        json.dump(doc, open(cert, "w"))
        capsys.readouterr()
        rc = main(["check-certificate", cert])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err
        assert "version 1 is not supported" in err
        assert "Traceback" not in err

    def test_wrong_version_exit_3(self, tmp_path, capsys):
        _, cert = self._emit(tmp_path)
        doc = json.load(open(cert))
        doc["version"] = 99
        json.dump(doc, open(cert, "w"))
        capsys.readouterr()
        rc = main(["check-certificate", cert])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err

    def test_mutated_certificate_exit_3(self, tmp_path, capsys):
        _, cert = self._emit(tmp_path)
        doc = json.load(open(cert))
        rec = doc["payload"]["stmt_records"][1]
        rec[2] = rec[1]
        doc["digest"] = payload_digest(doc["payload"])
        json.dump(doc, open(cert, "w"))
        capsys.readouterr()
        rc = main(["check-certificate", cert])
        err = capsys.readouterr().err
        assert rc == 3
        assert "phase=certify" in err

    def test_certify_phase_in_stats(self, tmp_path, capsys):
        c = tmp_path / "prog.c"
        c.write_text(WITNESS_SRC)
        rc = main(["analyze", str(c), "--input-range", "in1=-10:10",
                   "--max-clock", "1000", "--certify",
                   "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certify" in out

    def test_certification_in_json(self, tmp_path, capsys):
        c = tmp_path / "prog.c"
        c.write_text(WITNESS_SRC)
        rc = main(["analyze", str(c), "--input-range", "in1=-10:10",
                   "--max-clock", "1000", "--certify", "--json",
                   "--stats"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["certification"]["loop_records"] >= 1
        assert "certify" in payload["phase_times_s"]


class TestDivergenceWitness:
    """ROADMAP satellite: the default engine's fixpoint (statement
    skipping) and the reference engine's (``trace=True``: full
    re-execution, no sharing caches) on the clock-tracked
    saturating-counter witness are BOTH independently certified
    post-fixpoints, and the default verdict never claims alarms the
    reference engine misses — so a journal-warmed serve hit that
    returns the (potentially tighter) skipping result is sound, and
    with ``--certify-serve`` is machine-checked per result."""

    @pytest.fixture(scope="class")
    def runs(self):
        # Keyed by "statement skipping on".
        out = {}
        for inc in (True, False):
            out[inc] = analyze(WITNESS_SRC, "witness.c",
                               config=_cfg(trace=not inc))
        return out

    def test_both_fixpoints_certify(self, runs):
        for inc, result in runs.items():
            cert = build_certificate(result, WITNESS_SRC, "witness.c")
            chk = check_certificate(cert)
            assert chk.exit_code in (0, 1), f"skipping={inc}"

    def test_incremental_alarms_subset_of_full(self, runs):
        inc_alarms = {(a.kind, a.loc.line) for a in runs[True].alarms}
        full_alarms = {(a.kind, a.loc.line) for a in runs[False].alarms}
        assert inc_alarms <= full_alarms

    def test_cross_engine_certificates_interchangeable(self, runs):
        # The plain checker normalizes the engine away: a certificate
        # emitted from the default run and one from the reference run
        # certify the same claims under the same plain configuration.
        certs = {inc: build_certificate(r, WITNESS_SRC, "witness.c")
                 for inc, r in runs.items()}
        assert (certs[True]["payload"]["config_fingerprint"]
                == certs[False]["payload"]["config_fingerprint"])
        for cert in certs.values():
            assert check_certificate(cert).exit_code == 0


def _nodes(states):
    """Distinct PMap trie nodes reachable from the states' component
    maps."""
    seen = set()
    stack = [(m._root, m._shift) for st in states
             for m in (st.env.cells, st.octagons, st.dtrees, st.ellipsoids)
             if m]
    while stack:
        node, shift = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if shift:
                stack.extend((c, shift - 5) for c in node if c is not None)
    return seen


def _splice_stale_post(payload):
    rec = payload["stmt_records"][1]
    rec[2] = rec[1]


def _drop_alarm(payload):
    del payload["alarms"][0]


class TestSharingDifferential:
    """The v2 table decodes to states that share subtrees exactly as the
    emitter's did, which only adds ``a is b`` shortcuts to the checker's
    ``includes``.  Checking the same records over per-state-isolated
    copies (one pickle stream per state, so no sharing across states)
    must reach the same verdict and the same replay alarms."""

    @staticmethod
    def _check(payload, isolate):
        with _decoding(payload) as ctx:
            states = decode_states(payload["states"], ctx)
            if isolate:
                states = [decode_states(encode_state([st]), ctx)[0]
                          for st in states]
            try:
                walker = api._check_walk(ctx, payload, states)
            except CertificateError as exc:
                return "rejected", str(exc), None
            return "accepted", None, walker.alarm_keys()

    @pytest.mark.parametrize("cert,mutate", [
        ("witness_cert", None), ("alarm_cert", None),
        ("witness_cert", _splice_stale_post), ("alarm_cert", _drop_alarm)])
    def test_isolated_copies_reach_the_same_verdict(self, request, cert,
                                                    mutate):
        cert = request.getfixturevalue(cert)
        if mutate is not None:
            cert = _mutated(cert, mutate)
        payload = cert["payload"]
        shared = self._check(payload, isolate=False)
        assert shared == self._check(payload, isolate=True)
        assert shared[0] == ("accepted" if mutate is None else "rejected")

    def test_isolation_really_drops_sharing(self, witness_cert):
        with _decoding(witness_cert["payload"]) as ctx:
            states = decode_states(witness_cert["payload"]["states"], ctx)
            isolated = [decode_states(encode_state([st]), ctx)[0]
                        for st in states]
            assert len(_nodes(isolated)) > len(_nodes(states))

    @pytest.mark.parametrize("src,name", [(WITNESS_SRC, "witness.c"),
                                          (ALARM_SRC, "alarm.c")])
    def test_table_keeps_the_emitters_sharing_exactly(self, monkeypatch,
                                                      src, name):
        # The last table ``build_certificate`` encodes is the payload's;
        # keep its states alive so their node ids stay valid.
        tables = []

        def spy(states):
            tables.append(list(states))
            return encode_state(tables[-1])

        monkeypatch.setattr(api, "encode_state", spy)
        result = analyze(src, name, config=_cfg())
        payload = build_certificate(result, src, name)["payload"]
        emitted = tables[-1]
        with _decoding(payload) as ctx:
            decoded = decode_states(payload["states"], ctx)
            assert len(decoded) == len(emitted)
            assert len(_nodes(decoded)) == len(_nodes(emitted))
            # ... and the recorded states do share subtrees.
            assert len(_nodes(decoded)) < sum(
                len(_nodes([st])) for st in decoded)


class TestStateDecoder:
    """States decode only through ``decode_states``, which binds each
    one to the context it is given; nothing is installed process-wide."""

    def test_plain_pickle_refuses_a_state_table(self, witness_cert):
        blob = witness_cert["payload"]["states"]
        with pytest.raises(pickle.UnpicklingError, match="analysis context"):
            pickle.loads(zlib.decompress(base64.b64decode(blob)))

    def test_decode_binds_every_state_to_ctx(self, witness_cert):
        payload = witness_cert["payload"]
        with _decoding(payload) as ctx:
            states = decode_states(payload["states"], ctx)
        assert states and all(st.ctx is ctx for st in states)

    def test_one_blob_under_two_contexts(self, witness_cert):
        payload = witness_cert["payload"]
        with _decoding(payload) as ctx1, _decoding(payload) as ctx2:
            assert ctx1 is not ctx2
            first = decode_states(payload["states"], ctx1)
            second = decode_states(payload["states"], ctx2)
            third = decode_states(payload["states"], ctx1)
        assert all(st.ctx is ctx1 for st in first + third)
        assert all(st.ctx is ctx2 for st in second)
        assert [repr(st.env) for st in first] == [
            repr(st.env) for st in second]

    def test_config_blob_holding_a_state_is_refused(self, witness_cert):
        payload = witness_cert["payload"]
        with _decoding(payload) as ctx:
            state = decode_states(payload["states"], ctx)[0]
        with pytest.raises(CertificateError, match="configuration does not "
                                                   "decode"):
            decode_config(encode_state([state]))


class TestWarmCachesSurviveCertification:
    def test_certify_result_leaves_the_sharing_caches_as_found(self):
        # The serve worker certifies warm results between jobs: the walk
        # must neither use nor wipe the closure memo and the value pool,
        # and must leave both enabled for the next job.
        from repro.domains.octagon import Octagon, closure_memo_stats
        from repro.domains.values import CellValue
        from repro.memory import interning
        from repro.numeric import IntInterval
        from repro.synth import FamilySpec, generate_program

        gp = generate_program(FamilySpec(target_kloc=0.25, seed=7))
        result = analyze(gp.source, "fam.c",
                         config=gp.analyzer_config(certify=True))
        memo, pool = closure_memo_stats()[:2], interning.intern_stats()
        assert memo[1] > 0 and pool[2] > 0
        certify_result(result, gp.source, "fam.c")
        assert closure_memo_stats()[:2] == memo
        assert interning.intern_stats() == pool

        def raw():
            m = Octagon(2).m.copy()
            m[1, 0] = m[0, 1] = 20.0
            m[3, 2] = m[2, 3] = 22.0
            m[2, 0] = 3.0
            return Octagon(2, m, closed=False)

        raw().closed()
        hits = closure_memo_stats()[0]
        raw().closed()
        assert closure_memo_stats()[0] == hits + 1
        a, b = (CellValue(IntInterval.of(-7, 9)) for _ in range(2))
        assert interning.intern_value(a) is interning.intern_value(b)


class TestTrustedBase:
    def test_checker_loads_no_serving_code(self):
        # The checker's trusted base stays small: importing it must not
        # pull in the daemon, its worker supervisor or the process
        # layer (the source digest lives in the frontend, not in
        # repro.serve).
        code = ("import sys\n"
                "import repro.certify\n"
                "print(sorted(m for m in sys.modules if m.startswith("
                "('repro.serve', 'repro.ipc'))))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
