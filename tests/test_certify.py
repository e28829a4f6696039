"""Invariant-certificate tests: emission, independent checking,
mutation rejection, the CLI contract, and the full-vs-incremental
divergence witness.

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
import pickle
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
    """Install a fresh context for the payload's program, so its state
    table decodes (and re-encodes) outside the checker."""
    prev = api.get_active_context()
    try:
        yield api._fresh_context(
            [tuple(u) for u in payload["sources"]], payload["entry"],
            decode_config(payload["config"]))
    finally:
        api._restore_engine_globals(prev)


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
            with _decoding(payload):
                states = decode_states(payload["states"])
                wide_inv = decode_states(wide["states"])[
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
                   "--profile-phases"])
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
    """ROADMAP satellite: full and incremental fixpoints on the
    clock-tracked saturating-counter witness are BOTH independently
    certified post-fixpoints, and the incremental verdict never claims
    alarms the full engine misses — so a journal-warmed serve hit that
    returns the (potentially tighter) incremental result is sound, and
    with ``--certify-serve`` is machine-checked per result."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for inc in (True, False):
            out[inc] = analyze(WITNESS_SRC, "witness.c",
                               config=_cfg(incremental=inc))
        return out

    def test_both_fixpoints_certify(self, runs):
        for inc, result in runs.items():
            cert = build_certificate(result, WITNESS_SRC, "witness.c")
            chk = check_certificate(cert)
            assert chk.exit_code in (0, 1), f"incremental={inc}"

    def test_incremental_alarms_subset_of_full(self, runs):
        inc_alarms = {(a.kind, a.loc.line) for a in runs[True].alarms}
        full_alarms = {(a.kind, a.loc.line) for a in runs[False].alarms}
        assert inc_alarms <= full_alarms

    def test_cross_engine_certificates_interchangeable(self, runs):
        # The plain checker normalizes the engine away: a certificate
        # emitted from the incremental run and one from the full run
        # certify the same claims under the same plain configuration.
        certs = {inc: build_certificate(r, WITNESS_SRC, "witness.c")
                 for inc, r in runs.items()}
        assert (certs[True]["payload"]["config_fingerprint"]
                == certs[False]["payload"]["config_fingerprint"])
        for cert in certs.values():
            assert check_certificate(cert).exit_code == 0


def _nodes(states):
    """Distinct PMap nodes reachable from the states' component maps."""
    seen = set()
    stack = [m._root for st in states
             for m in (st.env.cells, st.octagons, st.dtrees, st.ellipsoids)]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen.add(id(node))
            stack.extend((node.left, node.right))
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
            states = decode_states(payload["states"])
            if isolate:
                states = [pickle.loads(pickle.dumps(st)) for st in states]
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
        with _decoding(witness_cert["payload"]):
            states = decode_states(witness_cert["payload"]["states"])
            isolated = [pickle.loads(pickle.dumps(st)) for st in states]
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
        with _decoding(payload):
            decoded = decode_states(payload["states"])
            assert len(decoded) == len(emitted)
            assert len(_nodes(decoded)) == len(_nodes(emitted))
            # ... and the recorded states do share subtrees.
            assert len(_nodes(decoded)) < sum(
                len(_nodes([st])) for st in decoded)
