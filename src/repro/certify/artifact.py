"""The on-disk certificate artifact.

A certificate is a single JSON document::

    {"format": "astree-repro-certificate", "version": 3,
     "digest": sha256(canonical(payload)), "payload": {...}}

The payload carries everything the independent checker needs to
re-validate the result from scratch — the source units, the entry
point, the (performance-normalized) analysis configuration, the state
table, the per-statement (pre, post) records and per-loop-occurrence
invariants of the checking-mode traversal in traversal order, the
claimed alarm set, and the final state — making the artifact
content-addressed: the digest is recomputed over the canonical
serialization on load, so a flipped byte anywhere is detected before
any state is unpickled.

The state table (format version 3) is one base64(zlib(pickle)) string
holding the list of distinct states, deduplicated by identity;
records and ``final`` refer to states by their index in that list.
A pickled state carries its domain content only: :func:`decode_states`
takes the analysis context as an argument and binds every state it
decodes to it, so this module alone decides how a state finds its
context, and nothing is installed process-wide.
One pickle stream keeps the emitter's sharing: ``PMap`` pickles as its
tuple DAG and the pickler memoizes tuples, so a trie node shared by
many recorded states is written once and decodes to one object shared
by the same states.  Artifact size
and both codec directions therefore grow with the distinct nodes, not
with records × cells, and the checker's ``includes`` keeps its
physical-identity shortcut.  Version 1 artifacts (one blob per state,
string ids) and version 2 artifacts (tree-node maps, records pickled
with a ``__dict__`` state) are rejected by the version check, before
anything is unpickled, and must be re-emitted.

Statements are identified by their id (depth-first position over the
functions in sorted name order, see ``repro.frontend.ir.Stmt``), which
the checking process's compilation of the certified sources assigns
alike.

Every malformation — missing file, truncation, non-JSON bytes, an
unknown format or version, a digest mismatch, a table that does not
decode to a list of states — maps to
:class:`repro.errors.CertificateError`, which the CLI reports as a
located ``phase=certify`` incident (exit 3).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import io
import json
import pickle
import zlib
from typing import Dict, List

from ..errors import CertificateError
from ..fileio import atomic_write
from ..iterator.state import AbstractState

__all__ = ["CERT_FORMAT", "CERT_VERSION", "StateTable", "decode_blob",
           "decode_config", "decode_states", "encode_config",
           "encode_state", "load_certificate", "payload_digest",
           "save_certificate"]

CERT_FORMAT = "astree-repro-certificate"
CERT_VERSION = 3

# Pinned pickle protocol: the artifact crosses interpreter versions
# (written on one machine, checked on another), so the writer never
# silently upgrades to a protocol an older reader cannot parse.
_PICKLE_PROTOCOL = 4


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def payload_digest(payload: dict) -> str:
    """Content address of a certificate payload (recompute after any
    deliberate mutation in tests, or the digest check fires first)."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _encode(obj) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj, _PICKLE_PROTOCOL))).decode("ascii")


def encode_state(states) -> str:
    """Encode the state table: one base64(zlib(pickle)) string for the
    whole list, so states share subtrees after decoding exactly as they
    did when encoded.  States are pickled without their context."""
    return _encode(list(states))


class _Unpickler(pickle.Unpickler):
    """Resolves the global a pickled state names
    (``repro.iterator.state._rebuild_state``) to an :class:`AbstractState`
    constructor bound to ``ctx``.  Without a context the name resolves
    as usual, and that function refuses to build a state."""

    def __init__(self, data: bytes, ctx) -> None:
        super().__init__(io.BytesIO(data))
        self.ctx = ctx

    def find_class(self, module, name):
        if self.ctx is not None and (module, name) == (
                "repro.iterator.state", "_rebuild_state"):
            return functools.partial(AbstractState, self.ctx)
        return super().find_class(module, name)


def decode_blob(blob_b64: str, what: str, ctx=None):
    """Decode one base64(zlib(pickle)) string, binding every state in it
    to ``ctx`` (a blob holding a state does not decode without one)."""
    try:
        return _Unpickler(zlib.decompress(base64.b64decode(blob_b64)),
                          ctx).load()
    except Exception as exc:  # corrupt b64/zlib/pickle, bad opcodes, ...
        raise CertificateError(f"certificate {what} does not decode: {exc}")


def decode_states(blob_b64: str, ctx) -> list:
    """Decode the state table into states bound to ``ctx``, refusing
    anything but a list of states."""
    states = decode_blob(blob_b64, "state table", ctx)
    if type(states) is not list or not all(
            type(st) is AbstractState for st in states):
        raise CertificateError(
            "certificate state table does not decode to a list of "
            "AbstractState")
    return states


def encode_config(cfg) -> str:
    return _encode(cfg)


def decode_config(blob_b64: str):
    from ..config import AnalyzerConfig

    cfg = decode_blob(blob_b64, "configuration")
    if not isinstance(cfg, AnalyzerConfig):
        raise CertificateError(
            f"certificate configuration decodes to {type(cfg).__name__}, "
            f"expected AnalyzerConfig")
    return cfg


class StateTable:
    """Emission-side index of the distinct states, by identity (record
    chains share pre/post objects heavily).  ``states`` holds every
    indexed state, which keeps each ``id()`` key from being reused."""

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self.states: List[object] = []

    def add(self, state) -> int:
        sid = self._index.get(id(state))
        if sid is None:
            sid = self._index[id(state)] = len(self.states)
            self.states.append(state)
        return sid


def save_certificate(cert: dict, path: str) -> None:
    """Atomically persist a certificate (see :mod:`repro.fileio`)."""
    atomic_write(path, json.dumps(cert, sort_keys=True,
                                  separators=(",", ":")).encode("ascii"))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateError(message)


def validate_envelope(cert: object, origin: str = "certificate") -> dict:
    """Structural + content-address validation of a loaded certificate.
    Returns the verified payload dict."""
    _require(isinstance(cert, dict), f"{origin}: not a certificate object")
    _require(cert.get("format") == CERT_FORMAT,
             f"{origin}: unknown format {cert.get('format')!r} "
             f"(expected {CERT_FORMAT!r})")
    version = cert.get("version")
    _require(version == CERT_VERSION,
             f"{origin}: version {version!r} is not supported by this "
             f"checker (expected {CERT_VERSION})")
    payload = cert.get("payload")
    _require(isinstance(payload, dict), f"{origin}: missing payload")
    digest = cert.get("digest")
    _require(isinstance(digest, str), f"{origin}: missing digest")
    actual = payload_digest(payload)
    _require(actual == digest,
             f"{origin}: content digest mismatch ({actual[:12]}… vs "
             f"claimed {digest[:12]}…): the artifact was modified or "
             f"corrupted after emission")
    for key, typ in (("sources", list), ("entry", str), ("config", str),
                     ("states", str), ("stmt_records", list),
                     ("loop_records", list), ("alarms", list),
                     ("final", int)):
        _require(isinstance(payload.get(key), typ),
                 f"{origin}: payload field {key!r} is missing or malformed")
    return payload


def load_certificate(path: str) -> dict:
    """Load and verify a certificate file's envelope (format, version,
    content digest, payload shape).  Semantic validation is
    :func:`repro.certify.check_certificate`'s job."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cert = json.load(f)
    except FileNotFoundError:
        raise CertificateError(f"certificate file not found: {path}")
    except OSError as exc:
        raise CertificateError(f"cannot read certificate {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CertificateError(
            f"certificate {path} is not valid JSON (truncated or "
            f"corrupted): {exc}")
    validate_envelope(cert, origin=f"certificate {path}")
    return cert
