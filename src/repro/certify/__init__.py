"""Invariant certificates: engine-independent result validation.

The analyzer's engine skips statements whose inputs are unchanged, and
the serving cache replays journals of earlier runs.  Following Blazy et
al. (*Formal Verification of a C Value Analysis Based on Abstract
Interpretation*), neither needs to be trusted: a result is
*certified* by packaging its invariants into a content-addressed
artifact and re-applying every transfer function exactly once over the
certified states, checking only lattice containment —

* ``F(pre) ⊑ post`` for every recorded atomic statement,
* ``entry ∪ F(inv) ⊑ inv`` at every loop head (post-fixpoint
  stability), and
* that the claimed alarm set is a superset of the alarms the single
  re-application raises.

The checker (:func:`check_certificate`) uses the abstract domains'
``transfer``/``includes`` only — no widening, no narrowing, no
statement skipping, no interning or closure memo — so it cannot share
a bug with any engine path.  It runs the same scalar lattice
operations as the engine.  See docs/soundness.md, "Result
certification".
"""

from .api import (CertificateCheck, CertificationSummary, build_certificate,
                  certify_result, check_certificate)
from .artifact import (CERT_FORMAT, CERT_VERSION, load_certificate,
                       payload_digest, save_certificate)

__all__ = [
    "CERT_FORMAT", "CERT_VERSION", "CertificateCheck",
    "CertificationSummary", "build_certificate", "certify_result",
    "check_certificate", "load_certificate", "payload_digest",
    "save_certificate",
]
