"""Invariant certificates: engine-independent result validation.

The analyzer has three execution paths to the same answer (full,
incremental, vectorized) plus a journal-replay serving cache.
Following Blazy et al. (*Formal Verification of a C Value Analysis
Based on Abstract Interpretation*), none of them needs to be trusted:
a result is *certified* by packaging its invariants into a
content-addressed artifact and re-applying every transfer function
exactly once over the certified states, checking only lattice
containment —

* ``F(pre) ⊑ post`` for every recorded atomic statement,
* ``entry ∪ F(inv) ⊑ inv`` at every loop head (post-fixpoint
  stability), and
* that the claimed alarm set is a superset of the alarms the single
  re-application raises.

The checker (:func:`check_certificate`) uses the abstract domains'
``transfer``/``includes`` only — no widening, no narrowing, no memo/
interning/vectorize machinery — so it cannot share a bug with
any engine path.  See docs/soundness.md, "Result certification".
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
