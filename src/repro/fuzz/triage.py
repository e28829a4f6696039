"""Crash triage: group a campaign's failures by signature.

A campaign that finds one analyzer bug usually finds it fifty times.
Each failing case carries a signature
(:func:`repro.ipc.process.crash_signature` for crashes, ``timeout|<t>s|``
for overruns, an ``unsound|...`` summary for oracle violations), and one
signature bucket is one work item.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["triage_failures"]


def triage_failures(results) -> Dict[str, List[str]]:
    """Group failing case results by signature -> sorted case ids.

    ``results`` is any iterable of objects with ``outcome``, ``signature``
    and ``spec.case_id`` attributes (:class:`repro.fuzz.CaseResult`).
    """
    buckets: Dict[str, List[str]] = {}
    for res in results:
        if res.outcome not in ("crash", "unsound", "timeout"):
            continue
        sig = res.signature or f"{res.outcome}|?|"
        buckets.setdefault(sig, []).append(res.spec.case_id)
    return {sig: sorted(ids) for sig, ids in sorted(buckets.items())}
