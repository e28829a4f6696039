"""Analysis-as-a-service: a long-lived daemon with cross-run caching.

The paper's analyzer was run daily on successive versions of one
evolving program family; turnaround time on near-duplicate inputs — not
single-run throughput — is the practical bottleneck.  This package
keeps the expensive state warm across requests:

* :mod:`.server` / :mod:`.client` — the ``astree-repro serve`` daemon
  (length-prefixed JSON frames over a Unix socket: ping/submit/stats/
  health/shutdown) and its submit-and-wait client;
* :mod:`.jobs` — the bounded in-process job queue with per-job
  supervisor budgets;
* :mod:`.cache` — the cross-run fixpoint cache: per-statement
  (pre, post) journals keyed by content fingerprints, spliced into the
  incremental engine of a later run so only edited slices re-execute;
* :mod:`.store` — the on-disk result and journal stores (atomic
  writes; cache warmth survives daemon restarts);
* :mod:`.fingerprints` — the content-addressed keys everything above
  is indexed by;
* :mod:`.workload` — the near-duplicate edit workload used by the
  cost ledger, tests and CI.

Determinism contract: a cache-served result is bit-identical (alarms,
invariant statistics, exit code) to a cold run of the same
source+configuration.  See docs/architecture.md, "Serving and
cross-run caching".
"""

from .cache import CrossRunCache, FrontendCache
from .client import ServeClient
from .fingerprints import result_digest
from .jobs import Job, JobQueue
from .server import AnalysisServer, ServeConfig
from .store import JournalStore, ResultStore

__all__ = [
    "AnalysisServer", "CrossRunCache", "FrontendCache", "Job", "JobQueue",
    "JournalStore", "ResultStore", "ServeClient", "ServeConfig",
    "result_digest",
]
