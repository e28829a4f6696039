"""Resource budgets.

A budget never kills the analysis: the supervisor checks it when the
iterator polls at statement and fixpoint-iteration boundaries, and
answers a trip by stepping down the degradation ladder (see
:mod:`.degradation`).  The run therefore always terminates with a
sound — possibly coarser — verdict.

The RSS ceiling is checked against the *peak* resident set size of the
analyzer process (``VmHWM`` from ``/proc/self/status`` where available,
else ``ru_maxrss``).  Peak RSS is monotone, so once the ceiling trips it
stays tripped: the ladder runs to the end and the analysis finishes
under the cheapest sound configuration.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["ResourceBudget", "peak_rss_self_kib"]


def peak_rss_self_kib() -> int:
    """Peak RSS of this process only, in KiB.

    Children are not counted: the analyzer runs no workers, so
    ``RUSAGE_CHILDREN`` would only see unrelated processes the caller
    has reaped.  ``VmHWM`` from ``/proc/self/status`` where it exists:
    on Linux the ``ru_maxrss`` of an exec'd process also covers the
    spawning process's high-water mark, carried across vfork and
    exec."""
    try:
        with open("/proc/self/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        rss //= 1024
    return int(rss)


@dataclass
class ResourceBudget:
    """The per-run limits; ``None`` disables the corresponding check."""

    wall_deadline_s: Optional[float] = None
    rss_limit_kib: Optional[int] = None
    stmt_timeout_s: Optional[float] = None

    def check(self, started_at: float,
              sample_rss: bool = True) -> Optional[str]:
        """Return the name of the first exceeded budget, or ``None``.
        The RSS read is a syscall; ``sample_rss=False`` skips it."""
        if (self.wall_deadline_s is not None
                and time.perf_counter() - started_at > self.wall_deadline_s):
            return "deadline"
        if (self.rss_limit_kib is not None and sample_rss
                and peak_rss_self_kib() > self.rss_limit_kib):
            return "rss"
        return None
