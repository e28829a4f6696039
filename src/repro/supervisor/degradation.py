"""The soundness-preserving degradation ladder.

When a budget trips mid-run the supervisor steps down this ladder, one
rung per trip, mutating the (run-owned) :class:`AnalyzerConfig` in place.
Every rung only *removes* precision — a domain stops being updated and,
crucially, stops being *consulted* (all reduction and refinement paths
are gated on the same ``enable_*`` flags) — so each abstract value after
the rung over-approximates the value the full analysis would have
computed.  The verdict stays sound; it merely gets coarser:

1. ``thin-thresholds`` — keep every 4th widening threshold, so unstable
   bounds climb the ladder in far fewer fixpoint iterations;
2. ``drop-ellipsoids`` — digital-filter sites fall back to the interval
   envelope (ellipsoid → octagon/interval per pack);
3. ``drop-octagons`` — relational pack facts are abandoned; cells keep
   their interval bounds;
4. ``interval-only`` — decision trees, linearization, loop unrolling,
   narrowing, and the threshold ladder are all switched off: plain
   interval iteration with straight-to-infinity widening, the cheapest
   configuration that still terminates with a sound verdict.

Stale domain content already stored in live abstract states is harmless:
with the enable flag off, no transfer function, guard, or reduction ever
reads it again, and the persistent-map merges keep it physically shared
(no memory growth).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from ..config import AnalyzerConfig
from ..domains.thresholds import ThresholdSet

__all__ = ["DegradationLadder", "DEGRADATION_RUNGS"]

THRESHOLD_THIN_STRIDE = 4


def _thin_thresholds(cfg: AnalyzerConfig) -> str:
    ts = cfg.thresholds
    if ts is None:
        return "no thresholds to thin"
    finite = [v for v in ts.values if math.isfinite(v) and v != 0.0]
    kept = finite[::THRESHOLD_THIN_STRIDE]
    cfg.thresholds = ThresholdSet(kept)
    return f"widening thresholds {len(finite)} -> {len(kept)}"


def _drop_ellipsoids(cfg: AnalyzerConfig) -> str:
    cfg.enable_ellipsoids = False
    return "filter sites fall back to interval envelopes"


def _drop_octagons(cfg: AnalyzerConfig) -> str:
    cfg.enable_octagons = False
    cfg.octagon_pivot_reduction = False
    return "octagon packs fall back to cell intervals"


def _interval_only(cfg: AnalyzerConfig) -> str:
    cfg.enable_decision_trees = False
    cfg.enable_linearization = False
    cfg.thresholds = None
    cfg.narrowing_steps = 0
    cfg.default_unroll = 0
    cfg.loop_unroll = {}
    return ("interval-only iteration: trees/linearization off, "
            "widening straight to infinity, no unrolling/narrowing")


DEGRADATION_RUNGS: List[Tuple[str, Callable[[AnalyzerConfig], str]]] = [
    ("thin-thresholds", _thin_thresholds),
    ("drop-ellipsoids", _drop_ellipsoids),
    ("drop-octagons", _drop_octagons),
    ("interval-only", _interval_only),
]


class DegradationLadder:
    """Tracks how far down the ladder a run has stepped.

    The config instance handed in must be *owned by the run* (the
    supervisor copies the caller's config before attaching), because the
    rungs mutate it in place — the iterator, transfer functions, and
    guard engine all read the same instance, so a rung takes effect at
    the very next statement.
    """

    def __init__(self, config: AnalyzerConfig) -> None:
        self.config = config
        self.applied: List[str] = []

    @property
    def exhausted(self) -> bool:
        return len(self.applied) >= len(DEGRADATION_RUNGS)

    def step(self) -> Optional[Tuple[str, str]]:
        """Apply the next rung; returns ``(name, detail)`` or ``None``
        when the ladder is exhausted."""
        idx = len(self.applied)
        if idx >= len(DEGRADATION_RUNGS):
            return None
        name, fn = DEGRADATION_RUNGS[idx]
        detail = fn(self.config)
        self.applied.append(name)
        return name, detail
