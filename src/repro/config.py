"""Analyzer configuration: the end-user parameters of Sect. 3.2 and 7.

"The necessary adaptation of the analyzer to a particular program in the
family is by appropriate choice of some parameters." — every trade-off the
paper exposes is a field here:

* widening thresholds (Sect. 7.1.2) and delay (7.1.3),
* loop unrolling factors (7.1.1),
* the floating iteration perturbation epsilon (7.1.4),
* trace partitioning function selection (7.1.5),
* octagon/boolean packing strategy knobs and the useful-pack restriction
  of the packing optimization (7.2),
* volatile input ranges and the maximal operating time (Sect. 4),
* per-domain enable flags (used by the ablation benchmarks).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .domains.thresholds import ThresholdSet, default_thresholds

__all__ = ["AnalyzerConfig", "SEMANTICS_VERSION", "baseline_config",
           "config_fingerprint"]

#: Version of the analysis semantics, salting config_fingerprint (and so
#: the serve result/journal keys and the certificate fingerprint) so
#: entries written by a build with other semantics miss.  Bump it with
#: every change that can alter a bit of a result, even one ulp of a bound
#: (2: incremental octagon closure; 3: alarm lines after preprocessor
#: directives; 4: block ids, and so octagon packs, across linked units).
SEMANTICS_VERSION = 4


@dataclass
class AnalyzerConfig:
    """All parameters of the analyzer.  The defaults are the refined,
    fully-enabled analyzer; :func:`baseline_config` reproduces the
    interval-only analyzer of [5] that the refinement started from."""

    # -- environment model (Sect. 4) -------------------------------------------
    # Ranges of volatile input variables, by source name: name -> (lo, hi).
    input_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    # Maximal number of clock ticks (maximal continuous operating time).
    max_clock: Optional[int] = 3_600_000

    # -- memory domain -----------------------------------------------------------
    # Arrays larger than this are shrunk to a single summary cell.
    expand_threshold: int = 256

    # -- iteration strategy (Sect. 7.1) --------------------------------------------
    thresholds: Optional[ThresholdSet] = field(default_factory=default_thresholds)
    # Loop unrolling: per-loop-id override and a global default (Sect. 7.1.1).
    loop_unroll: Dict[int, int] = field(default_factory=dict)
    default_unroll: int = 1
    # Delayed widening: number of initial join-only iterations (Sect. 7.1.3).
    widening_delay: int = 2
    # Fairness bound: maximum extra join-only iterations granted while some
    # variable newly stabilizes each round (avoids livelocks, Sect. 7.1.3).
    delay_fairness_bound: int = 8
    # Number of narrowing (decreasing) iterations after stabilization.
    narrowing_steps: int = 2
    # Floating iteration perturbation epsilon (Sect. 7.1.4).
    iteration_epsilon: float = 1e-6
    # Hard cap on widening iterations per loop (safety net).
    max_widening_iterations: int = 60

    # -- trace partitioning (Sect. 7.1.5) --------------------------------------------
    partition_functions: Set[str] = field(default_factory=set)
    max_partition_depth: int = 4

    # -- abstract domains (Sect. 6.2) ----------------------------------------------
    enable_clock: bool = True
    enable_octagons: bool = True
    enable_ellipsoids: bool = True
    enable_decision_trees: bool = True
    enable_linearization: bool = True

    # -- packing (Sect. 7.2) -----------------------------------------------------
    max_octagon_pack_size: int = 8
    # Restrict analysis to these packs (pack keys from a previous run's
    # useful-pack output): the packing optimization of Sect. 7.2.2.
    restrict_octagon_packs: Optional[FrozenSet[Tuple[int, ...]]] = None
    # Boolean pack size cap ("setting this parameter to three yields an
    # efficient and precise analysis", Sect. 7.2.3).
    max_bool_pack_bools: int = 3
    max_bool_pack_numerics: int = 8
    # Inter-octagon propagation through shared variables (Sect. 7.2.1:
    # "we could do some information propagation (i.e. reduction) between
    # octagons at analysis time, using common variables as pivots;
    # however, this precision gain was not needed in our experiments").
    octagon_pivot_reduction: bool = False

    # -- resource budgets (repro.supervisor) ------------------------------------
    # When any budget trips, the supervisor walks the soundness-
    # preserving degradation ladder instead of aborting: the run always
    # terminates with a sound (possibly coarser) verdict and
    # AnalysisResult.degraded set.  None disables a budget.
    wall_deadline_s: Optional[float] = None
    # Peak-RSS ceiling of the analyzer process.
    rss_limit_kib: Optional[int] = None
    # Soft per-statement timeout, sampled at statement boundaries.
    stmt_timeout_s: Optional[float] = None

    # -- result certification (repro.certify) -----------------------------------
    # Record, for every loop occurrence of the checking-mode traversal,
    # the invariant the final checking pass ran from plus the
    # pre-narrowing post-fixpoint it was narrowed from.  The records feed
    # the certificate emitter (--certify / --emit-certificate), which
    # packages them into an engine-independent, content-addressed
    # artifact validated by ``astree-repro check-certificate``.  A pure
    # observation knob: results are unchanged, so it is excluded from the
    # configuration fingerprint.
    certify: bool = False

    # -- reporting --------------------------------------------------------------------
    collect_invariants: bool = False
    # Tracing facilities (Sect. 5.3): when on, the iterator counts abstract
    # visits per statement (exposed as AnalysisResult.visit_counts) — a
    # cheap way to see where the iteration strategy spends its work.
    # Counting needs every execution, so a traced run re-executes every
    # fixpoint body in full with both sharing caches off: the reference
    # engine the differential tests hold statement skipping against.
    trace: bool = False

    def with_overrides(self, **kwargs) -> "AnalyzerConfig":
        import dataclasses

        return dataclasses.replace(self, **kwargs)


#: Performance, robustness and observation knobs that cannot change a
#: (non-degraded) verdict: excluded from the configuration fingerprint.
#: Results are bit-identical across ``certify``; budgets only decide
#: whether a run *finishes* at full precision, and the degradation
#: ladder mutates precision fields in place, so a degraded effective
#: configuration fingerprints differently anyway.
_NON_SEMANTIC_FIELDS = frozenset({
    "wall_deadline_s", "rss_limit_kib", "stmt_timeout_s", "certify",
})


def config_fingerprint(cfg: AnalyzerConfig) -> str:
    """Hash of every analysis-relevant configuration field, threshold
    *values* included, salted with ``SEMANTICS_VERSION``.  The one
    configuration key: serve request and journal keys and certificates
    all build on it."""
    items: List[Tuple[str, str]] = []
    for f in fields(cfg):
        if f.name in _NON_SEMANTIC_FIELDS:
            continue
        v = getattr(cfg, f.name)
        if f.name == "thresholds":
            v = None if v is None else tuple(v.values)
        elif isinstance(v, dict):
            v = tuple(sorted(v.items()))
        elif isinstance(v, (set, frozenset)):
            v = tuple(sorted(v))
        items.append((f.name, repr(v)))
    h = hashlib.sha256()
    for chunk in (str(SEMANTICS_VERSION), repr(sorted(items))):
        h.update(chunk.encode())
        h.update(b"\x00")
    return h.hexdigest()


def baseline_config(**kwargs) -> AnalyzerConfig:
    """The 'analyzer [5] we started with': intervals + clock only, no
    relational domains, no trace partitioning, plain widening ladder."""
    cfg = AnalyzerConfig(
        enable_octagons=False,
        enable_ellipsoids=False,
        enable_decision_trees=False,
        enable_linearization=False,
        widening_delay=0,
        default_unroll=0,
        narrowing_steps=1,
    )
    return cfg.with_overrides(**kwargs) if kwargs else cfg
