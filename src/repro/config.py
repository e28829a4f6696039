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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from .domains.thresholds import ThresholdSet, default_thresholds

__all__ = ["AnalyzerConfig", "SEMANTICS_VERSION", "baseline_config"]

#: Version of the analysis semantics, salting the serve result/journal
#: keys and the checkpoint fingerprint so entries written by a build with
#: other semantics miss.  Bump it with every change that can alter a bit
#: of a result, even one ulp of a bound (2: incremental octagon closure).
SEMANTICS_VERSION = 2


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

    # -- incremental fixpoint engine (repro.iterator.incremental) ---------------
    # Re-execute only the statements of a widening iteration whose
    # read/write footprint disagrees with the memoized previous
    # execution, splicing recorded post-states for the rest.  Results
    # are bit-identical to full re-execution (--no-incremental).
    # Also switches on the sharing caches (the cell-value intern pool
    # and the octagon closure memo; see analysis._configure_sharing).
    incremental: bool = True

    # -- resource budgets (repro.supervisor) ------------------------------------
    # When any budget trips, the supervisor walks the soundness-
    # preserving degradation ladder instead of aborting: the run always
    # terminates with a sound (possibly coarser) verdict and
    # AnalysisResult.degraded set.  None disables a budget.
    wall_deadline_s: Optional[float] = None
    # Peak-RSS ceiling of the analyzer process, sampled by a watchdog
    # thread.
    rss_limit_kib: Optional[int] = None
    # Soft per-statement timeout, sampled at statement boundaries.
    stmt_timeout_s: Optional[float] = None
    watchdog_interval_s: float = 0.05

    # -- checkpoint / resume (repro.supervisor) ---------------------------------
    # Serialize the analysis at outermost fixpoint-iteration boundaries
    # to this path (atomic overwrite); resume_path restores such a file
    # and continues bit-identically to an uninterrupted run.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    resume_path: Optional[str] = None
    # Fault-injection knob (tests/CI): simulate a kill by raising
    # SupervisorHalt after this many checkpoints have been written.
    checkpoint_halt_after: Optional[int] = None

    # -- result certification (repro.certify) -----------------------------------
    # Record, for every loop occurrence of the checking-mode traversal,
    # the invariant the final checking pass ran from plus the
    # pre-narrowing post-fixpoint it was narrowed from.  The records feed
    # the certificate emitter (--certify / --emit-certificate), which
    # packages them into an engine-independent, content-addressed
    # artifact validated by ``astree-repro check-certificate``.  A pure
    # observation knob: results are unchanged, so it is excluded from the
    # checkpoint and serve fingerprints like ``incremental``.
    certify: bool = False

    # -- reporting --------------------------------------------------------------------
    collect_invariants: bool = False
    # Tracing facilities (Sect. 5.3): when on, the iterator counts abstract
    # visits per statement (exposed as AnalysisResult.visit_counts) — a
    # cheap way to see where the iteration strategy spends its work.
    trace: bool = False

    def with_overrides(self, **kwargs) -> "AnalyzerConfig":
        import dataclasses

        return dataclasses.replace(self, **kwargs)


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
