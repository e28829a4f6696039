"""The octagon abstract domain with sound float handling (Sect. 6.2.2).

Octagons represent conjunctions of constraints of the form ``±x ±y <= c``
in cubic time and quadratic space, using a difference-bound matrix (DBM)
over doubled variables: index ``2i`` stands for ``+v_i`` and ``2i+1`` for
``-v_i``; ``m[i][j]`` bounds ``V_j - V_i`` (so, e.g., ``m[2j][2i] = c``
encodes ``v_i - v_j <= c``) [Miné, WCRE 2001].

Following the paper's recipe for floating-point relational domains:

* the octagon itself is a *sound abstract domain for variables in the real
  field*: all internal bound computations round upward (a one-ulp outward
  nudge after each operation), so every manipulation over-approximates the
  exact real-field result;
* concrete floating-point expressions reach the octagon only as interval
  linear forms (Sect. 6.3) whose constant term already includes the
  concrete rounding errors.

One octagon abstracts one *pack* of variables (Sect. 7.2.1); packs are
small, so the cubic closure stays cheap, and the analyzer holds a map from
pack id to octagon inside the shared functional-map state.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..numeric import FloatInterval, LinearForm
from ..numeric.float_utils import add_up, div_up, mul_up

__all__ = ["CLOSURE_MEMO_CAPACITY", "Octagon", "closure_memo_stats",
           "configure_closure_memo"]

_INF = math.inf

# Value-keyed closure memo (part of the incremental engine's sharing
# machinery, see repro.iterator.incremental): maps a raw matrix and its
# pivot set (None for the full kernel) to its strongly-closed octagon.
# Closure is a deterministic function of that pair, so two ==-equal raw
# octagons closed with the same pivots have bit-identical closures and
# may share one result object.  Bounded with FIFO eviction: at capacity
# only the oldest insertions are dropped (a batch at a time), so a full
# memo sheds cold entries instead of cold-starting the whole hot set
# (it is a cache — dropping entries costs time, never correctness).
# Off by default; analyze_program enables it with CLOSURE_MEMO_CAPACITY
# entries for every run except a traced one (the reference engine).
CLOSURE_MEMO_CAPACITY = 8192
_CLOSURE_MEMO: Dict[Tuple[bytes, Optional[Tuple[int, ...]]], "Octagon"] = {}
_CLOSURE_MEMO_MAX = 0
_CLOSURE_HITS = 0
_CLOSURE_EVICTIONS = 0


def configure_closure_memo(max_size: int) -> None:
    """Set the closure memo capacity; 0 (or negative) disables it.

    A disabled memo is neither consulted nor filled, but it keeps its
    entries and its hit/eviction counters, and reconfiguring keeps them
    too: a long-lived process analyzing many programs — the ``serve``
    daemon — stays warm across requests and the certificate walks
    between them, and closure is a pure function of the matrix and
    pivots alone, so entries are valid across programs.  A smaller
    capacity evicts the oldest entries down to it."""
    global _CLOSURE_MEMO_MAX
    _CLOSURE_MEMO_MAX = max_size
    while 0 < max_size < len(_CLOSURE_MEMO):
        del _CLOSURE_MEMO[next(iter(_CLOSURE_MEMO))]


def _evict_closure_memo() -> None:
    """Drop the oldest eighth of the memo (dicts iterate in insertion
    order, so ``next(iter(...))`` is always the oldest surviving key)."""
    global _CLOSURE_EVICTIONS
    batch = max(1, _CLOSURE_MEMO_MAX // 8)
    for _ in range(min(batch, len(_CLOSURE_MEMO))):
        del _CLOSURE_MEMO[next(iter(_CLOSURE_MEMO))]
        _CLOSURE_EVICTIONS += 1


def closure_memo_stats() -> Tuple[int, int, int]:
    """(hits, current size, evictions)."""
    return _CLOSURE_HITS, len(_CLOSURE_MEMO), _CLOSURE_EVICTIONS


_DBL_MAX = float(np.finfo(np.float64).max)


def _nudge_up(a: np.ndarray, restore: bool = True) -> np.ndarray:
    """One-ulp upward nudge of every finite entry, in place (soundness
    of + on reals).  ``nextafter(x, +inf) == -DBL_MAX`` iff ``x == -inf``,
    so restoring -inf is exact; a caller that proved no entry can be
    -inf skips it."""
    np.nextafter(a, _INF, out=a)
    if restore:
        a[a == -_DBL_MAX] = -_INF
    return a


def _closed_matrix(m0: np.ndarray, n: int) -> np.ndarray:
    """The full closure kernel: Floyd-Warshall over the doubled graph
    with upward rounding, then octagonal strengthening.  Returns the
    tightened matrix; the caller decides bottom vs closed."""
    m = m0.copy()
    for k in range(n):
        for kk in (2 * k, 2 * k + 1):
            # Floyd-Warshall step through node kk, rounding up.
            np.minimum(m, _nudge_up(m[:, kk:kk + 1] + m[kk:kk + 1, :]), out=m)
        # Combined path through both 2k and 2k+1.
        a = _nudge_up(m[:, 2 * k:2 * k + 1] + m[2 * k, 2 * k + 1])
        np.minimum(m, _nudge_up(a + m[2 * k + 1:2 * k + 2, :]), out=m)
        a = _nudge_up(m[:, 2 * k + 1:2 * k + 2] + m[2 * k + 1, 2 * k])
        np.minimum(m, _nudge_up(a + m[2 * k:2 * k + 1, :]), out=m)
    return _strengthen(m, True)


def _closed_matrix_pivots(m0: np.ndarray,
                          pivots: Tuple[int, ...]) -> np.ndarray:
    """The incremental closure kernel [Miné, HOSC 2006, Sect. 4.3.4]:
    strong closure of ``m0`` in O(n^2) array work, provided every entry
    outside the rows and columns of the ``pivots`` variables is already
    strongly closed (``m0`` is a closed matrix edited in those rows and
    columns only).

    With T the touched nodes (2v and 2v+1 of each pivot v) and U the
    rest, the U x U block already holds the shortest U-paths.  Relaxing
    the T columns through every node makes each U -> T entry a shortest
    U-path; relaxing the T rows through the updated columns does the
    same for T -> U and T -> T.  Floyd-Warshall through the T nodes
    alone then adds the paths that visit T, and one strengthening makes
    the result strongly closed [Bagnara et al., 2009].  Every entry is
    a nudged-up sum of input entries, so the result is sound whatever
    the input; the precondition only buys precision."""
    m = m0.copy()
    # Each of the 4|pivots| + 1 sum steps (two relaxations and two
    # Floyd-Warshall steps per pivot, the strengthening sum) at most
    # doubles the most negative entry, so above this bound no sum can
    # overflow to -inf and the restore is skipped.  NaN fails the
    # comparison and keeps it.
    restore = not (m.min() * 2.0 ** (1 + 4 * len(pivots)) > -_DBL_MAX)
    spans = [slice(2 * v, 2 * v + 2) for v in pivots]
    # The relaxations take the minimum over k before nudging: nextafter
    # is monotone, so nudge(min) == min(nudge) bit for bit.
    for s in spans:
        cols = m[:, s].T                               # cols[c, i] = m[i][c]
        via = m[None, :, :] + np.ascontiguousarray(cols)[:, None, :]
        np.minimum(cols, _nudge_up(via.min(axis=2), restore), out=cols)
    mt = m.T.copy()
    for s in spans:
        rows = m[s]                                    # rows[r, j] = m[r][j]
        via = rows[:, None, :] + mt[None, :, :]
        np.minimum(rows, _nudge_up(via.min(axis=2), restore), out=rows)
    for v in pivots:
        for k in (2 * v, 2 * v + 1):
            np.minimum(m, _nudge_up(m[:, k:k + 1] + m[k:k + 1, :], restore),
                       out=m)
    return _strengthen(m, restore)


def _strengthen(m: np.ndarray, restore: bool) -> np.ndarray:
    """m[i][j] <= (m[i][bar i] + m[bar j][j]) / 2, in place."""
    unary_i, unary_j = _unary_index(m.shape[0])
    half = m.take(unary_i)[:, None] + m.take(unary_j)[None, :]
    np.minimum(m, _nudge_up(_nudge_up(half, restore) / 2.0, restore), out=m)
    return m


def _set2(m: np.ndarray, i: int, j: int, c: float) -> None:
    """Tighten m[i][j] and its coherent mirror m[bar j][bar i] to <= c."""
    if c < m[i, j]:
        m[i, j] = c
    bi, bj = j ^ 1, i ^ 1
    if c < m[bi, bj]:
        m[bi, bj] = c


class Octagon:
    """An octagon over ``n`` pack variables (identified by position).

    Instances are treated as immutable: every operation returns a new
    octagon (possibly ``self`` when nothing changed).  ``None`` entries
    never appear; bottom is represented by a dedicated flag discovered
    during closure (a negative diagonal entry).
    """

    __slots__ = ("n", "m", "_closed", "_bottom", "_closed_cache")

    #: Number of closures actually run, full or incremental (all
    #: instances).  Monitored by tests asserting the cache is consumed.
    closure_computations = 0

    def __init__(self, n: int, m: Optional[np.ndarray] = None,
                 closed: bool = False, bottom: bool = False):
        self.n = n
        if m is None:
            m = np.full((2 * n, 2 * n), _INF, dtype=np.float64)
            np.fill_diagonal(m, 0.0)
        self.m = m
        self._closed = closed
        self._bottom = bottom
        self._closed_cache: Optional["Octagon"] = None

    # -- serialization -----------------------------------------------------------
    #
    # Widening requires RAW (unclosed) left matrices, so pickling must
    # preserve the matrix and the ``_closed`` flag exactly; only the
    # derived closure cache is dropped.

    def __getstate__(self):
        return (self.n, self.m, self._closed, self._bottom)

    def __setstate__(self, state):
        self.n, self.m, self._closed, self._bottom = state
        self._closed_cache = None

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def top(n: int) -> "Octagon":
        return Octagon(n, closed=True)

    @staticmethod
    def make_bottom(n: int) -> "Octagon":
        return Octagon(n, closed=True, bottom=True)

    @property
    def is_bottom(self) -> bool:
        return self._bottom

    @property
    def is_top(self) -> bool:
        """Cheap top test: only the zero diagonal is finite."""
        return (not self._bottom
                and np.count_nonzero(np.isfinite(self.m)) == 2 * self.n)

    def copy(self) -> "Octagon":
        return Octagon(self.n, self.m.copy(), self._closed, self._bottom)

    # -- closure ------------------------------------------------------------------

    def closed(self, pivots: Optional[Tuple[int, ...]] = None) -> "Octagon":
        """Strong closure (all implied constraints made explicit), sound
        w.r.t. real arithmetic via upward rounding.

        ``pivots`` (sorted positions) declares the matrix a strongly
        closed one edited only in those variables' rows and columns,
        which the O(n^2) incremental kernel closes."""
        if self._closed or self._bottom:
            return self
        if self._closed_cache is not None:
            return self._closed_cache
        if np.count_nonzero(np.isfinite(self.m)) == 2 * self.n:
            # Top octagon (only the zero diagonal is finite): already closed.
            out = Octagon(self.n, self.m, closed=True)
            self._closed_cache = out
            return out
        key = None
        if _CLOSURE_MEMO_MAX > 0:
            key = (self.m.tobytes(), pivots)
            cached = _CLOSURE_MEMO.get(key)
            if cached is not None:
                global _CLOSURE_HITS
                _CLOSURE_HITS += 1
                self._closed_cache = cached
                return cached
        Octagon.closure_computations += 1
        if pivots is None:
            m = _closed_matrix(self.m, self.n)
        else:
            m = _closed_matrix_pivots(self.m, pivots)
        if (m.diagonal() < 0.0).any():
            out = Octagon.make_bottom(self.n)
        else:
            np.fill_diagonal(m, 0.0)
            out = Octagon(self.n, m, closed=True)
        self._closed_cache = out
        if key is not None:
            if len(_CLOSURE_MEMO) >= _CLOSURE_MEMO_MAX:
                _evict_closure_memo()
            _CLOSURE_MEMO[key] = out
        return out

    def _reclosed(self, m: np.ndarray, *touched: int) -> "Octagon":
        """Close ``m``, this octagon's matrix edited only in the rows and
        columns of the ``touched`` variables: incrementally when this
        octagon is strongly closed (not a raw ``widen`` result)."""
        if not self._closed:
            return Octagon(self.n, m).closed()
        if (m == self.m).all():
            return self  # the edit tightened nothing
        return Octagon(self.n, m).closed(tuple(sorted(set(touched))))

    # -- lattice --------------------------------------------------------------------

    def join(self, other: "Octagon") -> "Octagon":
        if self._bottom:
            return other
        if other._bottom:
            return self
        if self is other:
            return self.closed()
        # ``closed()`` consumes ``_closed_cache`` when present, so already
        # closed operands cost nothing here; the entry-wise max of two
        # closed matrices is closed, hence the result is tagged closed and
        # never re-runs the cubic closure.
        a = self.closed()
        b = other.closed()
        return Octagon(self.n, np.maximum(a.m, b.m), closed=True)

    def meet(self, other: "Octagon") -> "Octagon":
        if self._bottom or other._bottom:
            return Octagon.make_bottom(self.n)
        return Octagon(self.n, np.minimum(self.m, other.m)).closed()

    def widen(self, other: "Octagon",
              thresholds: Optional[Sequence[float]] = None) -> "Octagon":
        """Entry-wise widening: unstable bounds jump to the next threshold
        (or infinity).  The left argument must NOT be closed before widening
        (closure can defeat termination); we widen raw matrices."""
        if self._bottom:
            return other
        if other._bottom:
            return self
        b = other.closed()
        m = self.m.copy()
        unstable = b.m > self.m
        if thresholds is None:
            m[unstable] = _INF
        else:
            ts = np.asarray(sorted(t for t in thresholds), dtype=np.float64)
            vals = b.m[unstable]
            idx = np.searchsorted(ts, vals, side="left")
            idx = np.clip(idx, 0, len(ts) - 1)
            chosen = ts[idx]
            chosen[chosen < vals] = _INF  # no threshold above: go to top
            m[unstable] = chosen
        return Octagon(self.n, m, closed=False)

    def narrow(self, other: "Octagon") -> "Octagon":
        if self._bottom or other._bottom:
            return other
        b = other.closed()
        m = self.m.copy()
        at_inf = np.isinf(m)
        m[at_inf] = b.m[at_inf]
        return Octagon(self.n, m).closed()

    def includes(self, other: "Octagon") -> bool:
        """True when other ⊆ self: every constraint of self is implied by
        the (tightest, closed) constraints of other."""
        if other._bottom:
            return True
        if self._bottom:
            return False
        if self is other:
            return True
        return bool(np.all(other.closed().m <= self.m))

    def equal(self, other: "Octagon") -> bool:
        if self._bottom or other._bottom:
            return self._bottom == other._bottom
        a, b = self.closed(), other.closed()
        return bool(np.array_equal(a.m, b.m))

    def raw_equal(self, other: "Octagon") -> bool:
        """Representation equality without closure: same raw matrix (or
        both bottom).  Sufficient for semantic equality — used by the
        incremental engine's agreement check, where a cubic closure just
        to compare would defeat the point of skipping."""
        if self._bottom or other._bottom:
            return self._bottom == other._bottom
        return self.m is other.m or bool(np.array_equal(self.m, other.m))

    # -- constraint access ------------------------------------------------------------

    def var_interval(self, i: int) -> FloatInterval:
        """Bounds for variable i implied by the octagon (after closure)."""
        if self._bottom:
            return FloatInterval.empty()
        m = self.closed().m
        hi = div_up(m.item(2 * i + 1, 2 * i), 2.0)      # v_i <= m/2
        lo = -div_up(m.item(2 * i, 2 * i + 1), 2.0)     # -v_i <= m/2
        return FloatInterval.of(lo, hi)

    def sum_bound(self, i: int, j: int) -> FloatInterval:
        """Bounds for v_i + v_j."""
        if self._bottom:
            return FloatInterval.empty()
        m = self.closed().m
        hi = m.item(2 * j + 1, 2 * i)   # v_i - (-v_j) = v_i + v_j <= m
        lo = -m.item(2 * j, 2 * i + 1)
        return FloatInterval.of(lo, hi)

    def diff_bound(self, i: int, j: int) -> FloatInterval:
        """Bounds for v_i - v_j."""
        if self._bottom:
            return FloatInterval.empty()
        m = self.closed().m
        hi = m.item(2 * j, 2 * i)
        lo = -m.item(2 * j + 1, 2 * i + 1)
        return FloatInterval.of(lo, hi)

    def finite_constraint_count(self) -> Tuple[int, int]:
        """(additive, subtractive) finite octagonal constraints, for the
        invariant statistics of the experiment E4."""
        if self._bottom:
            return (0, 0)
        add = sub = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                s = self.sum_bound(i, j)
                d = self.diff_bound(i, j)
                if s.is_bounded:
                    add += 1
                if d.is_bounded:
                    sub += 1
        return add, sub

    # -- transfer functions --------------------------------------------------------

    def set_var_bounds(self, i: int, iv: FloatInterval) -> "Octagon":
        """Intersect with lo <= v_i <= hi."""
        if self._bottom or iv.is_top:
            return self
        if iv.is_empty:
            return Octagon.make_bottom(self.n)
        m = self.m.copy()
        if iv.hi < _INF:
            _set2(m, 2 * i + 1, 2 * i, mul_up(2.0, iv.hi))
        if iv.lo > -_INF:
            _set2(m, 2 * i, 2 * i + 1, mul_up(2.0, -iv.lo))
        return self._reclosed(m, i)

    def forget(self, i: int) -> "Octagon":
        """Project out all constraints on variable i (keep implied ones)."""
        if self._bottom:
            return self
        c = self.closed()
        m = c.m.copy()
        m[2 * i, :] = _INF
        m[2 * i + 1, :] = _INF
        m[:, 2 * i] = _INF
        m[:, 2 * i + 1] = _INF
        m[2 * i, 2 * i] = 0.0
        m[2 * i + 1, 2 * i + 1] = 0.0
        return Octagon(self.n, m, closed=True)

    def assign_interval(self, i: int, iv: FloatInterval) -> "Octagon":
        """v_i := a fresh value in ``iv`` (non-relational assignment)."""
        return self.forget(i).set_var_bounds(i, iv)

    def assign_var_plus_interval(self, i: int, j: int, delta: FloatInterval,
                                 j_bounds: Optional[FloatInterval] = None) -> "Octagon":
        """v_i := v_j + delta (the paper's 'smart' transfer for L := Z + V:
        extract V's interval and synthesize c <= L - Z <= d).

        ``j_bounds``, when given, seeds unary bounds for v_j in the same
        matrix edit so the subsequent closure derives v_i's range too.
        """
        if self._bottom:
            return self
        if delta.is_empty:
            return Octagon.make_bottom(self.n)
        if i == j:
            return self.shift_var(i, delta)
        out = self.forget(i)
        m = out.m.copy()
        # v_i - v_j <= delta.hi ; v_j - v_i <= -delta.lo
        if delta.hi < _INF:
            _set2(m, 2 * j, 2 * i, delta.hi)
        if delta.lo > -_INF:
            _set2(m, 2 * i, 2 * j, -delta.lo)
        _seed_bounds(m, j, j_bounds)
        return out._reclosed(m, i, j)

    def assign_neg_var_plus_interval(self, i: int, j: int, delta: FloatInterval,
                                     j_bounds: Optional[FloatInterval] = None) -> "Octagon":
        """v_i := -v_j + delta (encodes v_i + v_j in [delta])."""
        if self._bottom:
            return self
        if delta.is_empty:
            return Octagon.make_bottom(self.n)
        if i == j:
            # v_i := -v_i + delta: old and new values both constrained;
            # fall back to interval assignment by the caller.
            iv = self.var_interval(i).neg().add(delta)
            return self.assign_interval(i, iv)
        out = self.forget(i)
        m = out.m.copy()
        # v_i + v_j <= delta.hi ; -(v_i + v_j) <= -delta.lo
        if delta.hi < _INF:
            _set2(m, 2 * j + 1, 2 * i, delta.hi)
        if delta.lo > -_INF:
            _set2(m, 2 * j, 2 * i + 1, -delta.lo)
        _seed_bounds(m, j, j_bounds)
        return out._reclosed(m, i, j)

    def shift_var(self, i: int, delta: FloatInterval) -> "Octagon":
        """v_i := v_i + delta."""
        if self._bottom or delta.is_empty:
            return Octagon.make_bottom(self.n) if delta.is_empty else self
        c = self.closed()
        m = c.m.copy()
        # Row/col for +v_i: constraints V_j - v_i <= c become <= c - lo.
        lo, hi = delta.lo, delta.hi
        pos, neg = 2 * i, 2 * i + 1
        for j in range(2 * self.n):
            if j in (pos, neg):
                continue
            if m[pos, j] < _INF:  # V_j - v_i <= c  ->  c - lo
                m[pos, j] = add_up(m[pos, j], -lo) if lo > -_INF else _INF
            if m[j, pos] < _INF:  # v_i - V_j <= c  ->  c + hi
                m[j, pos] = add_up(m[j, pos], hi) if hi < _INF else _INF
            if m[neg, j] < _INF:  # V_j + v_i <= c  ->  c + hi
                m[neg, j] = add_up(m[neg, j], hi) if hi < _INF else _INF
            if m[j, neg] < _INF:  # -v_i - V_j <= c  ->  c - lo
                m[j, neg] = add_up(m[j, neg], -lo) if lo > -_INF else _INF
        # Unary bounds: v_i <= c/2 -> v_i <= c/2 + hi (stored doubled).
        if m[neg, pos] < _INF:
            m[neg, pos] = add_up(m[neg, pos], mul_up(2.0, hi)) if hi < _INF else _INF
        if m[pos, neg] < _INF:
            m[pos, neg] = add_up(m[pos, neg], mul_up(2.0, -lo)) if lo > -_INF else _INF
        return c._reclosed(m, i)

    def guard_upper(self, coeffs: Dict[int, int], bound: float,
                    seed_bounds: Optional[Dict[int, FloatInterval]] = None) -> "Octagon":
        """Intersect with ``sum coeffs[i] * v_i <= bound`` where the coeffs
        are +1/-1 and at most two variables are involved.  ``seed_bounds``
        optionally installs unary bounds (pos -> interval) in the same
        edit so the closure can combine them with the new constraint."""
        if self._bottom:
            return self
        items = [(i, s) for i, s in coeffs.items() if s != 0]
        if not items or len(items) > 2:
            return self
        m = self.m.copy()
        if seed_bounds:
            for pos, iv in seed_bounds.items():
                _seed_bounds(m, pos, iv)
        if len(items) == 1:
            (i, s), = items
            if s > 0:  # v_i <= bound
                _set2(m, 2 * i + 1, 2 * i, mul_up(2.0, bound))
            else:  # -v_i <= bound
                _set2(m, 2 * i, 2 * i + 1, mul_up(2.0, bound))
        else:
            (i, si), (j, sj) = items
            if si > 0 and sj > 0:      # v_i + v_j <= bound
                _set2(m, 2 * j + 1, 2 * i, bound)
            elif si > 0 and sj < 0:    # v_i - v_j <= bound
                _set2(m, 2 * j, 2 * i, bound)
            elif si < 0 and sj > 0:    # v_j - v_i <= bound
                _set2(m, 2 * i, 2 * j, bound)
            else:                      # -v_i - v_j <= bound
                _set2(m, 2 * j, 2 * i + 1, bound)
        return self._reclosed(m, *(i for i, _ in items), *(seed_bounds or ()))

    def assign_linear_form(self, i: int, form: LinearForm,
                           var_index: Dict[object, int],
                           lookup) -> "Octagon":
        """Best-effort relational assignment of a linear form to v_i.

        ``var_index`` maps linear-form variable ids to pack positions;
        ``lookup(var_id)`` gives the interval of any variable (pack member
        or not).  Variables outside the pack are intervalized into the
        constant.  If exactly one pack variable remains with coefficient
        [1,1] (or [-1,-1]), a relational assignment is performed — this is
        the transfer function that proves ``c <= L - Z <= d`` in the
        paper's example.  Otherwise the assignment degrades to an interval
        assignment.
        """
        if self._bottom:
            return self
        # Split coefficients into in-pack and out-of-pack parts.
        const = form.const
        residue = FloatInterval.const(0.0)
        in_pack: List[Tuple[object, int, FloatInterval]] = []  # (vid, pos, coeff)
        for v, c in form.coeffs:
            if v in var_index:
                in_pack.append((v, var_index[v], c))
            else:
                residue = residue.add(c.mul(lookup(v)))
        const = const.add(residue)

        def pack_interval(vid, pos) -> FloatInterval:
            return self.var_interval(pos).meet(lookup(vid))

        # Identify the unit-coefficient pack variable whose choice as the
        # relational partner leaves the *narrowest* residue: for
        # b := a + o with o in [1,5] and a in [0,100], keeping b - a in
        # [1,5] is what proves the paper's L := Z + V example, whereas
        # b - o in [0,100] is nearly useless.
        candidates: List[Tuple[int, int, object]] = []  # (pos, sign, vid)
        for vid, pos, c in in_pack:
            if c.is_const and c.lo in (1.0, -1.0):
                candidates.append((pos, int(c.lo), vid))
        best = None  # (width, pos, sign, vid, delta)
        for pos, sign, vid in candidates:
            extra = FloatInterval.const(0.0)
            ok = True
            for ovid, opos, oc in in_pack:
                if opos == pos and ovid == vid:
                    continue
                extra = extra.add(oc.mul(pack_interval(ovid, opos)))
                if extra.is_top:
                    ok = False
                    break
            if not ok:
                continue
            delta = const.add(extra)
            width = delta.width() if delta.is_bounded else math.inf
            if best is None or width < best[0]:
                best = (width, pos, sign, vid, delta)
        if best is not None and best[0] < math.inf:
            _, j, sign, j_vid, delta = best
            jb = lookup(j_vid)
            if sign > 0:
                return self.assign_var_plus_interval(i, j, delta, j_bounds=jb)
            return self.assign_neg_var_plus_interval(i, j, delta, j_bounds=jb)
        # Fallback: interval assignment (intervalize every in-pack term).
        iv = const
        for vid, pos, c in in_pack:
            iv = iv.add(c.mul(pack_interval(vid, pos)))
        return self.assign_interval(i, iv)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._bottom:
            return "Octagon(bottom)"
        lines = []
        for i in range(self.n):
            lines.append(f"v{i} in {self.var_interval(i)!r}")
        return "Octagon(" + "; ".join(lines) + ")"


def _seed_bounds(m: np.ndarray, pos: int, iv: Optional[FloatInterval]) -> None:
    """Install unary bounds for the variable at ``pos`` into matrix ``m``."""
    if iv is None or iv.is_empty or iv.is_top:
        return
    if iv.hi < _INF:
        _set2(m, 2 * pos + 1, 2 * pos, mul_up(2.0, iv.hi))
    if iv.lo > -_INF:
        _set2(m, 2 * pos, 2 * pos + 1, mul_up(2.0, -iv.lo))


@functools.lru_cache(maxsize=None)
def _unary_index(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of m[i][bar i] and of m[bar j][j], where bar(2i) =
    2i+1 and bar(2i+1) = 2i."""
    idx = np.arange(size)
    bar = idx ^ 1
    return idx * size + bar, bar * size + idx

