"""Scalar lattice helpers, the octagon closure oracle, and the
end-to-end engine sweep.

* The bisect-based threshold scans of the interval widening
  (``_largest_leq``/``_smallest_geq``) must agree with a linear scan on
  every boundary case.
* The numpy octagon closure kernel is pinned bit for bit against a
  pure-Python mirror kept here as its oracle.
* A 20-seed sweep of generated family programs holds the default
  engine bit-identical to the reference engine (``trace=True``: full
  re-execution, no sharing caches).
"""

import dataclasses
import math
import random
import struct

import numpy as np
import pytest

from repro.analysis import analyze_program
from repro.domains.octagon import _closed_matrix
from repro.domains.thresholds import default_thresholds
from repro.frontend import compile_source
from repro.numeric.intervals import _largest_leq, _smallest_geq
from repro.synth import FamilySpec, generate_program

INF = math.inf
NAN = math.nan


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestThresholdScan:
    """The bisect rewrite of _largest_leq/_smallest_geq must agree with
    the linear scan on every boundary case."""

    LADDERS = [
        [],
        [-INF, INF],
        [-INF, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, INF],
        [-INF, 0.0, INF],
        list(default_thresholds().values),
    ]

    @staticmethod
    def ref_largest_leq(ts, x):
        best = -INF
        for t in ts:
            if t <= x:
                best = t
        return best

    @staticmethod
    def ref_smallest_geq(ts, x):
        for t in ts:
            if t >= x:
                return t
        return INF

    def probes(self, ladder):
        probes = [NAN, -INF, INF, -0.0, 0.0, 5e-324, -5e-324,
                  1e308, -1e308]
        for t in ladder:
            probes.append(t)                       # exactly on a rung
            if math.isfinite(t):
                probes.append(math.nextafter(t, -INF))
                probes.append(math.nextafter(t, INF))
        return probes

    def test_boundary_exact(self):
        for ladder in self.LADDERS:
            for x in self.probes(ladder):
                got = _largest_leq(ladder, x)
                want = self.ref_largest_leq(ladder, x)
                assert bits(got) == bits(want) or (got == want == 0.0), \
                    (ladder, x, got, want)
                got = _smallest_geq(ladder, x)
                want = self.ref_smallest_geq(ladder, x)
                assert bits(got) == bits(want) or (got == want == 0.0), \
                    (ladder, x, got, want)

    def test_random_scan_fuzz(self):
        rng = random.Random(20030608)
        ladder = sorted({-INF, INF, 0.0,
                         *(rng.uniform(-1e4, 1e4) for _ in range(60))})
        for _ in range(2000):
            x = rng.choice([rng.uniform(-2e4, 2e4), rng.choice(ladder),
                            NAN, -INF, INF])
            assert _largest_leq(ladder, x) == self.ref_largest_leq(ladder, x)
            assert _smallest_geq(ladder, x) == self.ref_smallest_geq(ladder, x)


def _closed_matrix_scalar(m0: np.ndarray, n: int) -> np.ndarray:
    """Pure-Python mirror of :func:`_closed_matrix`, the closure oracle.

    Bit-identity is by construction: every numpy operation of the
    closure kernel is replayed element-wise with the same operand
    reads (each ``via`` plane is materialized from the pre-update
    matrix, exactly like the numpy temporaries), the same IEEE-754
    scalar operations (``math.nextafter`` ≡ ``np.nextafter``), and
    ``np.minimum``'s exact pick semantics (NaN from either operand
    propagates; ties — signed zeros included — keep the first operand).
    """
    def nudge(x: float) -> float:
        # _nudge_up: nextafter toward +inf, ±inf restored, NaN kept.
        if x == INF or x == -INF:
            return x
        return math.nextafter(x, INF)

    def min2(cur: float, new: float) -> float:
        # np.minimum(cur, new): NaN propagates, ties keep ``cur``.
        if new != new:
            return new
        return new if new < cur else cur

    def relax(m, a, b):
        # m[i][j] = min(m[i][j], nudge(a[i] + b[j])) over the whole plane.
        for i in range(size):
            ai = a[i]
            mi = m[i]
            for j in range(size):
                mi[j] = min2(mi[j], nudge(ai + b[j]))

    size = 2 * n
    m = m0.tolist()
    for k in range(n):
        for kk in (2 * k, 2 * k + 1):
            relax(m, [m[i][kk] for i in range(size)], list(m[kk]))
        c01 = m[2 * k][2 * k + 1]
        relax(m, [nudge(m[i][2 * k] + c01) for i in range(size)],
              list(m[2 * k + 1]))
        c10 = m[2 * k + 1][2 * k]
        relax(m, [nudge(m[i][2 * k + 1] + c10) for i in range(size)],
              list(m[2 * k]))
    diag_i = [m[i][i ^ 1] for i in range(size)]
    diag_j = [m[j ^ 1][j] for j in range(size)]
    for i in range(size):
        di = diag_i[i]
        mi = m[i]
        for j in range(size):
            mi[j] = min2(mi[j], nudge(nudge(di + diag_j[j]) / 2.0))
    return np.array(m, dtype=np.float64)


class TestClosureOracle:
    """The pure-Python closure mirror is bit-identical to the numpy
    Floyd-Warshall + strengthening kernel."""

    @staticmethod
    def random_dbm(rng: random.Random, n: int) -> np.ndarray:
        size = 2 * n
        m = np.full((size, size), INF, dtype=np.float64)
        for i in range(size):
            m[i][i] = 0.0
            for j in range(size):
                if i == j:
                    continue
                r = rng.random()
                if r < 0.35:
                    continue
                if r < 0.42:
                    m[i][j] = rng.choice(
                        [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324])
                else:
                    m[i][j] = rng.uniform(-1e3, 1e3) * \
                        (10.0 ** rng.randint(-2, 2))
        return m

    def test_bit_identical(self):
        rng = random.Random(0x0C7A60)
        with np.errstate(over="ignore", invalid="ignore"):
            for trial in range(60):
                n = rng.randint(1, 6)
                m0 = self.random_dbm(rng, n)
                vec = _closed_matrix(m0, n)
                ref = _closed_matrix_scalar(m0, n)
                assert vec.tobytes() == ref.tobytes(), (trial, n)


# -- end-to-end differential matrix ------------------------------------------

SWEEP = [(0.05 + 0.005 * (s % 5), 300 + s) for s in range(20)]


def _family(kloc: float, seed: int):
    gp = generate_program(FamilySpec(target_kloc=kloc, seed=seed))
    cfg = gp.analyzer_config(collect_invariants=True)
    prog = compile_source(gp.source, "family.c")
    return prog, cfg


def _snapshot(result) -> dict:
    return {
        "alarms": [(a.kind, a.sid, a.loc.line, a.loc.col, a.message)
                   for a in result.alarms],
        "exit_code": result.exit_code,
        "invariant": result.dump_invariant_text(),
        "useful_oct": sorted(result.useful_octagon_packs),
    }


class TestDifferentialMatrix:
    @pytest.mark.parametrize("kloc,seed", SWEEP)
    def test_sweep(self, kloc, seed):
        prog, cfg = _family(kloc, seed)
        base = analyze_program(prog, cfg)
        full = analyze_program(prog, dataclasses.replace(cfg, trace=True))
        assert _snapshot(base) == _snapshot(full)

    def test_fallback_widening_attributed_to_lattice(self):
        """Budget-exhausted (threshold-free) widening runs outside the
        timed AbstractState wrappers; its wall time must still land in
        the lattice split of the iteration phase."""
        prog, cfg = _family(0.06, 404)
        cfg = dataclasses.replace(cfg, max_widening_iterations=1,
                                  widening_delay=0)
        result = analyze_program(prog, cfg)
        assert result.phase_times["iteration-lattice"] > 0.0
