"""Vectorized environment lattice kernels: bit-identity to the scalar
oracle, threshold-scan boundary behavior, the batching crossover, and
the end-to-end differential matrix across vectorize/incremental.

The contract under test (see numeric/interval_kernels.py): every
batched numpy kernel produces *bit-identical* results to the scalar
implementation it replaces, for every input including NaN bounds,
signed zeros, infinities and empty intervals.  That property is what
lets the ``vectorize`` knob stay out of the checkpoint/serve
fingerprints.  The numpy octagon closure kernel is pinned the same way
against a pure-Python mirror kept here as its oracle.
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
from repro.domains.values import CellValue
from repro.frontend import compile_source
from repro.memory import environment
from repro.memory.environment import MemoryEnv
from repro.numeric import FloatInterval, IntInterval
from repro.numeric import interval_kernels as K
from repro.numeric.intervals import _largest_leq, _smallest_geq
from repro.synth import FamilySpec, generate_program

INF = math.inf
NAN = math.nan


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: Adversarial interval population: signed zeros, NaN bounds, infinite
#: and half-infinite bounds, canonical and non-canonical empties,
#: subnormals, extreme magnitudes, points.
SPECIALS = [
    FloatInterval(0.0, 1.0),
    FloatInterval(-1.0, 1.0),
    FloatInterval(-0.0, 0.0),
    FloatInterval(0.0, -0.0),          # lo > hi is False: NOT empty
    FloatInterval(-0.0, -0.0),
    FloatInterval(-INF, INF),
    FloatInterval(INF, -INF),          # canonical empty
    FloatInterval(5.0, 2.0),           # non-canonical empty
    FloatInterval(NAN, 1.0),
    FloatInterval(1.0, NAN),
    FloatInterval(NAN, NAN),
    FloatInterval(-INF, -1e308),
    FloatInterval(1e308, INF),
    FloatInterval(5e-324, 1e-300),     # subnormal bounds
    FloatInterval(-1.5, -1.5),
    FloatInterval(2.0, 2.0),
]


def random_interval(rng: random.Random) -> FloatInterval:
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIALS)
    lo = rng.uniform(-1e6, 1e6) * (10.0 ** rng.randint(-3, 3))
    if rng.random() < 0.1:
        return FloatInterval(lo, lo)
    return FloatInterval(lo, lo + abs(rng.gauss(0, 100.0)))


def pair_population():
    """All special x special pairs plus seeded random filler."""
    pairs = [(x, y) for x in SPECIALS for y in SPECIALS]
    rng = random.Random(0xA57E8)
    pairs += [(random_interval(rng), random_interval(rng))
              for _ in range(500)]
    return pairs


def assert_planes_bit_identical(scalar_results, out_lo, out_hi, tag):
    ref_lo, ref_hi = K.planes(scalar_results)
    assert ref_lo.tobytes() == out_lo.tobytes(), tag
    assert ref_hi.tobytes() == out_hi.tobytes(), tag


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

    def test_vector_scan_matches_scalar(self):
        for ladder in self.LADDERS:
            arr = np.asarray(ladder, dtype=np.float64)
            xs = np.asarray(self.probes(ladder), dtype=np.float64)
            leq = K._largest_leq_vec(arr, xs)
            geq = K._smallest_geq_vec(arr, xs)
            for i, x in enumerate(xs.tolist()):
                assert bits(leq[i]) == bits(_largest_leq(ladder, x)), \
                    (ladder, x)
                assert bits(geq[i]) == bits(_smallest_geq(ladder, x)), \
                    (ladder, x)

    def test_random_scan_fuzz(self):
        rng = random.Random(20030608)
        ladder = sorted({-INF, INF, 0.0,
                         *(rng.uniform(-1e4, 1e4) for _ in range(60))})
        for _ in range(2000):
            x = rng.choice([rng.uniform(-2e4, 2e4), rng.choice(ladder),
                            NAN, -INF, INF])
            assert _largest_leq(ladder, x) == self.ref_largest_leq(ladder, x)
            assert _smallest_geq(ladder, x) == self.ref_smallest_geq(ladder, x)


class TestKernelBitIdentity:
    """Each batched kernel against a per-cell scalar loop, bitwise."""

    def planes_of(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        return (*K.planes(a), *K.planes(b)), a, b

    def test_join(self):
        (a_lo, a_hi, b_lo, b_hi), a, b = self.planes_of(pair_population())
        out_lo, out_hi = K.batch_join(a_lo, a_hi, b_lo, b_hi)
        ref = [x.join(y) for x, y in zip(a, b)]
        assert_planes_bit_identical(ref, out_lo, out_hi, "join")

    def test_meet(self):
        (a_lo, a_hi, b_lo, b_hi), a, b = self.planes_of(pair_population())
        out_lo, out_hi = K.batch_meet(a_lo, a_hi, b_lo, b_hi)
        ref = [x.meet(y) for x, y in zip(a, b)]
        assert_planes_bit_identical(ref, out_lo, out_hi, "meet")

    @pytest.mark.parametrize("ladder", [
        None,
        [-INF, -4.0, -0.5, 0.0, 0.5, 4.0, 1e4, INF],
        list(default_thresholds().values),
    ])
    def test_widen(self, ladder):
        (a_lo, a_hi, b_lo, b_hi), a, b = self.planes_of(pair_population())
        arr = None if ladder is None else K.ladder_array(ladder)
        out_lo, out_hi = K.batch_widen(a_lo, a_hi, b_lo, b_hi, arr)
        ref = [x.widen(y, ladder) for x, y in zip(a, b)]
        assert_planes_bit_identical(ref, out_lo, out_hi, f"widen:{ladder}")

    def test_narrow(self):
        (a_lo, a_hi, b_lo, b_hi), a, b = self.planes_of(pair_population())
        out_lo, out_hi = K.batch_narrow(a_lo, a_hi, b_lo, b_hi)
        ref = [x.narrow(y) for x, y in zip(a, b)]
        assert_planes_bit_identical(ref, out_lo, out_hi, "narrow")

    def test_includes(self):
        (a_lo, a_hi, b_lo, b_hi), a, b = self.planes_of(pair_population())
        ok = K.batch_includes(a_lo, a_hi, b_lo, b_hi)
        for i, (x, y) in enumerate(zip(a, b)):
            assert bool(ok[i]) == x.includes(y), (i, x, y)

    def test_empty_batch(self):
        z = np.empty(0, dtype=np.float64)
        for kernel in (K.batch_join, K.batch_meet, K.batch_narrow):
            lo, hi = kernel(z, z, z, z)
            assert lo.size == 0 and hi.size == 0
        lo, hi = K.batch_widen(z, z, z, z, None)
        assert lo.size == 0 and hi.size == 0
        assert K.batch_includes(z, z, z, z).size == 0

    def test_single_cell(self):
        for x in SPECIALS:
            for y in SPECIALS:
                a_lo, a_hi = K.planes([x])
                b_lo, b_hi = K.planes([y])
                lo, hi = K.batch_join(a_lo, a_hi, b_lo, b_hi)
                ref = x.join(y)
                assert bits(lo[0]) == bits(ref.lo), (x, y)
                assert bits(hi[0]) == bits(ref.hi), (x, y)


def _closed_matrix_scalar(m0: np.ndarray, n: int) -> np.ndarray:
    """Pure-Python mirror of :func:`_closed_matrix`, the closure oracle.

    Bit-identity is by construction: every numpy operation of the
    vectorized kernel is replayed element-wise with the same operand
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


def float_cell(lo: float, hi: float) -> CellValue:
    return CellValue(FloatInterval(lo, hi))


def env_pair(n_diff: int, n_same: int = 3):
    """Two environments differing on exactly ``n_diff`` float cells."""
    a = MemoryEnv.initial()
    b = MemoryEnv.initial()
    for cid in range(n_diff):
        a = a.set(cid, float_cell(0.0, float(cid + 1)))
        b = b.set(cid, float_cell(-1.0, float(2 * cid + 5)))
    for cid in range(n_diff, n_diff + n_same):
        v = float_cell(0.0, 1.0)
        a = a.set(cid, v)
        b = b.set(cid, v)
    return a, b


def envs_equal(x: MemoryEnv, y: MemoryEnv) -> bool:
    cids = {cid for cid, _ in x.cells.items()} | \
           {cid for cid, _ in y.cells.items()}
    for cid in cids:
        vx, vy = x.get(cid), y.get(cid)
        if (vx is None) != (vy is None):
            return False
        if vx is None:
            continue
        if bits(vx.itv.lo) != bits(vy.itv.lo) or \
                bits(vx.itv.hi) != bits(vy.itv.hi):
            return False
        if (vx.minus_clock, vx.plus_clock) != (vy.minus_clock, vy.plus_clock):
            return False
    return True


@pytest.fixture
def restore_vectorize():
    yield
    environment.configure_vectorize(True, 16)


class TestCrossover:
    """The min-cells crossover: below it the scalar path runs (no batch
    counter movement), at and above it one kernel call per merge — with
    identical results either way."""

    MIN = 6

    @pytest.mark.parametrize("n_diff", [MIN - 1, MIN, MIN + 1])
    def test_equal_results_and_counters(self, n_diff, restore_vectorize):
        a, b = env_pair(n_diff)

        environment.configure_vectorize(False)
        scalar = a.join(b)

        environment.configure_vectorize(True, self.MIN)
        K.reset_stats()
        vec = a.join(b)

        assert envs_equal(scalar, vec)
        expect_batch = 1 if n_diff >= self.MIN else 0
        assert K.stats()["batches"] == expect_batch
        assert K.stats()["cells"] == (n_diff if expect_batch else 0)

    def test_all_ops_agree(self, restore_vectorize):
        thresholds = list(default_thresholds().values)
        a, b = env_pair(12)
        for op in ("join", "widen", "narrow", "meet", "includes"):
            environment.configure_vectorize(False)
            want = getattr(a, op)(b) if op != "widen" \
                else a.widen(b, thresholds)
            environment.configure_vectorize(True, 4)
            got = getattr(a, op)(b) if op != "widen" \
                else a.widen(b, thresholds)
            if op == "includes":
                assert got == want, op
            else:
                assert envs_equal(got, want), op

    def test_mixed_cells_fall_back_scalar(self, restore_vectorize):
        """Clocked and non-float cells inside an engaged batch use the
        scalar path (and count as fallbacks) without perturbing the
        batched float cells."""
        a, b = env_pair(10)
        clocked_a = CellValue(IntInterval.of(0, 5), IntInterval.of(-3, 0))
        clocked_b = CellValue(IntInterval.of(0, 9), IntInterval.of(-5, 0))
        int_a = CellValue(IntInterval.of(0, 1))
        int_b = CellValue(IntInterval.of(0, 2))
        a = a.set(100, clocked_a).set(101, int_a)
        b = b.set(100, clocked_b).set(101, int_b)

        environment.configure_vectorize(False)
        want = a.join(b)
        environment.configure_vectorize(True, 4)
        K.reset_stats()
        got = a.join(b)

        assert envs_equal(got, want)
        st = K.stats()
        assert st["batches"] == 1 and st["cells"] == 10
        assert st["fallbacks"] == 2

    def test_widen_frozen_cells_join_instead(self, restore_vectorize):
        thresholds = list(default_thresholds().values)
        a, b = env_pair(10)
        frozen = {0, 1, 2}
        environment.configure_vectorize(False)
        want = a.widen(b, thresholds, frozen_cids=frozen)
        environment.configure_vectorize(True, 4)
        K.reset_stats()
        got = a.widen(b, thresholds, frozen_cids=frozen)
        assert envs_equal(got, want)
        # Frozen cells are excluded from the batch, not fallbacks.
        assert K.stats()["cells"] == 7
        assert K.stats()["fallbacks"] == 0


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


#: Per-seed variant rotation covering the vectorize x incremental
#: matrix; the reference run is always the all-defaults config.
VARIANTS = [
    dict(vectorize=False),
    dict(vectorize=False, incremental=False),
    dict(incremental=False),
]


class TestDifferentialMatrix:
    @pytest.mark.parametrize("kloc,seed", SWEEP)
    def test_sweep(self, kloc, seed):
        prog, cfg = _family(kloc, seed)
        variant = VARIANTS[seed % len(VARIANTS)]
        base = analyze_program(prog, cfg)
        other = analyze_program(prog, dataclasses.replace(cfg, **variant))
        assert _snapshot(base) == _snapshot(other), variant
        if variant.get("incremental", True):
            # Same engine, different backend: the iteration count
            # and the statement slicing must match exactly too — the
            # batched kernels must not perturb what gets re-executed.
            assert base.widening_iterations == other.widening_iterations
            assert base.stmts_executed == other.stmts_executed
            assert base.stmts_skipped == other.stmts_skipped

    def test_counters_report_batching(self):
        gp = generate_program(FamilySpec(target_kloc=0.125, seed=2003))
        prog = compile_source(gp.source, "family.c")
        cfg = gp.analyzer_config(vectorize_min_cells=4)
        vec = analyze_program(prog, cfg)
        assert vec.vectorize and vec.vector_batches > 0
        assert vec.vector_cells >= vec.vector_batches
        scalar = analyze_program(
            prog, dataclasses.replace(cfg, vectorize=False))
        assert not scalar.vectorize
        assert scalar.vector_batches == 0 and scalar.vector_cells == 0
        assert _snapshot(vec) == _snapshot(scalar)

    def test_fallback_widening_attributed_to_lattice(self):
        """Budget-exhausted (threshold-free) widening runs outside the
        timed AbstractState wrappers; its wall time must still land in
        the lattice split of the iteration phase — and the forced-
        convergence path must stay bit-identical across backends."""
        prog, cfg = _family(0.06, 404)
        cfg = dataclasses.replace(cfg, max_widening_iterations=1,
                                  widening_delay=0)
        vec = analyze_program(prog, cfg)
        scalar = analyze_program(
            prog, dataclasses.replace(cfg, vectorize=False))
        assert _snapshot(vec) == _snapshot(scalar)
        for r in (vec, scalar):
            assert r.phase_times["iteration-lattice"] > 0.0
