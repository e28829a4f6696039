"""Property-based tests for MemoryEnv: lattice laws and sharing behavior."""

from hypothesis import given, settings, strategies as st

from repro.domains.values import CellValue
from repro.memory.environment import MemoryEnv
from repro.numeric import IntInterval

bound = st.integers(min_value=-100, max_value=100)


@st.composite
def envs(draw):
    """Environments over a fixed cell set (0..5).

    MemoryEnv.includes treats a key missing on one side conservatively
    (sound for the stabilization check, where all states at one program
    point share the same created cells), so lattice-law tests use aligned
    key sets.
    """
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return MemoryEnv.make_bottom(max_clock=1000)
    env = MemoryEnv.initial(max_clock=1000)
    for cid in range(6):
        a = draw(bound)
        b = draw(bound)
        if a > b:
            a, b = b, a
        env = env.set(cid, CellValue(IntInterval.of(a, b)))
    return env


class TestEnvLattice:
    @settings(max_examples=80, deadline=None)
    @given(envs(), envs())
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert j.includes(a) and j.includes(b)

    @settings(max_examples=80, deadline=None)
    @given(envs(), envs())
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert a.includes(m) and b.includes(m)

    @settings(max_examples=80, deadline=None)
    @given(envs(), envs())
    def test_widen_upper_bound(self, a, b):
        w = a.widen(b)
        assert w.includes(a) and w.includes(b)

    @settings(max_examples=80, deadline=None)
    @given(envs())
    def test_includes_reflexive(self, a):
        assert a.includes(a)

    @settings(max_examples=80, deadline=None)
    @given(envs(), envs(), envs())
    def test_join_associative_up_to_inclusion(self, a, b, c):
        left = a.join(b).join(c)
        right = a.join(b.join(c))
        assert left.includes(right) and right.includes(left)

    @settings(max_examples=80, deadline=None)
    @given(envs(), envs())
    def test_join_commutative(self, a, b):
        ab = a.join(b)
        ba = b.join(a)
        assert ab.includes(ba) and ba.includes(ab)

    @settings(max_examples=80, deadline=None)
    @given(envs())
    def test_join_idempotent(self, a):
        j = a.join(a)
        assert j.includes(a) and a.includes(j)

    @settings(max_examples=60, deadline=None)
    @given(envs(), envs())
    def test_equal_consistent_with_includes(self, a, b):
        if a.equal(b):
            assert a.includes(b) and b.includes(a)

    @settings(max_examples=60, deadline=None)
    @given(envs())
    def test_bottom_is_least(self, a):
        bot = a.to_bottom()
        assert a.includes(bot)
        joined = a.join(bot)
        assert joined.includes(a) and a.includes(joined)


class TestEnvSharing:
    def test_join_of_identical_is_shared(self):
        env = MemoryEnv.initial()
        for cid in range(100):
            env = env.set(cid, CellValue(IntInterval.of(0, cid)))
        j = env.join(env)
        assert j.cells._root is env.cells._root

    def test_diff_cids_small_for_one_change(self):
        env = MemoryEnv.initial()
        for cid in range(200):
            env = env.set(cid, CellValue(IntInterval.of(0, 1)))
        env2 = env.set(77, CellValue(IntInterval.of(5, 6)))
        assert 77 in set(env.diff_cids(env2))
        assert len(list(env.diff_cids(env2))) < 20

    def test_weak_set_preserves_old_values(self):
        env = MemoryEnv.initial().set(0, CellValue(IntInterval.of(0, 1)))
        env = env.weak_set(0, CellValue(IntInterval.of(10, 12)))
        assert env.get(0).itv == IntInterval.of(0, 12)

    def test_tick_only_touches_clocked_cells(self):
        env = MemoryEnv.initial(max_clock=100)
        plain = CellValue(IntInterval.of(0, 5))
        clocked = CellValue(IntInterval.of(0, 5),
                            minus_clock=IntInterval.of(0, 0),
                            plus_clock=IntInterval.of(0, 0))
        env = env.set(0, plain).set(1, clocked)
        ticked = env.tick()
        # Physically shared: untouched.  (Compared against the env's own
        # object, not `plain` — set() may intern to an ==-equal canonical
        # representative.)
        assert ticked.get(0) is env.get(0)
        assert ticked.get(1).minus_clock == IntInterval.of(-1, -1)
