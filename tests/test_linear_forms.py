"""Tests for interval linear forms and the Sect. 6.3 linearization."""

from hypothesis import given, strategies as st

from repro.numeric import BINARY32, BINARY64, FloatInterval, LinearForm

coef = st.floats(min_value=-100, max_value=100, allow_nan=False)


def env(**ranges):
    table = {k: FloatInterval.of(lo, hi) for k, (lo, hi) in ranges.items()}
    return lambda v: table[v]


class TestConstruction:
    def test_constant_form(self):
        lf = LinearForm.of_const(3.0)
        assert lf.is_constant
        assert lf.evaluate(lambda v: FloatInterval.top()) == FloatInterval.const(3.0)

    def test_var_form(self):
        lf = LinearForm.var("X")
        assert lf.variables == ("X",)
        assert lf.evaluate(env(X=(1.0, 2.0))) == FloatInterval.of(1.0, 2.0)

    def test_zero_coefficients_dropped(self):
        lf = LinearForm.make({"X": FloatInterval.const(0.0)}, FloatInterval.const(1.0))
        assert lf.is_constant


class TestAlgebra:
    def test_paper_example(self):
        """X - 0.2*X linearizes to 0.8*X, evaluating to [0, 0.8] on [0,1]."""
        x = LinearForm.var("X")
        lf = x.sub(x.scale(FloatInterval.const(0.2)))
        r = lf.evaluate(env(X=(0.0, 1.0)))
        assert r.lo == 0.0
        assert 0.79 < r.hi < 0.81

    def test_add_merges_coefficients(self):
        lf = LinearForm.var("X").add(LinearForm.var("X"))
        r = lf.evaluate(env(X=(1.0, 1.0)))
        assert r.contains(2.0)

    def test_add_disjoint_vars(self):
        lf = LinearForm.var("X").add(LinearForm.var("Y"))
        assert set(lf.variables) == {"X", "Y"}

    @given(coef, coef, coef)
    def test_eval_contains_concrete(self, a, b, c):
        """a*x + b*y + c evaluated pointwise lies in the interval."""
        lf = (
            LinearForm.var("X").scale(FloatInterval.const(a))
            .add(LinearForm.var("Y").scale(FloatInterval.const(b)))
            .add(LinearForm.of_const(c))
        )
        e = env(X=(-1.0, 2.0), Y=(0.5, 3.0))
        r = lf.evaluate(e)
        for x in (-1.0, 0.0, 2.0):
            for y in (0.5, 3.0):
                v = a * x + b * y + c
                assert r.contains(v) or abs(v - max(min(v, r.hi), r.lo)) < 1e-9

    def test_neg(self):
        lf = LinearForm.var("X").neg()
        assert lf.evaluate(env(X=(1.0, 2.0))) == FloatInterval.of(-2.0, -1.0)

    def test_substitute(self):
        # X + 1 with X := 2Y gives 2Y + 1.
        lf = LinearForm.var("X").add(LinearForm.of_const(1.0))
        sub = lf.substitute("X", LinearForm.var("Y").scale(FloatInterval.const(2.0)))
        r = sub.evaluate(env(Y=(1.0, 1.0)))
        assert r.contains(3.0)

    def test_substitute_absent_var_is_noop(self):
        lf = LinearForm.var("X")
        assert lf.substitute("Z", LinearForm.var("Y")) == lf

    def test_drop_to_interval(self):
        lf = LinearForm.var("X").add(LinearForm.var("Y"))
        dropped = lf.drop_to_interval(["X"], env(X=(0.0, 1.0), Y=(2.0, 3.0)))
        assert dropped.variables == ("X",)
        assert dropped.const.includes(FloatInterval.of(2.0, 3.0))


class TestRoundingModel:
    def test_rounding_error_added(self):
        lf = LinearForm.var("X")
        rounded = lf.with_float_rounding(BINARY32, env(X=(0.0, 1.0)))
        assert rounded.const.lo < 0.0 < rounded.const.hi

    def test_error_scales_with_magnitude(self):
        small = LinearForm.var("X").with_float_rounding(BINARY32, env(X=(0.0, 1.0)))
        big = LinearForm.var("X").with_float_rounding(BINARY32, env(X=(0.0, 1e30)))
        assert big.const.hi > small.const.hi

    def test_binary64_tighter_than_binary32(self):
        e = env(X=(0.0, 1.0))
        r32 = LinearForm.var("X").with_float_rounding(BINARY32, e)
        r64 = LinearForm.var("X").with_float_rounding(BINARY64, e)
        assert r64.const.hi < r32.const.hi

    def test_unbounded_magnitude_gives_top_const(self):
        lf = LinearForm.var("X")
        r = lf.with_float_rounding(BINARY32, lambda v: FloatInterval.top())
        assert r.const.is_top

    def test_rounding_model_sound_for_float32(self):
        """float32(x) in linearized interval for sampled x."""
        import numpy as np

        e = env(X=(0.9, 1.1))
        lf = LinearForm.var("X").with_float_rounding(BINARY32, e)
        for x in np.linspace(0.9, 1.1, 17):
            fx = float(np.float32(x))
            iv = lf.evaluate(env(X=(float(x), float(x))))
            # constant interval for X plus error must contain rounded value
            assert iv.lo <= fx <= iv.hi
