"""Differential soundness testing: concrete runs vs abstract results.

Random straight-line programs over bounded integer inputs are analyzed and
*also* executed concretely (with C semantics emulated in Python) on sampled
input vectors.  Soundness demands every concrete outcome lies inside the
analyzer's final interval for each variable — the end-to-end γ-soundness
property of the whole pipeline (frontend + domains + iterator).
"""

import random

from hypothesis import given, settings, strategies as st

from repro import AnalyzerConfig, analyze
from repro.fuzz.oracle import final_interval, main_loop_invariant

INT_MIN, INT_MAX = -(2**31), 2**31 - 1


class ExprGen:
    """Generates a random expression tree and evaluates it concretely."""

    def __init__(self, rng: random.Random, n_inputs: int):
        self.rng = rng
        self.inputs = [f"in{i}" for i in range(n_inputs)]

    def gen(self, depth: int) -> str:
        if depth == 0 or self.rng.random() < 0.3:
            if self.rng.random() < 0.5:
                return self.rng.choice(self.inputs)
            return str(self.rng.randint(-20, 20))
        op = self.rng.choice(["+", "-", "*"])
        left = self.gen(depth - 1)
        right = self.gen(depth - 1)
        return f"({left} {op} {right})"


def c_eval(expr: str, env: dict) -> int:
    """Concrete evaluation with int wrap-around like the 32-bit target."""
    value = eval(expr, {"__builtins__": {}}, dict(env))  # noqa: S307
    value &= 0xFFFFFFFF
    if value > INT_MAX:
        value -= 2**32
    return value


def build_program(exprs, n_inputs):
    decls = "\n".join(f"volatile int in{i}_v;" for i in range(n_inputs))
    body = [f"    int in{i} = in{i}_v;" for i in range(n_inputs)]
    for k, e in enumerate(exprs):
        body.append(f"    out{k} = {e};")
    outs = "\n".join(f"int out{k};" for k in range(len(exprs)))
    return (f"{decls}\n{outs}\n"
            "int main(void) {\n" + "\n".join(body) + "\n    return 0;\n}\n")


class TestDifferentialSoundness:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_straight_line_integer_programs(self, seed):
        rng = random.Random(seed)
        n_inputs = rng.randint(1, 3)
        gen = ExprGen(rng, n_inputs)
        exprs = [gen.gen(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        source = build_program(exprs, n_inputs)
        lo, hi = -10, 10
        cfg = AnalyzerConfig(
            input_ranges={f"in{i}_v": (lo, hi) for i in range(n_inputs)})
        result = analyze(source, "rand.c", config=cfg)

        # Sample concrete executions.
        for _ in range(20):
            env = {f"in{i}": rng.randint(lo, hi) for i in range(n_inputs)}
            for k, e in enumerate(exprs):
                concrete = c_eval(e, env)
                if not (INT_MIN <= concrete <= INT_MAX):
                    continue  # wrapped: the analyzer alarms and wipes
                iv = final_interval(result, f"out{k}")
                assert iv.contains(concrete), (
                    f"seed={seed} expr={e} env={env}: {concrete} not in {iv}")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_programs_with_branches(self, seed):
        rng = random.Random(seed)
        a = rng.randint(-5, 5)
        source = f"""
        volatile int v;
        int out;
        int main(void) {{
            int x = v;
            if (x > {a}) {{ out = x + 1; }}
            else {{ out = x - 1; }}
            return 0;
        }}
        """
        cfg = AnalyzerConfig(input_ranges={"v": (-10, 10)})
        result = analyze(source, "rand.c", config=cfg)
        iv = final_interval(result, "out")
        for x in range(-10, 11):
            concrete = x + 1 if x > a else x - 1
            assert iv.contains(concrete)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=5))
    def test_counting_loops(self, bound, stride):
        source = f"""
        int i; int n;
        int main(void) {{
            i = 0; n = 0;
            while (i < {bound}) {{ i = i + {stride}; n = n + 1; }}
            return 0;
        }}
        """
        result = analyze(source, "loop.c")
        # Concrete final i.
        i = 0
        while i < bound:
            i += stride
        iv = final_interval(result, "i")
        assert iv.contains(i), f"final i={i} not in {iv}"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_float_contracting_chains(self, seed):
        """Float chains x := a*x + in stay sound vs simulation."""
        rng = random.Random(seed)
        a = rng.choice([0.25, 0.5, 0.75])
        source = f"""
        volatile float v;
        float x;
        int main(void) {{
            x = 0.0f;
            while (1) {{
                x = {a}f * x + v;
                __ASTREE_wait_for_clock();
            }}
            return 0;
        }}
        """
        cfg = AnalyzerConfig(input_ranges={"v": (-1.0, 1.0)},
                             collect_invariants=True)
        result = analyze(source, "f.c", config=cfg)
        assert result.alarm_count == 0
        inv = main_loop_invariant(result)
        var = result.ctx.prog.global_by_name("x")
        cell = result.ctx.table.scalar_cell(var.uid)
        bound = inv.env.get(cell.cid).itv
        # Simulate concretely.
        import numpy as np

        x = np.float32(0.0)
        worst = 0.0
        for _ in range(2000):
            v = np.float32(rng.uniform(-1.0, 1.0))
            x = np.float32(a) * x + v
            worst = max(worst, abs(float(x)))
        assert bound.magnitude() >= worst
