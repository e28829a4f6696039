"""Block library for the synthetic program family (Sect. 4 substitute).

The paper's programs are generated from synchronous operator networks
(block diagrams, Fig. 1).  Each :class:`Block` here emits the C code a
code generator would produce for one operator instance: global state
variables, an optional step function body fragment, and the volatile input
declarations it consumes.  The blocks deliberately reproduce the idioms the
paper describes:

* second-order digital filters with reinitialization (Sect. 6.2.3),
* event counters bounded only by the operating time (clocked domain),
* rate limiters whose safety needs octagonal reasoning (Sect. 6.2.2),
* test results stored into boolean variables and consulted later
  (Sect. 6.2.4 and the Sect. 10 remark about generated-code style),
* saturations/clamps via shared library functions (call-by-reference),
* interpolation tables with constant contents (optimized away, Sect. 5.1),
* a large number of state variables with local scope but unlimited
  lifetime.

Every block keeps its output within a documented range so downstream
blocks can be wired to it without creating genuine (true-positive) errors:
the family is correct by construction, as the paper's 10-years-in-service
reference program is assumed to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "Block", "BlockContext", "SecondOrderFilter", "FirstOrderLag",
    "EventCounter", "RateLimiter", "SwitchedDivider", "Saturator",
    "InterpolationTable", "Hysteresis", "Accumulator", "BooleanCombiner",
    "ALL_BLOCK_TYPES",
]


@dataclass
class BlockContext:
    """Wiring context handed to each block while emitting code."""

    index: int
    # name -> (lo, hi) collected volatile input ranges
    input_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    # expr pool of boolean signals
    bool_signals: List[str] = field(default_factory=list)

    def fresh_float_input(self, prefix: str, lo: float, hi: float) -> str:
        name = f"{prefix}_{self.index}"
        self.input_ranges[name] = (lo, hi)
        return name

    def fresh_bool_input(self, prefix: str) -> str:
        name = f"{prefix}_{self.index}"
        self.input_ranges[name] = (0, 1)
        return name


class Block:
    """One operator instance; emits globals, input decls and a step body."""

    #: Rough line count contributed (for size targeting).
    approx_lines = 10

    def __init__(self, index: int):
        self.index = index
        self.n = f"b{index}"

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        return []

    def global_decls(self, ctx: BlockContext) -> List[str]:
        raise NotImplementedError

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        raise NotImplementedError


class SecondOrderFilter(Block):
    """The Fig. 1 digital filter with reinitialization switch."""

    approx_lines = 16

    # Stable (a, b) pairs: 0 < b < 1, a^2 < 4b — and |a| + b >= 1, so the
    # interval map M -> (|a|+b)M + t diverges: these filters genuinely
    # require the ellipsoid domain, as in the paper.
    COEFFS = [(1.5, 0.7), (1.2, 0.5), (0.8, 0.9), (1.7, 0.8), (1.3, 0.6)]

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("flt_in", -1.0, 1.0)
        self.reset = ctx.fresh_bool_input("flt_rst")
        return [f"volatile float {self.input};",
                f"volatile int {self.reset};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_X;", f"float {self.n}_Y;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        a, b = rng.choice(self.COEFFS)
        # Output bound used for downstream wiring: generous post-hoc bound.
        return [
            f"float {self.n}_t;",
            f"float {self.n}_Xp;",
            f"{self.n}_t = {self.input};",
            f"if ({self.reset}) {{",
            f"    {self.n}_Y = 0.5f;",
            f"    {self.n}_X = 0.5f;",
            "} else {",
            f"    {self.n}_Xp = {a}f * {self.n}_X - {b}f * {self.n}_Y + {self.n}_t;",
            f"    {self.n}_Y = {self.n}_X;",
            f"    {self.n}_X = {self.n}_Xp;",
            "}",
        ]


class FirstOrderLag(Block):
    """X := a*X + (1-a)*in with 0 <= a < 1 — stabilized by the widening
    threshold ladder (Sect. 7.1.2)."""

    approx_lines = 6

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("lag_in", -10.0, 10.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_S;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        a = rng.choice([0.5, 0.25, 0.75, 0.9])
        return [f"{self.n}_S = {a}f * {self.n}_S + {round(1.0 - a, 4)}f * {self.input};"]


class EventCounter(Block):
    """A counter of external events, bounded only by the maximal operating
    time (the clocked-domain motivation of Sect. 6.2.1)."""

    approx_lines = 7

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.event = ctx.fresh_bool_input("cnt_ev")
        return [f"volatile int {self.event};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"int {self.n}_count;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        return [
            f"if ({self.event}) {{",
            f"    {self.n}_count = {self.n}_count + 1;",
            "}",
        ]


class RateLimiter(Block):
    """out := prev + clamped-delta — the Sect. 6.2.2 octagon pattern
    (R := X - Z; if (R > V) L := Z + V)."""

    approx_lines = 14

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("rl_in", -50.0, 50.0)
        self.vmax = ctx.fresh_float_input("rl_vmax", 0.0, 5.0)
        return [f"volatile float {self.input};",
                f"volatile float {self.vmax};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_L;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        return [
            f"float {self.n}_X;",
            f"float {self.n}_R;",
            f"float {self.n}_V;",
            "{",
            f"    {self.n}_X = {self.input};",
            f"    {self.n}_V = {self.vmax};",
            f"    {self.n}_R = {self.n}_X - {self.n}_L;",
            f"    if ({self.n}_R > {self.n}_V) {{ {self.n}_L = {self.n}_L + {self.n}_V; }}",
            f"    else {{ {self.n}_L = {self.n}_X; }}",
            f"    if ({self.n}_L > 55.0f) {{ {self.n}_L = 55.0f; }}",
            f"    if ({self.n}_L < -55.0f) {{ {self.n}_L = -55.0f; }}",
            "}",
        ]


class SwitchedDivider(Block):
    """The Sect. 6.2.4 pattern: a test stored into a boolean variable that
    later guards a division."""

    approx_lines = 8

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("div_in", 0.0, 100.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"int {self.n}_raw;", f"BOOL {self.n}_B;", f"float {self.n}_q;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        ctx.bool_signals.append(f"{self.n}_B")
        return [
            f"{self.n}_raw = (int){self.input};",
            f"{self.n}_B = ({self.n}_raw == 0);",
            f"if (!{self.n}_B) {{",
            f"    {self.n}_q = 1000.0f / {self.n}_raw;",
            "}",
        ]


class Saturator(Block):
    """Clamp through the shared call-by-reference helper."""

    approx_lines = 5

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("sat_in", -200.0, 200.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_out;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        lim = rng.choice([10.0, 25.0, 50.0, 100.0])
        return [
            f"{self.n}_out = {self.input};",
            f"clamp_ref(&{self.n}_out, -{lim}f, {lim}f);",
        ]


class InterpolationTable(Block):
    """A constant lookup table with a guarded dynamic index.  The table is
    const, so constant-subscript references are folded away (Sect. 5.1);
    the dynamic access exercises array-bound checking."""

    approx_lines = 12

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.idx_in = ctx.fresh_float_input("tab_idx", 0.0, 100.0)
        return [f"volatile float {self.idx_in};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        values = ", ".join(f"{i}.5f" for i in range(8))
        return [
            f"static const float {self.n}_tab[8] = {{ {values} }};",
            f"float {self.n}_y;",
            f"int {self.n}_i;",
        ]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        return [
            f"{self.n}_i = (int)({self.idx_in} * 0.07f);",
            f"if ({self.n}_i < 0) {{ {self.n}_i = 0; }}",
            f"if ({self.n}_i > 7) {{ {self.n}_i = 7; }}",
            f"{self.n}_y = {self.n}_tab[{self.n}_i];",
        ]


class Hysteresis(Block):
    """Two-threshold switch with a boolean state variable."""

    approx_lines = 10

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("hys_in", -100.0, 100.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"BOOL {self.n}_on;", f"float {self.n}_cmd;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        ctx.bool_signals.append(f"{self.n}_on")
        return [
            f"if ({self.input} > 50.0f) {{ {self.n}_on = 1; }}",
            f"if ({self.input} < -50.0f) {{ {self.n}_on = 0; }}",
            f"if ({self.n}_on) {{ {self.n}_cmd = 1.0f; }}",
            f"else {{ {self.n}_cmd = 0.0f; }}",
        ]


class Accumulator(Block):
    """A saturated integrator: S := clamp(S + k*in)."""

    approx_lines = 8

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("acc_in", -1.0, 1.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_S;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        k = rng.choice([0.125, 0.25, 0.5])
        return [
            f"{self.n}_S = {self.n}_S + {k}f * {self.input};",
            f"if ({self.n}_S > 100.0f) {{ {self.n}_S = 100.0f; }}",
            f"if ({self.n}_S < -100.0f) {{ {self.n}_S = -100.0f; }}",
        ]


class BooleanCombiner(Block):
    """Generated-code style boolean plumbing: one test per statement,
    results stored into booleans and recombined later (Sect. 10)."""

    approx_lines = 9

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.input = ctx.fresh_float_input("cmb_in", -10.0, 10.0)
        return [f"volatile float {self.input};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"BOOL {self.n}_p;", f"BOOL {self.n}_q;", f"BOOL {self.n}_r;",
                f"float {self.n}_o;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        ctx.bool_signals.append(f"{self.n}_r")
        other = rng.choice(ctx.bool_signals) if ctx.bool_signals else f"{self.n}_p"
        return [
            f"{self.n}_p = ({self.input} > 0.0f);",
            f"{self.n}_q = {other};",
            f"{self.n}_r = {self.n}_p;",
            f"if ({self.n}_r) {{ {self.n}_o = {self.input}; }}",
            f"else {{ {self.n}_o = 0.0f; }}",
            f"if ({self.n}_o < 0.0f) {{ {self.n}_o = 0.0f; }}",
        ]


class ModeSelector(Block):
    """A switch-dispatched mode computation (generated dispatch glue)."""

    approx_lines = 14

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.mode = ctx.fresh_float_input("mode_in", 0.0, 3.0)
        return [f"volatile int {self.mode};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"int {self.n}_m;", f"float {self.n}_gain;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        return [
            f"{self.n}_m = {self.mode};",
            f"switch ({self.n}_m) {{",
            f"    case 0: {self.n}_gain = 0.5f; break;",
            f"    case 1: {self.n}_gain = 1.0f; break;",
            f"    case 2: {self.n}_gain = 2.0f; break;",
            f"    default: {self.n}_gain = 0.0f; break;",
            "}",
        ]


class Debouncer(Block):
    """A debounced boolean: raw input must persist N cycles to latch —
    a saturated counter feeding a boolean (clock + tree interplay)."""

    approx_lines = 12

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.raw = ctx.fresh_bool_input("dbn_raw")
        return [f"volatile int {self.raw};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"int {self.n}_cnt;", f"BOOL {self.n}_state;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        n = rng.choice([3, 5, 8])
        ctx.bool_signals.append(f"{self.n}_state")
        return [
            f"if ({self.raw}) {{",
            f"    if ({self.n}_cnt < {n}) {{ {self.n}_cnt = {self.n}_cnt + 1; }}",
            f"}} else {{",
            f"    {self.n}_cnt = 0;",
            "}",
            f"{self.n}_state = ({self.n}_cnt >= {n});",
        ]


class PIController(Block):
    """Proportional-integral controller with anti-windup clamps —
    combines the saturated-integrator and lag idioms."""

    approx_lines = 12

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.sp = ctx.fresh_float_input("pi_sp", -10.0, 10.0)
        self.pv = ctx.fresh_float_input("pi_pv", -10.0, 10.0)
        return [f"volatile float {self.sp};", f"volatile float {self.pv};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_I;", f"float {self.n}_u;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        kp = rng.choice([0.5, 1.0, 2.0])
        ki = rng.choice([0.0625, 0.125])
        return [
            f"float {self.n}_e;",
            f"{self.n}_e = {self.sp} - {self.pv};",
            f"{self.n}_I = {self.n}_I + {ki}f * {self.n}_e;",
            f"if ({self.n}_I > 50.0f) {{ {self.n}_I = 50.0f; }}",
            f"if ({self.n}_I < -50.0f) {{ {self.n}_I = -50.0f; }}",
            f"{self.n}_u = {kp}f * {self.n}_e + {self.n}_I;",
            f"clamp_ref(&{self.n}_u, -100.0f, 100.0f);",
        ]


class DeltaIndexer(Block):
    """Array access whose in-boundedness needs the octagonal fact
    ``b - a in [1, 5]`` (plain intervals see b - a in [-99, 105] and
    report an out-of-bounds access): the Sect. 6.2.2 motivation."""

    approx_lines = 12

    def volatile_decls(self, ctx: BlockContext) -> List[str]:
        self.base_in = ctx.fresh_float_input("dix_base", 0.0, 100.0)
        self.offs_in = ctx.fresh_float_input("dix_offs", 1.0, 5.0)
        return [f"volatile float {self.base_in};",
                f"volatile float {self.offs_in};"]

    def global_decls(self, ctx: BlockContext) -> List[str]:
        return [f"float {self.n}_tab[8];", f"float {self.n}_y;",
                f"float {self.n}_a;", f"float {self.n}_b;",
                f"int {self.n}_i;"]

    def step_body(self, ctx: BlockContext, rng) -> List[str]:
        return [
            f"float {self.n}_o;",
            "{",
            f"    {self.n}_a = {self.base_in};",
            f"    {self.n}_o = {self.offs_in};",
            f"    {self.n}_b = {self.n}_a + {self.n}_o;",
            f"    {self.n}_i = (int)({self.n}_b - {self.n}_a);",
            f"    {self.n}_y = {self.n}_tab[{self.n}_i];",
            "}",
        ]


ALL_BLOCK_TYPES = [
    SecondOrderFilter, FirstOrderLag, EventCounter, RateLimiter,
    SwitchedDivider, Saturator, InterpolationTable, Hysteresis,
    Accumulator, BooleanCombiner, ModeSelector, Debouncer, PIController,
    DeltaIndexer,
]
