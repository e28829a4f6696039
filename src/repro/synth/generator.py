"""Generator of periodic synchronous C programs (the Sect. 4 family).

Programs have exactly the paper's shape::

    declare volatile input, state and output variables;
    initialize state variables;
    loop forever
        read volatile input variables,
        compute output and state variables,
        write to volatile output variables;
        wait for next clock tick;
    end loop

The generator is size-parametric (target kLOC) and seeded, producing a
*family* of related programs: the same block mix at different scales, the
setting for the Fig. 2 scaling experiment.  Each instance returns both the
C source and the environment specification (volatile input ranges and the
maximal operating time) needed to analyze it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .blocks import ALL_BLOCK_TYPES, Block, BlockContext

__all__ = ["GeneratedProgram", "generate_program", "FamilySpec"]

_PRELUDE_TEMPLATE = """\
/* Generated periodic synchronous control program (ASTREE repro family). */
#define VERSION %(version)d
typedef _Bool BOOL;

#if VERSION >= 1
/* Later versions add a shared deadband to the clamp helper. */
void clamp_ref(float *v, float lo, float hi) {
    if (*v < lo) { *v = lo; }
    if (*v > hi) { *v = hi; }
    if (*v > -0.001f && *v < 0.001f) { *v = 0.0f; }
}
#else
void clamp_ref(float *v, float lo, float hi) {
    if (*v < lo) { *v = lo; }
    if (*v > hi) { *v = hi; }
}
#endif
"""


@dataclass
class FamilySpec:
    """Parameters of one program of the family."""

    target_kloc: float = 1.0
    seed: int = 42
    # Relative weights of the block types, in ALL_BLOCK_TYPES order.
    weights: Optional[Sequence[float]] = None
    modules_per_function: int = 8
    max_clock: int = 3_600_000
    # Program *version* (Sect. 8: alarm counts vary "depending on the
    # versions of the analyzed program"): versions share the same source
    # with #if VERSION conditionals selecting alternate constants/glue.
    version: int = 0


@dataclass
class GeneratedProgram:
    source: str
    input_ranges: Dict[str, Tuple[float, float]]
    max_clock: int
    block_counts: Dict[str, int]
    loc: int

    def analyzer_config(self, **overrides):
        from ..config import AnalyzerConfig

        cfg = AnalyzerConfig(input_ranges=dict(self.input_ranges),
                             max_clock=self.max_clock)
        return cfg.with_overrides(**overrides) if overrides else cfg


_DEFAULT_WEIGHTS = {
    "SecondOrderFilter": 2.0, "FirstOrderLag": 2.0, "EventCounter": 2.0,
    "RateLimiter": 1.5, "SwitchedDivider": 1.5, "Saturator": 2.0,
    "InterpolationTable": 1.0, "Hysteresis": 1.5, "Accumulator": 2.0,
    "BooleanCombiner": 1.5, "ModeSelector": 1.0, "Debouncer": 1.5,
    "PIController": 1.5, "DeltaIndexer": 1.5,
}


def generate_program(spec: FamilySpec) -> GeneratedProgram:
    rng = random.Random(spec.seed)
    weights = list(spec.weights) if spec.weights is not None else \
        [_DEFAULT_WEIGHTS[t.__name__] for t in ALL_BLOCK_TYPES]
    if len(weights) != len(ALL_BLOCK_TYPES):
        raise ValueError("weights must match ALL_BLOCK_TYPES")

    target_lines = int(spec.target_kloc * 1000)
    blocks: List[Block] = []
    budget = target_lines - 40  # prelude + main-loop scaffolding
    index = 0
    while budget > 0:
        btype: Type[Block] = rng.choices(ALL_BLOCK_TYPES, weights)[0]
        block = btype(index)
        blocks.append(block)
        budget -= btype.approx_lines + 3
        index += 1

    ctx = BlockContext(index=0)
    volatile_lines: List[str] = []
    global_lines: List[str] = []
    step_functions: List[str] = []
    step_calls: List[str] = []
    block_counts: Dict[str, int] = {}

    # Group blocks into step functions (the family's per-component layout).
    for group_start in range(0, len(blocks), spec.modules_per_function):
        group = blocks[group_start: group_start + spec.modules_per_function]
        body_lines: List[str] = []
        for block in group:
            ctx.index = block.index
            volatile_lines.extend(block.volatile_decls(ctx))
            global_lines.extend(block.global_decls(ctx))
            body_lines.append(f"    /* block {block.index}: "
                              f"{type(block).__name__} */")
            for line in block.step_body(ctx, rng):
                body_lines.append(f"    {line}")
            block_counts[type(block).__name__] = \
                block_counts.get(type(block).__name__, 0) + 1
        fn_name = f"step_{group_start // spec.modules_per_function}"
        step_functions.append(
            f"void {fn_name}(void) {{\n" + "\n".join(body_lines) + "\n}\n")
        step_calls.append(f"        {fn_name}();")

    main_fn = (
        "int main(void) {\n"
        "    while (1) {\n"
        + "\n".join(step_calls) + "\n"
        "        __ASTREE_wait_for_clock();\n"
        "    }\n"
        "    return 0;\n"
        "}\n"
    )
    source = "\n".join(
        [_PRELUDE_TEMPLATE % {"version": spec.version}]
        + volatile_lines
        + [""]
        + global_lines
        + [""]
        + step_functions
        + [main_fn]
    )
    return GeneratedProgram(
        source=source,
        input_ranges=dict(ctx.input_ranges),
        max_clock=spec.max_clock,
        block_counts=block_counts,
        loc=source.count("\n") + 1,
    )


def generate_units(spec: FamilySpec, files: int = 3):
    """Split a generated program into several translation units for the
    linker (Sect. 5.1: "a simple linker allows programs consisting of
    several source files to be processed").

    Returns (units, GeneratedProgram) where units is a list of
    (filename, source) pairs: one file with the shared declarations and
    ``main``, the others with groups of step functions plus ``extern``
    declarations for the globals they use.
    """
    gp = generate_program(spec)
    # File-local 'static const' tables become ordinary const globals so the
    # implementation units can reference them through extern declarations.
    lines = gp.source.replace("static const", "const").split("\n")
    # Locate the step functions and main in the flat source.
    fn_starts = [i for i, line in enumerate(lines)
                 if line.startswith("void step_") or line.startswith("int main")]
    header_end = fn_starts[0] if fn_starts else len(lines)
    header = lines[:header_end]
    # Group the step functions round-robin into (files - 1) implementation
    # units; main and all declarations stay in the first unit.
    fn_blocks = []
    for start, end in zip(fn_starts, fn_starts[1:] + [len(lines)]):
        fn_blocks.append(lines[start:end])
    main_block = fn_blocks.pop()  # int main is last
    impl_units = max(1, files - 1)
    groups = [[] for _ in range(impl_units)]
    protos = []
    for i, block in enumerate(fn_blocks):
        groups[i % impl_units].append(block)
        name = block[0].split("(")[0].replace("void ", "")
        protos.append(f"void {name}(void);")
    # Globals become extern declarations in the implementation units.
    extern_decls = []
    for line in header:
        stripped = line.strip()
        if not stripped or stripped.startswith(("/*", "typedef", "void", "}",
                                                "if", "*", "#")):
            continue
        decl = stripped
        if "=" in decl:
            decl = decl.split("=")[0].rstrip() + ";"
        extern_decls.append("extern " + decl)
    units = []
    main_unit = header + [""] + protos + [""] + main_block
    units.append(("main.c", "\n".join(main_unit) + "\n"))
    for idx, group in enumerate(groups):
        body = ["/* implementation unit */", "typedef _Bool BOOL;",
                "void clamp_ref(float *v, float lo, float hi);"]
        body += extern_decls
        body.append("")
        for block in group:
            body.extend(block)
        units.append((f"unit{idx}.c", "\n".join(body) + "\n"))
    return units, gp
