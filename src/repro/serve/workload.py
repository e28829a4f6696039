"""Near-duplicate edit workloads for the serving benchmark, tests and
CI.

The paper's deployment analyzed successive daily versions of one
program family; successive versions differ in a handful of tuned
constants, not in structure.  :func:`make_variant` models exactly that:
it perturbs one float literal of a generated family program (a gain, a
threshold, a filter coefficient) in the last decimal digit, leaving
every declaration and statement shape — and therefore the compat
fingerprint — intact.  The cross-run fixpoint cache then re-executes
only the slices the edited constant feeds.

All randomness is seeded: the same seed produces the same base program
and the same edit sequence, which is what lets CI pin a workload and
gate on its digests.
"""

from __future__ import annotations

import random
import re

__all__ = ["base_program", "make_variant"]

# Float literals inside expressions (not array sizes / version macros).
_FLOAT_LIT = re.compile(r"(?<![\w.])(\d+\.\d+)f\b")


def base_program(kloc: float = 0.15, seed: int = 20080808):
    """The pinned family program the workload edits; returns the
    GeneratedProgram (source + input ranges + max clock)."""
    from ..synth import FamilySpec, generate_program

    return generate_program(FamilySpec(target_kloc=kloc, seed=seed))


def make_variant(source: str, edit_seed: int) -> str:
    """Perturb one float literal of ``source`` in its last decimal
    digit (never the leading digit, so magnitudes are preserved and the
    analysis stays well-conditioned).  ``edit_seed`` picks the literal
    and the new digit deterministically; seed 0 returns the source
    unchanged (the identity edit)."""
    if edit_seed == 0:
        return source
    lits = list(_FLOAT_LIT.finditer(source))
    if not lits:
        return source
    rng = random.Random(edit_seed)
    m = rng.choice(lits)
    text = m.group(1)
    digits = text.replace(".", "")
    last = text[-1]
    replacement = str((int(last) + rng.randint(1, 9)) % 10)
    new = text[:-1] + replacement
    if float(new) == 0.0 and float(text) != 0.0:
        new = text[:-1] + "1"  # keep divisors/gains nonzero
    return source[:m.start(1)] + new + source[m.end(1):]
