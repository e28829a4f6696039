"""Pretty-printing of IR programs (tracing facilities, Sect. 5.3)."""

from __future__ import annotations

from typing import List

from . import ir as I

__all__ = ["format_function", "format_stmts"]


def format_function(fn: I.IRFunction) -> str:
    params = ", ".join(f"{p.ctype} {p.name}" for p in fn.params)
    lines = [f"{fn.ret_type} {fn.name}({params}) {{"]
    lines.extend(format_stmts(fn.body, indent=1))
    lines.append("}")
    return "\n".join(lines)


def format_stmts(stmts: List[I.Stmt], indent: int = 0) -> List[str]:
    pad = "  " * indent
    out: List[str] = []
    for s in stmts:
        if isinstance(s, I.SAssign):
            out.append(f"{pad}{s.target} = {s.value};")
        elif isinstance(s, I.SIf):
            out.append(f"{pad}if ({s.cond}) {{")
            out.extend(format_stmts(s.then, indent + 1))
            if s.other:
                out.append(f"{pad}}} else {{")
                out.extend(format_stmts(s.other, indent + 1))
            out.append(f"{pad}}}")
        elif isinstance(s, I.SWhile):
            kind = "do-while" if s.run_body_first else "while"
            out.append(f"{pad}{kind} ({s.cond}) {{  /* loop {s.loop_id} */")
            out.extend(format_stmts(s.body, indent + 1))
            if s.step:
                out.append(f"{pad}  /* step: */")
                out.extend(format_stmts(s.step, indent + 1))
            out.append(f"{pad}}}")
        elif isinstance(s, I.SSwitch):
            out.append(f"{pad}switch ({s.scrutinee}) {{")
            for values, body in s.cases:
                label = "default" if values is None else f"case {values}"
                out.append(f"{pad}  {label}:")
                out.extend(format_stmts(body, indent + 2))
            out.append(f"{pad}}}")
        elif isinstance(s, I.SCall):
            args = ", ".join(str(a) for a in s.args)
            target = f"{s.result} = " if s.result is not None else ""
            out.append(f"{pad}{target}{s.func}({args});")
        elif isinstance(s, I.SReturn):
            out.append(f"{pad}return {s.value if s.value is not None else ''};")
        elif isinstance(s, I.SBreak):
            out.append(f"{pad}break;")
        elif isinstance(s, I.SContinue):
            out.append(f"{pad}continue;")
        elif isinstance(s, I.SWait):
            out.append(f"{pad}__ASTREE_wait_for_clock();")
        elif isinstance(s, I.SAssume):
            out.append(f"{pad}__ASTREE_known_fact({s.cond});")
        elif isinstance(s, I.SCheck):
            out.append(f"{pad}__ASTREE_assert({s.cond});")
        elif isinstance(s, I.SNop):
            out.append(f"{pad};")
        else:  # pragma: no cover
            out.append(f"{pad}/* {s!r} */")
    return out
