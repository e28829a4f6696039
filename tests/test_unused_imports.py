"""Every ``src/``, ``tests/`` and ``benchmarks/`` module reads each name
it imports.

Names listed in ``__all__`` (re-exports), ``from __future__`` imports
and names inside string annotations count as reads.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(e.value for e in node.value.elts)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    names.update(_read(ast.parse(sub.value, mode="eval")))
    return names


def test_every_imported_name_is_read():
    unused = []
    for path in sorted(path for top in ("src", "tests", "benchmarks")
                       for path in (ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree) if name not in read]
    assert not unused, "unused imports:\n" + "\n".join(unused)
