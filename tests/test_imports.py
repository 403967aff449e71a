"""The package's modules import each other at module top, by public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcx"


def _bad_imports(source: str) -> list[str]:
    """Each relative import inside a function, class or other block, and each
    relative import of a private name, as "line N: from .x import name"."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        names = [a.name for a in node.names]
        where = f"line {node.lineno}: from .{node.module or ''} import "
        if id(node) not in top:
            bad.append(where + ", ".join(names))
        bad += [where + n for n in names if n.startswith("_")]
    return bad


def test_relative_imports_are_at_module_top_and_public():
    bad = [f"{path.name} {b}" for path in sorted(SRC.glob("*.py"))
           for b in _bad_imports(path.read_text(encoding="utf-8"))]
    assert bad == []


def test_the_guard_sees_both_kinds():
    source = ("from .a import b, _c\n"
              "from . import d\n"
              "import os\n"
              "def f():\n"
              "    from .e import g\n"
              "    from os import _exit\n")
    assert _bad_imports(source) == ["line 1: from .a import _c",
                                    "line 5: from .e import g"]
