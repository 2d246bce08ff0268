"""No module of src/cavicore imports a name that it never uses.

A name that the benchmark's tracer patches in a module (perfbench/tracing.py)
is imported there on purpose; its import line carries MARK and is exempt. The
package's __init__.py re-exports what it imports and is not checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cavicore"
MARK = "# noqa: F401 (perfbench patches it here)"


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports, outside a MARK line and
    `from __future__`, and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                MARK in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_finds_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from math import (pi,\n"
              "                  tau)\n"
              f"from math import e  {MARK}\n"
              "print(np.pi, pi)\n")
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((SRC / module).read_text()) == []
