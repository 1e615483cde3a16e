"""Every import binds only names its module uses.

A name imported but never read is a second import path that nothing takes,
or a leftover of deleted code. The check reads each module's syntax tree;
an import whose first line carries ``# noqa: F401`` is kept on purpose and
exempt (replay imports two names that perfbench/worker.py wraps).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "twochoice").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # import a.b binds a; import a.b as c and from a import b as c bind c
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_the_check_flags_an_unused_name_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import csv, json\n"
              "from math import pi, tau as turn\n"
              "from numpy import e  # noqa: F401\n"
              "print(os.path.sep, json, turn)\n")
    assert unused_imports(source) == [(3, "csv"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
