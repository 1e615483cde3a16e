"""Every import binds only names its module uses, and every module-level
function or class of the package is read by the package.

A name imported but never read is a second import path that nothing takes,
or a leftover of deleted code. The check reads each module's syntax tree.
An import whose first line carries ``# noqa: F401`` is kept on purpose, and
may bind only names that perfbench/worker.py's ``install_tracer`` patches in
that module: replay imports ``substream``, ``bootstrap_ci`` and
``majority_vote`` so, and cli imports ``run_iteration``, ``substream``,
``sample_difficulties`` and ``sample_capabilities``. Once the benchmark stops
patching a name, its exempt import fails here and can be deleted. A
definition that no package module reads is dead code, or code that only the
tests use, which belongs with them; ``main`` and the names that
``install_tracer`` patches are exempt.
"""
import ast
import functools
import importlib.util
from pathlib import Path

import pytest

import twochoice.cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twochoice"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str, kept=frozenset()) -> list:
    """(line, name) for each name an import binds and the module never reads,
    and for each name an exempt import binds that is not in ``kept``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        allowed = kept if "# noqa: F401" in lines[node.lineno - 1] else used
        for alias in node.names:
            # import a.b binds a; import a.b as c and from a import b as c bind c
            name = alias.asname or alias.name.split(".")[0]
            if name not in allowed:
                unused.append((node.lineno, name))
    return unused


@functools.cache
def traced_names() -> dict:
    """{module name: names} that ``install_tracer`` patches, recorded by a
    stand-in for its Tracer that patches nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    patched: dict = {}

    class Recorder:
        def patch(self, module, attr, name, on_result=None):
            patched.setdefault(module.__name__, set()).add(attr)

    worker.install_tracer(Recorder(), twochoice)
    return patched


def test_the_check_flags_an_unused_name_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import csv, json\n"
              "from math import pi, tau as turn\n"
              "from numpy import e, inf  # noqa: F401\n"
              "print(os.path.sep, json, turn, inf)\n")
    assert unused_imports(source, kept={"e", "inf"}) == [(3, "csv"), (4, "pi")]
    # an exempt import binds only kept names, used or not
    assert unused_imports(source, kept={"e"}) == [(3, "csv"), (4, "pi"), (5, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    module = f"twochoice.{path.stem}" if path.parent == PACKAGE else None
    kept = traced_names().get(module, set())
    assert unused_imports(path.read_text(encoding="utf-8"), kept) == []


def unread_definitions(sources: dict, exempt=frozenset()) -> list:
    """(module, name) for each module-level function or class of the
    {module: source} given that no source reads and ``exempt`` does not hold."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read and node.name not in exempt]


def test_the_check_flags_an_unread_definition():
    sources = {"a": "def used():\n    pass\n\n\nclass Dead:\n    pass\n",
               "b": "def main():\n    return used()\n\n\ndef patched():\n    pass\n"}
    assert unread_definitions(sources, exempt={"main"}) == [("a", "Dead"), ("b", "patched")]
    assert unread_definitions(sources, exempt={"main", "patched"}) == [("a", "Dead")]


def test_every_definition_is_read_by_the_package():
    exempt = {"main"}.union(*traced_names().values())
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(sources, exempt) == []
