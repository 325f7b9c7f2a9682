"""Lint checks without a lint package: every imported name is used, and the
library depends on numpy alone.

The unused-import check scans the library modules (not the package __init__,
whose imports are its exports), the test files and the benchmark's files. An
import line carrying '# noqa' is exempt.
"""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "rarhmm").glob("*.py"), key=str)
FILES = sorted([p for p in LIBRARY if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")) + list((ROOT / "bench").glob("*.py")),
               key=str)


def _used_names(tree: ast.AST) -> set:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append((node.lineno, name))
    return found


def test_the_check_finds_unused_imports():
    src = ("from __future__ import annotations\nimport os\nimport sys  # noqa\n"
           "from a import (b,\n    c)\nimport d.e\n"
           "def f(x: 'b') -> None:\n    return d.e\n")
    assert unused_imports(src) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_exists_once():
    import rarhmm
    missing = [name for name in rarhmm.__all__ if not hasattr(rarhmm, name)]
    repeated = sorted({name for name in rarhmm.__all__ if rarhmm.__all__.count(name) > 1})
    assert (missing, repeated) == ([], [])


def foreign_imports(source: str) -> list:
    """(line, top-level module) of each absolute import outside the standard
    library, numpy and rarhmm itself; relative imports stay in the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "rarhmm"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, top) for top in (n.split(".")[0] for n in names)
                  if top not in allowed]
    return found


def test_the_check_finds_foreign_imports():
    src = ("import os.path\nimport numpy as np\nfrom numpy.lib import stride_tricks\n"
           "from . import model\nimport scipy.linalg\nfrom pandas import DataFrame\n"
           "def f():\n    import yaml\n")
    assert foreign_imports(src) == [(5, "scipy"), (6, "pandas"), (8, "yaml")]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []
