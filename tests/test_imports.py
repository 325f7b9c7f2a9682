"""Lint checks without a lint package: every imported name is used, every
library function is read somewhere and reads each of its parameters, and the
library depends on numpy alone.

The unused-import check scans the library modules (not the package __init__,
whose imports are its exports), the test files and the benchmark's files. An
import line carrying '# noqa' is exempt. The dead-code check asks of each
top-level function of the library modules that the library or the benchmark
reads it by name; the tests do not count, so the library holds no code that
only its tests reach. The unread-parameter check asks of every function and
lambda of the library that its body reads each parameter whose name does not
start with an underscore, so no argument is taken only to be ignored.
"""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "rarhmm").glob("*.py"), key=str)
BENCH = sorted((ROOT / "bench").glob("*.py"), key=str)
FILES = sorted([p for p in LIBRARY if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")) + BENCH, key=str)


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


def _reads(tree: ast.AST, strings: bool):
    """(name, line) of each name read in tree, as a Name or an Attribute, and
    also as a string constant when strings is set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unread_functions(library: dict, bench: dict) -> list:
    """(file, name) of each top-level function of the library files (file
    name to source), the package __init__ aside, that is read nowhere outside
    its own body: not in the library, nor in the benchmark's files, where a
    string naming it counts too (bench/spans.py finds the functions it times
    by name)."""
    trees = {name: ast.parse(source) for name, source in library.items()}
    reads = [(f, name, line) for f, tree in trees.items() for name, line in _reads(tree, False)]
    reads += [(None, name, line) for source in bench.values()
              for name, line in _reads(ast.parse(source), True)]
    found = []
    for f, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and f != "__init__.py" and not any(
                    name == fn.name and not (where == f and fn.lineno <= line <= fn.end_lineno)
                    for where, name, line in reads):
                found.append((f, fn.name))
    return found


def test_the_check_finds_unread_functions():
    library = {"a.py": "def f():\n    return f()\ndef g():\n    pass\ndef h():\n    pass\n",
               "b.py": "from .a import g, h\nx = g\ndef k():\n    pass\ndef m():\n    pass\n",
               "__init__.py": "def n():\n    pass\n"}
    bench = {"run.py": "import b\nSPANS = ('k',)\nb.m()\n"}
    assert unread_functions(library, bench) == [("a.py", "f"), ("a.py", "h")]


def test_every_library_function_is_read():
    assert unread_functions({p.name: p.read_text() for p in LIBRARY},
                            {p.name: p.read_text() for p in BENCH}) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function or lambda
    that its body never reads, nested functions included; assigning to a
    parameter is not reading it, and names with a leading underscore are
    exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        inner = [n for stmt in (node.body if isinstance(node.body, list) else [node.body])
                 for n in ast.walk(stmt)]
        read = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in inner
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p) for p in params
                  if not p.startswith("_") and p not in read]
    return sorted(found)


def test_the_check_finds_unread_parameters():
    src = ("def f(a, b, *c, d, _e, **f):\n    return a + d\n"
           "def g(x, y):\n    x = 1\n    y += 1\n    return 0\n"
           "class C:\n    def m(self, z):\n        def inner(w):\n            return z\n"
           "        return self\n"
           "h = lambda p, _q, r: p\n")
    assert unread_parameters(src) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "f"),
                                      (3, "g", "x"), (9, "inner", "w"),
                                      (12, "<lambda>", "r")]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_library_function_reads_its_parameters(path):
    assert unread_parameters(path.read_text()) == []


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
