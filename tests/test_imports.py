"""Every import in the package modules is used (``__init__`` re-exports exempt)
and sits at module level, not inside a function body."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "siamverify"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def function_local_imports(source: str) -> list[int]:
    """Lines of the import statements inside a function body."""
    tree = ast.parse(source)
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "def f(x: Tensor) -> str:\n"
              "    return dumps(os.sep)\n")
    assert unused_imports(source) == [(3, "osp"), (4, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_function_local_imports():
    source = ("import os\n"
              "def f():\n"
              "    import json\n"
              "    def g():\n"
              "        from os import path\n"
              "    return json, g\n"
              "class C:\n"
              "    def m(self):\n"
              "        import sys\n")
    assert function_local_imports(source) == [3, 5, 9]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text(encoding="utf-8")) == []
