"""Every import in the package modules is used (``__init__`` re-exports exempt)
and sits at module level, not inside a function body; and one function in the
package opens files for writing."""

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


def _open_mode(call: ast.Call):
    """The mode node of an ``open`` call, a literal ``"r"`` if it is left out, or
    None when the call opens nothing.  ``open``, ``io.open`` and ``os.open`` take
    the mode second; a ``Path.open`` takes it first."""
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "open":
        pos = 1
    elif isinstance(fn, ast.Attribute) and fn.attr == "open":
        pos = 1 if isinstance(fn.value, ast.Name) and fn.value.id in ("io", "os") else 0
    else:
        return None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode or (call.args[pos] if len(call.args) > pos else ast.Constant("r"))


def writing_opens(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each ``open`` call whose mode may write:
    one that holds ``w``, ``a``, ``x`` or ``+``, or is no string literal."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                mode = _open_mode(child)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and isinstance(mode.value, str)
                                             and not set(mode.value) & set("wax+")):
                    found.append((child.lineno, fn))
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_fn else fn)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda hit: hit[0])


def test_detector_flags_writing_opens():
    source = ("import io, os, pathlib\n"
              "def read(p):\n"
              "    return open(p).read() + open(p, 'rb').read() + open(p, mode='r').read()\n"
              "def write(p, m):\n"
              "    open(p, 'w'); open(p, 'ab'); open(p, mode='r+')\n"
              "    open(p, m)\n"
              "    io.open(p, 'x')\n"
              "    os.open(p, os.O_WRONLY)\n"
              "    pathlib.Path(p).open('w')\n"
              "    pathlib.Path(p).open()\n"
              "class C:\n"
              "    def m(self, p):\n"
              "        with open(p, 'wb') as f:\n"
              "            return f\n"
              "open('log', 'a')\n")
    assert writing_opens(source) == [(5, "write"), (5, "write"), (5, "write"), (6, "write"),
                                     (7, "write"), (8, "write"), (9, "write"), (13, "m"),
                                     (15, None)]


def test_one_function_opens_files_for_writing():
    writers = [(path.name, line, fn) for path in sorted(PACKAGE.glob("*.py"))
               for line, fn in writing_opens(path.read_text(encoding="utf-8"))]
    assert [(name, fn) for name, _, fn in writers] == [("atomic.py", "atomic_open")], writers
