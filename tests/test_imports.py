"""Every import in the package modules is used (``__init__`` re-exports exempt)
and sits at module level, not inside a function body; one function in the
package opens files for writing and one sets the allocator, called by both
``train`` and ``score_pairs``; only ``errors.py`` decides what a number is
(``np.integer``, ``finite_real``); every public function, class and method
has a caller in the package or in perfbench, not only in tests; and so does
every private top-level function and module-level constant."""

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


def functions_referencing(source: str, name: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of each line that names ``name``, as a name or an attribute."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.append((child.lineno, fn))
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_fn else fn)

    visit(ast.parse(source), None)
    return sorted(set(found), key=lambda hit: hit[0])


def calls_in(source: str, function: str) -> set[str]:
    """Names called, as a name or an attribute, in the body of each function named ``function``."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == function
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_detector_flags_a_second_mallopt_call_site():
    source = ("import ctypes\n"
              "def keep():\n"
              "    mallopt = ctypes.CDLL(None).mallopt\n"
              "    mallopt(-1, 1)\n"
              "def score():\n"
              "    keep()\n"
              "    ctypes.CDLL(None).mallopt(-3, 2)\n")
    assert functions_referencing(source, "mallopt") == [(3, "keep"), (4, "keep"),
                                                        (7, "score")]
    assert calls_in(source, "score") == {"keep", "mallopt", "CDLL"}


def test_one_function_sets_the_allocator_and_train_and_scoring_call_it():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    owners = {(name, fn) for name, source in sources.items()
              for _, fn in functions_referencing(source, "mallopt")}
    assert owners == {("trainer.py", "keep_freed_memory")}, owners
    assert "keep_freed_memory" in calls_in(sources["trainer.py"], "train")
    assert "keep_freed_memory" in calls_in(sources["evaluator.py"], "score_pairs")


def number_test_sites(source: str) -> list[int]:
    """Lines that name ``np.integer`` or ``finite_real``: where a module tests a number's type."""
    return sorted({line for name in ("integer", "finite_real")
                   for line, _ in functions_referencing(source, name)})


def test_detector_flags_a_second_number_test_site():
    source = ("import numpy as np\n"
              "from . import errors\n"
              "def seed_ok(seed):\n"
              "    errors.check_int('seed', seed, 0)\n"
              "    return isinstance(seed, (int, np.integer))\n"
              "def lr_ok(lr):\n"
              "    return errors.finite_real(lr) and lr > 0\n")
    assert number_test_sites(source) == [5, 7]


def test_only_errors_decides_what_a_number_is():
    owners = {path.name for path in MODULES
              if number_test_sites(path.read_text(encoding="utf-8"))}
    assert owners == {"errors.py"}, owners


PERFBENCH = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def public_definitions(source: str) -> list[tuple[int, str, str]]:
    """(line, qualified name, name) of each public top-level function and class,
    and of each public method of a top-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.lineno, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(m.lineno, f"{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private top-level function and of each private name
    a top-level assignment binds; dunder names are not private."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def referenced_names(source: str, strings: bool = False) -> set[str]:
    """Each name read (a ``Name`` not assigned to, or an attribute's name) outside
    a definition of that name; with ``strings``, each string constant too."""
    found = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
            else:
                name = None
            if name is not None and name not in inside:
                found.add(name)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, inside | {child.name} if is_def else inside)

    visit(ast.parse(source), frozenset())
    return found


def test_detector_finds_definitions_and_references():
    source = ("class C:\n"
              "    def used(self):\n"
              "        return self.used() + helper()\n"
              "    def _private(self):\n"
              "        pass\n"
              "def helper():\n"
              "    return helper() + C().used\n"
              "def dead():\n"
              "    return 'named'\n")
    assert public_definitions(source) == [(1, "C", "C"), (2, "C.used", "used"),
                                          (6, "helper", "helper"), (8, "dead", "dead")]
    assert referenced_names(source) == {"C", "used", "helper", "self"}
    assert referenced_names(source, strings=True) == {"C", "used", "helper", "self", "named"}


def test_detector_finds_private_definitions():
    source = ("_LIMIT = 4\n"
              "_a = _b = 1\n"
              "__all__ = ['f']\n"
              "_n: int = 3\n"
              "PUBLIC = _n\n"
              "def _helper():\n"
              "    return _helper() + _LIMIT\n"
              "class _C:\n"
              "    _inner = 1\n"
              "    def _m(self):\n"
              "        _local = 2\n")
    assert private_definitions(source) == [(1, "_LIMIT"), (2, "_a"), (2, "_b"), (4, "_n"),
                                           (6, "_helper")]
    assert referenced_names(source) & {"_LIMIT", "_a", "_b", "_n", "_helper"} == {"_LIMIT", "_n"}


def _names_used_in_src_and_perfbench() -> set[str]:
    # perfbench's tracer looks functions up by name, so its strings count
    return set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in MODULES),
                       *(referenced_names(p.read_text(encoding="utf-8"), strings=True)
                         for p in PERFBENCH))


def test_every_public_definition_has_a_caller_in_src_or_perfbench():
    used = _names_used_in_src_and_perfbench()
    unused = [(path.name, line, qualified) for path in MODULES
              for line, qualified, name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in used]
    assert PERFBENCH and unused == []


def test_every_private_top_level_name_is_read_in_src_or_perfbench():
    # a deletion that leaves its helper or constant behind fails here
    used = _names_used_in_src_and_perfbench()
    unused = [(path.name, line, name) for path in MODULES
              for line, name in private_definitions(path.read_text(encoding="utf-8"))
              if name not in used]
    assert PERFBENCH and unused == []
