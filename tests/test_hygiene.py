"""Source hygiene of ``src/qsc``: no unused imports, no unused parameters,
no dead definitions, and a check path that stays free of numpy.

Each module but ``__init__.py`` (which imports to re-export) is read as an
AST.  The one allowed unused import is a name ``bench/tracing.py`` wraps in
that module, since the tracer can only rebind a name the module binds:
``qsc.corpus.check_derivation`` and ``qsc.semantics.normalize`` today.
Every top-level function and class is read outside its own body, in
``src/qsc``, ``bench`` or ``demos``: code that only tests read is dead.
The modules that parse, check and render a script import neither numpy nor
the modules that need it.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from test_tracing_contract import load_tracing

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "qsc"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
# the modules ``qsc check`` and ``qsc render`` need, and what they may not import
CHECK_PATH = ("syntax", "parser", "kernel", "render")
NOT_ON_CHECK_PATH = ("numpy", "qsc.semantics", "qsc.corpus", "qsc.cli")
READERS = sorted([*SRC.glob("*.py"), *(ROOT / "bench").rglob("*.py"),
                  *(ROOT / "demos").glob("*.py")])


def read_names(tree: ast.AST) -> set:
    """Every name the tree loads, by itself or as the root of an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def references(tree: ast.AST) -> set:
    """Every name the tree loads, reads as an attribute or imports from a module."""
    names = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_imports(tree: ast.Module) -> list:
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = read_names(tree)
    return sorted(name for name in imported if name not in read)


def unused_parameters(tree: ast.Module) -> list:
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = set().union(*(read_names(statement) for statement in node.body))
        unused += [f"{node.name}({p.arg})" for p in params
                   if p.arg != "self" and p.arg not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    unused = unused_imports(ast.parse(path.read_text()))
    allowed = {attr for module, attr, _, _ in load_tracing().WRAPPED
               if module == f"qsc.{path.stem}"}
    assert [name for name in unused if name not in allowed] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_has_a_parameter_it_never_reads(path):
    assert unused_parameters(ast.parse(path.read_text())) == []


def test_every_top_level_definition_is_read_somewhere():
    statements = [(path, statement) for path in READERS
                  for statement in ast.parse(path.read_text()).body]
    read = [(statement, references(statement)) for _, statement in statements]
    unread = [f"{path.name}:{node.name}" for path, node in statements
              if path.parent == SRC
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not any(node.name in names for other, names in read if other is not node)]
    assert unread == []


def imported_modules(tree: ast.Module) -> set:
    """Absolute names of the modules the tree imports; ``from m import n``
    counts ``m`` and ``m.n``, since ``n`` may be a module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = ".".join(filter(None, ("qsc" if node.level else "", node.module)))
            modules.add(base)
            modules.update(f"{base}.{alias.name}" for alias in node.names)
    return modules


@pytest.mark.parametrize("name", CHECK_PATH)
def test_the_check_path_imports_no_numpy(name):
    modules = imported_modules(ast.parse((SRC / f"{name}.py").read_text()))
    assert sorted(m for m in modules for banned in NOT_ON_CHECK_PATH
                  if m == banned or m.startswith(f"{banned}.")) == []
    # its own qsc imports stay on the check path, so the guard covers them too
    assert {m.split(".")[1] for m in modules if m.startswith("qsc.")} <= set(CHECK_PATH)
