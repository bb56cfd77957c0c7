"""pyproject.toml agrees with the package: every declared console script
resolves to a callable, the declared dependencies are exactly the
third-party imports, every name a module exports exists, every name a
module imports is used and every private module-level function is
called from the package."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import ainfbench

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_import_to_callables():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target}"


def _third_party_imports():
    """Top-level names imported by the package that are neither its own
    nor in the standard library."""
    names = set()
    for path in (PYPROJECT.parent / "src" / "ainfbench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names
            if n != "ainfbench" and n not in sys.stdlib_module_names}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {re.split(r"[\s\[<>=!~;]", dep, maxsplit=1)[0]
                .lower().replace("-", "_")
                for dep in project.get("dependencies", [])}
    assert _third_party_imports() == declared


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(ainfbench.__path__):
        module = importlib.import_module(f"ainfbench.{info.name}")
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def _unused_imports(path):
    """Names a module imports (other than from ``__future__``) that it
    neither references nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_src_imports_are_used():
    for path in sorted((PYPROJECT.parent / "src" / "ainfbench").rglob("*.py")):
        unused = _unused_imports(path)
        assert not unused, f"{path.name} imports unused {unused}"


def test_potential_has_no_floating_point():
    """Root recognition is exact: potential.py names neither ``float`` nor
    ``complex`` and holds no float or complex constant."""
    path = PYPROJECT.parent / "src" / "ainfbench" / "potential.py"
    found = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id in ("float", "complex")
        or isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
    ]
    assert not found, f"potential.py uses floating point at {found}"


def _unreferenced_private_functions():
    """Module-level private functions of the package that no code of the
    package references outside their own definition."""
    trees = [ast.parse(path.read_text(), str(path)) for path in
             sorted((PYPROJECT.parent / "src" / "ainfbench").rglob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = set()
    for top in (node for tree in trees for node in tree.body):
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            else:
                continue
            if ref != own:
                used.add(ref)
    return sorted(private - used)


def test_private_functions_are_used_by_the_package():
    """A private helper that only tests call is dead code."""
    unused = _unreferenced_private_functions()
    assert not unused, f"private functions used nowhere in src: {unused}"
