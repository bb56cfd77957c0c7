"""pyproject.toml agrees with the package: every declared console script
resolves to a callable, the declared dependencies are exactly the
third-party imports, every name a module exports exists, every name a
module imports is used, every private module-level function, and
every method of a private class, is called from the package, and every
public name is called from the package or the benchmark or is a listed
entry point of a roadmap pipeline."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import ainfbench

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# Public names that neither the package nor the benchmark calls yet, each
# kept for the ROADMAP item whose pipeline or command will call it.  A name
# that gains a caller leaves this list, so the list only shrinks; a new
# public name gets a caller or moves into the tests.
PIPELINE_ENTRY_POINTS = {
    # item 2: polygon -> critical points -> fibers -> HH, Mukai, generation
    "ainfinity.cohomology_category": "item 2",
    "ainfinity.divisor_element": "item 2",
    "hochschild.unit_cochain": "item 2",
    "hochschild.element_cochain": "item 2",
    "hochschild.cap": "item 2",
    "hochschild.restrict_cochain": "item 2",
    "hochschild.restrict_to_object": "item 2",
    "hochschild.object_chain": "item 2",
    "hochschild.raise_length": "item 2",
    "mukai.cyc_pair": "item 2",
    "mukai.z_map": "item 2",
    "potential.hessian": "item 2",
    # item 12: `ainfbench run <fixture>` and `ainfbench replay cert.json`
    "ainfinity.check_cyclic": "item 12",
    "models.sphere_model": "item 12",
    "models.point_category": "item 12",
    "models.lambda_pair_algebra": "item 12",
    "models.summand_category": "item 12",
    "novikov.parse_scalar": "item 12",
}


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
    """Module-level private functions of the package, and methods of its
    private classes, that no code of the package references outside their
    own definition.  Dunder methods are called by the language."""
    trees = [ast.parse(path.read_text(), str(path)) for path in
             sorted((PYPROJECT.parent / "src" / "ainfbench").rglob("*.py"))]
    # units: each top-level statement, and each method of a private class
    units, private = [], set()
    for top in (node for tree in trees for node in tree.body):
        if isinstance(top, ast.ClassDef) and top.name.startswith("_"):
            units += top.body
            private.update(f"{top.name}.{node.name}" for node in top.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.endswith("__"))
        else:
            units.append(top)
            if isinstance(top, ast.FunctionDef) and \
                    top.name.startswith("_") and not top.name.endswith("__"):
                private.add(top.name)
    used = set()
    for unit in units:
        own = unit.name if isinstance(unit, ast.FunctionDef) else None
        for node in ast.walk(unit):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            else:
                continue
            if ref != own:
                used.add(ref)
    return sorted(name for name in private
                  if name.rpartition(".")[2] not in used)


def test_private_functions_are_used_by_the_package():
    """A private helper, or a method of a private class such as ``_Poly``,
    that only tests call is dead code."""
    unused = _unreferenced_private_functions()
    assert not unused, f"private functions used nowhere in src: {unused}"


def _public_names(tree):
    """A module's ``__all__``; without one, the functions, classes and
    variables it defines at top level, less those with a leading
    underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "__all__" in targets:
                return set(ast.literal_eval(node.value))
            names |= targets
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def _references(tree):
    """Names a syntax tree loads, attributes it reads and names it imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def _uncalled_public_names():
    """``module.name`` for each public name of the package that no code of
    the package outside its own definition, and no code of ``perfbench/``,
    references."""
    root = PYPROJECT.parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in
             sorted((root / "src" / "ainfbench").glob("*.py"))}
    bench = set()
    for path in sorted((root / "perfbench").glob("*.py")):
        bench |= _references(ast.parse(path.read_text(), str(path)))
    # (module, name defined or None, references) per top-level statement;
    # ``__all__`` is the list being checked, not a use
    units = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in top.targets):
                continue
            own = getattr(top, "name", None)
            units.append((module, own, _references(top)))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items() for name in _public_names(tree)
        if name not in bench and not any(
            name in refs for where, own, refs in units
            if (where, own) != (module, name)))


def test_public_names_are_called_or_listed():
    """A public name that only tests call is dead code: it moves into the
    tests that use it, goes, or is listed with the ROADMAP item whose
    pipeline will call it."""
    uncalled = _uncalled_public_names()
    unlisted = sorted(set(uncalled) - set(PIPELINE_ENTRY_POINTS))
    assert not unlisted, f"public names nothing calls: {unlisted}"
    stale = sorted(set(PIPELINE_ENTRY_POINTS) - set(uncalled))
    assert not stale, f"listed entry points that name nothing or " \
        f"have a caller now: {stale}"
    assert all(re.fullmatch(r"item \d+", item)
               for item in PIPELINE_ENTRY_POINTS.values())
