"""Only the grid oracle may import numpy or scipy, no module but `numeric`
names the dense determinants, and no module imports a name it does not use.

Every other module decides exactly on Python integers, and float input runs
through the same integer kernel, so the package itself needs neither.
`det` and `det_poly` are a reference for the tests: every library path
eliminates a Hankel form with the leading-minor pass instead.  The modules
are read as source, so an import inside a function counts too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momentkit"
NUMERIC_LIBRARIES = {"numpy", "scipy"}
DENSE_ELIMINATION = {"det", "det_poly"}


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_the_oracle_imports_numpy_or_scipy():
    users = {path.name for path in PACKAGE.glob("*.py")
             if _imported_roots(path) & NUMERIC_LIBRARIES}
    assert users == {"oracle.py"}


def _names(path: Path) -> set:
    """Every identifier, attribute, function and imported name in the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name.split(".")[-1])
    return names


def test_no_library_path_eliminates_densely():
    users = {path.name for path in PACKAGE.glob("*.py")
             if _names(path) & DENSE_ELIMINATION}
    assert users == {"numeric.py"}


def _unused_imports(path: Path) -> set:
    """Names bound by the module's top-level imports that no expression in
    the module reads (annotations included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    unused = {path.name: names for path in PACKAGE.glob("*.py")
              if (names := _unused_imports(path))}
    assert unused == {}
