"""The library catches only the exceptions it expects.

A broad handler (`except Exception`, `except BaseException` or a bare
`except:`) would turn a programming error into an `Unknown` verdict or an
input-error exit code.  The modules are read as source, so a handler inside
a function counts too, and a broad class inside a tuple of classes as well.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momentkit"
BROAD = {"Exception", "BaseException"}


def _broad_handlers(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None)
                 for c in caught if c is not None}
        if node.type is None or names & BROAD:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_broad_exception_handlers():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _broad_handlers(path)] == []


def test_the_check_sees_broad_handlers(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("try:\n    pass\nexcept:\n    pass\n"
                      "try:\n    pass\nexcept (KeyError, builtins.Exception):\n    pass\n"
                      "try:\n    pass\nexcept KeyError:\n    pass\n")
    assert _broad_handlers(source) == ["sample.py:3", "sample.py:7"]
