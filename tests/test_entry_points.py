"""Every layer entry point that the benchmark's traced run wraps must exist.

`perfbench/spans.py` names them in `ENTRY_POINTS`; the dict is read from the
file's source, so the test runs without importing the benchmark package.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _entry_points() -> dict:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("ENTRY_POINTS not found in perfbench/spans.py")


def test_entry_points_resolve():
    entry_points = _entry_points()
    assert entry_points
    for module, names in entry_points.items():
        mod = importlib.import_module(f"momentkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"momentkit.{module}.{name}"
