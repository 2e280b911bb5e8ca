"""Only curvzoo.charts knows how tensor components are stored.

Every other module reads components through Tensor (T[idx], items(),
nonzero_items()) and builds tensors with Tensor.from_terms, so a Tensor's
cached support can rely on its frozen component array.  This static check
fails when a module other than charts.py imports numpy or reads an
`.array` attribute.  Inside charts.py, numpy and the component-array
helpers are confined to Tensor, the helpers themselves and the metric's
determinant and inverse: the curvature pipeline walks Tensor supports like
every other kernel.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "curvzoo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "charts.py")

#: The top-level definitions of charts.py that may use numpy: `np.` and
#: the component-array helpers that wrap it.
NUMPY_SCOPES = {"Tensor", "_object_array", "zeros", "Chart", "build_chart",
                "determinant", "_adjugate_inverse", "rank_at_most"}
ARRAY_HELPERS = {"_object_array", "zeros"}


def storage_uses(source: str) -> list[str]:
    """numpy imports and `.array` reads in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute) and node.attr == "array":
            found.append(f"{node.lineno}: .array")
            continue
        else:
            continue
        found += [f"{node.lineno}: import {name}" for name in names
                  if name.split(".")[0] == "numpy"]
    return found


def _uses_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "np"
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ARRAY_HELPERS)


def numpy_uses_outside(source: str, scopes: set) -> list[str]:
    """`np.` reads, `from numpy` imports and array-helper calls outside the
    top-level definitions named in scopes, as 'line: enclosing definition'.
    """
    return [f"{node.lineno}: {getattr(top, 'name', 'module')}"
            for top in ast.parse(source).body
            if getattr(top, "name", None) not in scopes
            for node in ast.walk(top) if _uses_numpy(node)]


def test_the_check_sees_both_kinds_of_use():
    assert storage_uses("import numpy as np\nfrom numpy import ndindex\n"
                        "x = T.array[0]\n") == [
        "1: import numpy", "2: import numpy", "3: .array"]
    assert storage_uses("import numbers\nx = T.arrays\n") == []


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"classifiers.py", "operators.py",
                                         "zoo.py", "exprs.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_storage_access_outside_charts(path):
    assert storage_uses(path.read_text(encoding="utf-8")) == []


def test_the_numpy_scope_check_sees_every_use_outside_its_scopes():
    source = ("import numpy as np\n"
              "def helper():\n    return np.empty(3)\n"
              "class Tensor:\n"
              "    def items(self) -> np.ndarray:\n"
              "        return np.ndindex(2)\n"
              "def pipeline(x: np.ndarray):\n    return np.zeros(x)\n"
              "LIMIT = np.int64(3)\n"
              "from numpy import ndindex\n"
              "def dense(n):\n    return zeros(ctx, (n, n))\n"
              "def walk(T):\n    return T.nonzero_items()\n")
    assert numpy_uses_outside(source, {"helper", "Tensor"}) == [
        "7: pipeline", "8: pipeline", "9: module", "10: module",
        "12: dense"]
    assert numpy_uses_outside(source, {"helper", "Tensor", "pipeline",
                                       "dense"}) == ["9: module",
                                                     "10: module"]


def test_numpy_stays_in_its_scopes_in_charts():
    source = (PACKAGE / "charts.py").read_text(encoding="utf-8")
    defined = {getattr(top, "name", None) for top in ast.parse(source).body}
    assert NUMPY_SCOPES <= defined
    assert numpy_uses_outside(source, NUMPY_SCOPES) == []
