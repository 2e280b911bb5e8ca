"""Only curvzoo.charts knows how tensor components are stored.

Every other module reads components through Tensor (T[idx], items(),
nonzero_items()) and builds tensors with Tensor.from_terms, so a Tensor's
cached support can rely on its frozen component array.  This static check
fails when a module other than charts.py imports numpy or reads an
`.array` attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "curvzoo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "charts.py")


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
