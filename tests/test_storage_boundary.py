"""curvzoo keeps tensor components in dicts and does not need numpy.

Every module reads components through Tensor (T[idx], items(),
nonzero_items()) and builds tensors with Tensor.from_terms, so only
curvzoo.charts knows that a Tensor's components are one dict from index
tuples to nonzero Exprs.  numpy is confined to Tensor.array, the dense
read-only view built on demand, which imports it inside itself.  These
static checks fail when a module imports numpy at module level, uses `np.`
outside that view or reads `.array` outside charts.py, and when tests or
demos read the view outside its own test; a subprocess check confirms that
a fresh `import curvzoo` and a classification of every builtin leave numpy
and sympy unloaded.

Polynomials are curvzoo.exprs' own dicts, and no module imports sympy: it
is a test-only reference.  The other modules reach polynomials only through
Expr and Context methods.  Within exprs, the rational form that is rebuilt
on demand (_rational_form) is read only by the printer and the parser's
size bounds; exact and modular evaluation read the stored form.

Every module-level private function of the package is referenced from the
package itself, so none is kept alive by the tests alone.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvzoo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "charts.py")
#: Test and demo files that must not read the `.array` view.
READERS = sorted(p for p in [*(ROOT / "tests").glob("*.py"),
                             *(ROOT / "demos").glob("*.py")]
                 if p.name != Path(__file__).name)

#: The only definition in charts.py that may use numpy.
NUMPY_SCOPE = {"Tensor.array"}
#: The only definitions in exprs.py that may reference _rational_form.
RATIONAL_FORM_READERS = {"_format_expr", "_Parser.parse_sum",
                         "_Parser.parse_product", "_Parser.parse_power"}
#: The only definition in tests and demos that may read `.array`: the test
#: of the view itself.
ARRAY_READERS = {"test_charts.py":
                 {"TestSupport.test_components_are_read_only"}}


def _is_numpy_import(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return []
    return [name for name in names if name.split(".")[0] == "numpy"]


def imported_packages(source: str) -> set[str]:
    """The top-level packages that source imports, anywhere in it; relative
    imports count as the empty name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("" if node.level else (node.module or "").split(".")[0])
    return found


def _uses_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    return bool(_is_numpy_import(node))


def _scoped(tree: ast.AST, qualname: str = ""):
    """(node, qualified name of its innermost enclosing definition, '' at
    module level) for every node below tree."""
    for child in ast.iter_child_nodes(tree):
        inner = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{qualname}.{child.name}" if qualname else child.name
        yield child, inner
        yield from _scoped(child, inner)


def storage_uses(source: str) -> list[str]:
    """numpy imports and `.array` reads in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "array":
            found.append(f"{node.lineno}: .array")
        found += [f"{node.lineno}: import {name}"
                  for name in _is_numpy_import(node)]
    return found


def _outside(source: str, scopes: set, found) -> list[str]:
    # The nodes of source that found(node) picks, outside the definitions
    # named in scopes, as 'line: enclosing definition' in line order.
    return [f"{line}: {qualname or 'module'}" for line, qualname in sorted(
        (node.lineno, qualname)
        for node, qualname in _scoped(ast.parse(source))
        if found(node) and qualname not in scopes)]


def numpy_uses_outside(source: str, scopes: set) -> list[str]:
    """numpy imports and `np.` reads outside the definitions named in
    scopes (qualified, as "Class.method"), as 'line: enclosing definition'.
    """
    return _outside(source, scopes, _uses_numpy)


def _names_rational_form(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "_rational_form")
            or (isinstance(node, ast.Attribute)
                and node.attr == "_rational_form")
            or (isinstance(node, ast.alias)
                and node.name == "_rational_form"))


def rational_form_uses_outside(source: str, scopes: set) -> list[str]:
    """References to _rational_form (names, attributes and imports) outside
    the definitions named in scopes, as 'line: enclosing definition'."""
    return _outside(source, scopes, _names_rational_form)


def array_reads_outside(source: str, scopes: set) -> list[str]:
    """`.array` reads outside the definitions named in scopes, as
    'line: enclosing definition'."""
    return _outside(source, scopes, lambda node: isinstance(
        node, ast.Attribute) and node.attr == "array")


def test_the_check_sees_both_kinds_of_use():
    assert storage_uses("import numpy as np\nfrom numpy import ndindex\n"
                        "x = T.array[0]\n") == [
        "1: import numpy", "2: import numpy", "3: .array"]
    assert storage_uses("import numbers\nx = T.arrays\n") == []


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"classifiers.py", "operators.py",
                                         "zoo.py", "exprs.py"}
    assert {p.name for p in READERS} >= {"test_charts.py",
                                         "02_curvature_pipeline.py"}


def test_the_import_check_sees_every_form():
    assert imported_packages("import sympy\n"
                             "from sympy.polys.domains import QQ\n"
                             "def f():\n    import sympy.polys as sp\n"
                             "from .exprs import Expr\n"
                             "import json, numbers\n") == {
        "sympy", "", "json", "numbers"}
    assert "sympy" not in imported_packages("import sympyx\nx = sympy\n")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_exprs_imports_sympy(path):
    # Named from when exprs.py alone imported sympy; with its own integer
    # polynomials no module does.
    assert "sympy" not in imported_packages(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_storage_access_outside_charts(path):
    assert storage_uses(path.read_text(encoding="utf-8")) == []


def test_the_numpy_scope_check_sees_every_use_outside_its_scopes():
    source = ("import numpy as np\n"
              "def helper():\n    return np.empty(3)\n"
              "class Tensor:\n"
              "    def items(self) -> np.ndarray:\n"
              "        return np.ndindex(2)\n"
              "    @property\n"
              "    def array(self):\n"
              "        import numpy as np\n"
              "        return np.empty(2)\n"
              "def pipeline(x):\n    return numpy.zeros(x)\n"
              "LIMIT = np.int64(3)\n"
              "from numpy import ndindex\n"
              "def walk(T):\n    return T.nonzero_items()\n")
    assert numpy_uses_outside(source, {"Tensor.array"}) == [
        "1: module", "3: helper", "5: Tensor.items", "6: Tensor.items",
        "12: pipeline", "13: module", "14: module"]
    assert numpy_uses_outside(source, {"Tensor.array", "Tensor.items",
                                       "helper", "pipeline"}) == [
        "1: module", "13: module", "14: module"]


def test_numpy_stays_in_its_scopes_in_charts():
    # charts.py imports numpy only inside Tensor.array, never at module
    # level, and uses `np.` nowhere else; the other modules do not import
    # it at all (test_no_storage_access_outside_charts).
    source = (PACKAGE / "charts.py").read_text(encoding="utf-8")
    defined = {qualname for _, qualname in _scoped(ast.parse(source))}
    assert NUMPY_SCOPE <= defined
    assert numpy_uses_outside(source, NUMPY_SCOPE) == []


def test_the_rational_form_check_sees_every_reference():
    source = ("from .exprs import _rational_form as form\n"
              "def _format_expr(e):\n    return _rational_form(e)\n"
              "class ModularExpr:\n"
              "    def __init__(self, e):\n"
              "        self.num, self.den = _rational_form(e)\n"
              "def other(e):\n"
              "    return exprs._rational_form(e), rational_form(e)\n")
    assert rational_form_uses_outside(source, {"_format_expr"}) == [
        "1: module", "6: ModularExpr.__init__", "8: other"]


def test_only_printing_and_parsing_read_the_rational_form():
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        scopes = set()
        if path.name == "exprs.py":
            scopes = RATIONAL_FORM_READERS
            defined = {qualname for _, qualname in _scoped(ast.parse(source))}
            assert scopes <= defined
        assert rational_form_uses_outside(source, scopes) == [], path.name


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """The module-level functions named with a leading underscore in any
    of sources that no source references (by name, attribute or import)
    outside their own body."""
    defined, referenced = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name is not None and name != own:
                    referenced.add(name)
    return sorted(defined - referenced)


def test_the_private_function_check_sees_unreferenced_ones():
    sources = ["def _used():\n    pass\n"
               "def _unused():\n    return _used()\n"
               "def _recursive(n):\n    return _recursive(n - 1)\n"
               "class A:\n    def _method(self):\n        pass\n",
               "from .a import _imported\n"
               "def _imported():\n    pass\n"
               "def _as_attribute():\n    pass\n"
               "def public(m):\n    return m._as_attribute\n"]
    assert unreferenced_private_functions(sources) == ["_recursive",
                                                       "_unused"]


def test_every_private_function_is_referenced_from_the_package():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


def test_the_array_check_sees_reads_outside_its_scopes():
    source = ("x = T.array\n"
              "class TestSupport:\n"
              "    def test_view(self, T):\n"
              "        assert T.array.shape\n"
              "    def test_other(self, T):\n"
              "        return T.arrays, T.array\n")
    assert array_reads_outside(source, {"TestSupport.test_view"}) == [
        "1: module", "6: TestSupport.test_other"]


@pytest.mark.parametrize("path", READERS, ids=lambda p: p.name)
def test_tests_and_demos_do_not_read_the_array_view(path):
    source = path.read_text(encoding="utf-8")
    scopes = ARRAY_READERS.get(path.name, set())
    assert array_reads_outside(source, scopes) == []


def test_classify_leaves_numpy_unloaded(src_env):
    # A fresh interpreter: importing curvzoo and classifying every builtin
    # loads neither numpy nor sympy; reading the array view then loads
    # numpy.
    code = ("import sys\n"
            "import curvzoo\n"
            "for name in curvzoo.list_builtins():\n"
            "    curvzoo.classify(curvzoo.builtin(name))\n"
            "print('numpy' in sys.modules, 'sympy' in sys.modules)\n"
            "curvzoo.riemann(curvzoo.builtin('ex5_4').to_chart()).array\n"
            "print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=src_env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True"]
