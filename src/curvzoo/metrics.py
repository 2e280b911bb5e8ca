"""Metric definition files and the builtin metric collection.

The file format is JSON with keys name, dim, coords, params and metric,
where metric is the row-major lower triangle of the symmetric component
matrix as expression strings in the package grammar (a full square matrix is
also accepted on load and validated for symmetry).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .charts import Chart, build_chart
from .exprs import Context, ExpressionError


#: Largest dimension a metric file may declare.  Tensors store only their
#: nonzero components, but R.R has up to n^6 of them, 15,625 at n = 5 and
#: 262,144 at n = 8, and a metric with few zero entries can fill them.
MAX_DIM = 8

#: Most bytes of a metric file; load_metric_file reads at most one more.
#: A dimension-8 file of 64 entries (a square matrix) at MAX_ENTRY_CHARS
#: fits.
MAX_FILE_BYTES = 1 << 20

#: Most characters of one metric entry.  The entries of the builtins and
#: the generated templates have under 40, and parentheses nested to the
#: parser's MAX_NESTING fit with a wide margin.  Parsing takes about 9 us
#: per character, so an entry at the cap parses in about 0.1 s and a
#: dimension-8 file of them in a few seconds.
MAX_ENTRY_CHARS = 10_000


class MetricFileError(ValueError):
    """Malformed metric definition (schema or expression errors)."""


@dataclass(frozen=True)
class MetricSpec:
    """Validated metric definition: names, dimension and entry strings."""

    name: str
    dim: int
    coords: tuple[str, ...]
    params: tuple[str, ...]
    lower_triangle: tuple[tuple[str, ...], ...]

    def entry(self, i: int, j: int) -> str:
        return (self.lower_triangle[i][j] if j <= i
                else self.lower_triangle[j][i])

    def full_matrix(self) -> list[list[str]]:
        return [[self.entry(i, j) for j in range(self.dim)]
                for i in range(self.dim)]

    def context(self) -> Context:
        return Context(self.coords, self.params)

    def to_chart(self) -> Chart:
        return build_chart(self.context(), self.full_matrix(), name=self.name)


def _diagonal(entries: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    rows = []
    for i, e in enumerate(entries):
        rows.append(tuple(["0"] * i) + (e,))
    return tuple(rows)


def _flat(n: int, name: str) -> MetricSpec:
    return MetricSpec(name=name, dim=n,
                      coords=tuple(f"x{i+1}" for i in range(n)),
                      params=(),
                      lower_triangle=_diagonal(["1"] * n))


#: The builtin metric collection.  The first five reproduce the standard
#: worked examples for pseudosymmetry-type conditions: a five-dimensional
#: exponential metric that is Chaki but not Deszcz pseudosymmetric, a
#: conformally flat metric that is Deszcz but not Chaki pseudosymmetric, the
#: Goedel spacetime, a conformally flat metric that is both, and a
#: five-dimensional Heisenberg-type group metric.
BUILTINS: dict[str, MetricSpec] = {
    "ex5_1": MetricSpec(
        name="ex5_1", dim=5,
        coords=("x1", "x2", "x3", "x4", "x5"), params=(),
        lower_triangle=_diagonal(["exp(x1)", "exp(x1)*exp(x5)", "exp(x1)",
                                  "exp(x1)", "exp(x1)"])),
    "ex5_2": MetricSpec(
        name="ex5_2", dim=4,
        coords=("x1", "x2", "x3", "x4"), params=(),
        lower_triangle=_diagonal(["x1", "x1", "x1", "x1"])),
    "ex5_3": MetricSpec(
        name="ex5_3", dim=4,
        coords=("x1", "x2", "x3", "x4"), params=("a",),
        lower_triangle=(("-a^2",),
                        ("0", "1/2*a^2*exp(2*x1)"),
                        ("0", "0", "-a^2"),
                        ("0", "a^2*exp(x1)", "0", "a^2"))),
    "ex5_4": MetricSpec(
        name="ex5_4", dim=4,
        coords=("x1", "x2", "x3", "x4"), params=(),
        lower_triangle=_diagonal(["exp(x1)+1", "exp(x1)", "exp(x1)",
                                  "exp(x1)"])),
    "ex5_5": MetricSpec(
        name="ex5_5", dim=5,
        coords=("x", "y", "z", "u", "v"), params=("rho",),
        lower_triangle=(("1",),
                        ("0", "1"),
                        ("0", "0", "rho^2"),
                        ("0", "0", "rho^2*x", "1+rho^2*x^2"),
                        ("0", "0", "-rho^2*y", "-rho^2*x*y",
                         "1+rho^2*y^2"))),
    "flat3": _flat(3, "flat3"),
    "flat4": _flat(4, "flat4"),
    "flat5": _flat(5, "flat5"),
}


def builtin(name: str) -> MetricSpec:
    try:
        return BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTINS))
        raise MetricFileError(f"unknown builtin {name!r} (known: {known})") \
            from None


def list_builtins() -> list[str]:
    return list(BUILTINS)


def _schema_error(path: str, message: str) -> MetricFileError:
    return MetricFileError(f"{path}: {message}")


def metric_spec_from_dict(data: dict, origin: str = "metric") -> MetricSpec:
    if not isinstance(data, dict):
        raise _schema_error(origin, "expected a JSON object")
    for key in ("name", "dim", "coords", "metric"):
        if key not in data:
            raise _schema_error(f"{origin}.{key}", "missing required key")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise _schema_error(f"{origin}.name", "expected a nonempty string")
    try:
        name.encode("utf-8")  # the text report prints it
    except UnicodeEncodeError as err:
        raise _schema_error(f"{origin}.name", "contains a lone surrogate, "
                            "which UTF-8 cannot encode") from err
    dim = data["dim"]
    if not isinstance(dim, int) or not 3 <= dim <= MAX_DIM:
        raise _schema_error(f"{origin}.dim", "dimension must be an integer "
                                             f"from 3 to {MAX_DIM}")
    coords = data["coords"]
    if (not isinstance(coords, list) or len(coords) != dim
            or not all(isinstance(c, str) for c in coords)):
        raise _schema_error(f"{origin}.coords",
                            f"expected a list of {dim} coordinate names")
    params = data.get("params", [])
    if not isinstance(params, list) or \
            not all(isinstance(p, str) for p in params):
        raise _schema_error(f"{origin}.params", "expected a list of names")
    rows = data["metric"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise _schema_error(f"{origin}.metric", f"expected {dim} rows")
    lower: list[tuple[str, ...]] = []
    square = all(isinstance(r, list) and len(r) == dim for r in rows)
    for i, row in enumerate(rows):
        want = dim if square else i + 1
        if not isinstance(row, list) or len(row) != want or \
                not all(isinstance(e, str) for e in row):
            raise _schema_error(f"{origin}.metric[{i}]",
                                f"expected {want} expression strings")
        lower.append(tuple(row[:i + 1]))
    spec = MetricSpec(name=name, dim=dim, coords=tuple(coords),
                      params=tuple(params), lower_triangle=tuple(lower))
    # Validate expressions now so errors carry their location.
    try:
        ctx = spec.context()
    except ExpressionError as err:
        raise _schema_error(f"{origin}.coords/params", str(err)) from err
    # The lower triangle first, then a square matrix's upper entries.
    cells = [(i, j) for i in range(dim) for j in range(i + 1)]
    if square:
        cells += [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    parsed = {}
    for i, j in cells:
        if len(rows[i][j]) > MAX_ENTRY_CHARS:
            raise _schema_error(
                f"{origin}.metric[{i}][{j}]",
                f"entry has {len(rows[i][j])} characters, more than "
                f"{MAX_ENTRY_CHARS}")
        try:
            parsed[i, j] = ctx.parse(rows[i][j])
        except ExpressionError as err:
            raise _schema_error(
                f"{origin}.metric[{i}][{j}]", str(err)) from err
    for i, j in cells:
        if j > i and parsed[i, j] != parsed[j, i]:
            raise _schema_error(f"{origin}.metric[{i}][{j}]",
                                "square matrix input is not symmetric")
    return spec


def metric_spec_to_dict(spec: MetricSpec) -> dict:
    return {
        "name": spec.name,
        "dim": spec.dim,
        "coords": list(spec.coords),
        "params": list(spec.params),
        "metric": [list(row) for row in spec.lower_triangle],
    }


def load_metric_file(path: str) -> MetricSpec:
    """Load and validate a metric definition file of at most
    MAX_FILE_BYTES bytes, each entry at most MAX_ENTRY_CHARS characters."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_FILE_BYTES + 1)
        # Checked before decoding: the cut may split a character.
        if len(raw) > MAX_FILE_BYTES:
            raise MetricFileError(f"{path}: file is larger than "
                                  f"{MAX_FILE_BYTES} bytes")
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise MetricFileError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise MetricFileError(f"{path}: invalid JSON: {err}") from err
    except RecursionError as err:
        raise MetricFileError(f"{path}: invalid JSON: nested too "
                              "deeply") from err
    return metric_spec_from_dict(data, origin=path)


def save_metric_file(spec: MetricSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_spec_to_dict(spec), fh, indent=2, sort_keys=False)
        fh.write("\n")


def resolve_metric(source: str) -> MetricSpec:
    """A builtin name, else a path to a metric file."""
    if source in BUILTINS:
        return BUILTINS[source]
    return load_metric_file(source)
