"""Per-layer tracing for the benchmark, installed from outside the program.

Tracer.install() replaces curvzoo's public functions with wrappers in every
module namespace that holds them (``zoo`` does ``from .charts import
riemann``, so patching ``curvzoo.charts`` alone would miss those calls), and
patches a few methods on their classes.  uninstall() puts the originals back.

Two kinds of wrapper:

* span wrappers, at layer boundaries: each call records a span (name, start,
  end, parent span, chart id) kept in memory.  A span's self time is its
  duration minus its child spans.  Self time goes to the span's metric key; a
  function without a key of its own charges the key of its caller when the
  caller is in the same layer (a helper inside a classifier family counts as
  that family), else ``<layer>.other``.
* counters, on the scalar kernel (Expr arithmetic, derivatives, evaluation,
  parsing, sympy's GCD) and other hot paths: a call count and, for some,
  inclusive time of the outermost call.  They record no span and are not
  subtracted from the self time of the span they run in, so kernel times
  overlap the stage times.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
from sympy.polys.rings import PolyElement

from curvzoo import charts, classifiers, cli, exprs, linsolve, metrics, \
    operators, zoo
from curvzoo.charts import Chart, Tensor
from curvzoo.exprs import EvaluationError, Expr

#: Layers with spans, in report order.  The scalar kernel (exprs) has only
#: counters.
LAYERS = ("cli", "zoo", "classifiers", "operators", "linsolve", "charts",
          "metrics")
_MODULES = {"cli": cli, "zoo": zoo, "classifiers": classifiers,
            "operators": operators, "linsolve": linsolve, "charts": charts,
            "metrics": metrics}

#: Metric key of each span function that has one.
_KEYS = {
    "cli": {"main": "cli.self"},
    "zoo": {"oracle_crosscheck": "zoo.oracle", "render_report": "zoo.render"},
    "classifiers": {
        "classify_deszcz": "classifiers.deszcz",
        "check_semisymmetric": "classifiers.deszcz",
        "solve_chaki": "classifiers.chaki",
        "chaki_residual_zero": "classifiers.chaki",
        "solve_recurrence": "classifiers.recurrence",
        "solve_weak_symmetry_04": "classifiers.weak",
        "weak04_solution_ok": "classifiers.weak",
        "normalize_weak_solution": "classifiers.weak",
        "solve_weak_Z": "classifiers.weak",
        "is_codazzi": "classifiers.weak",
        "is_cyclic_parallel": "classifiers.weak",
        "form_recurrence_checks": "classifiers.form_recurrence",
        "form_recurrence_b4": "classifiers.form_recurrence",
        "solve_quasi_einstein": "classifiers.quasi_einstein",
        "classify_roter": "classifiers.roter",
        "classify_generalized_roter": "classifiers.roter",
        "roter_generators": "classifiers.roter",
        "generalized_roter_generators": "classifiers.roter",
        "theorem_residual": "classifiers.theorem",
        "compute_J": "classifiers.theorem",
        "corollary_decomposition": "classifiers.theorem",
    },
    "operators": {
        "kulkarni_nomizu": "operators.kn",
        "gaussian_tensor": "operators.derived",
        "weyl_conformal": "operators.derived",
        "concircular": "operators.derived",
        "conharmonic": "operators.derived",
        "projective": "operators.derived",
        "derived_tensor": "operators.derived",
        "dot_action": "operators.dot",
        "tachibana": "operators.tachibana",
        "check_gct": "operators.identity",
        "is_gct": "operators.identity",
        "check_second_bianchi": "operators.identity",
        "is_proper_gct": "operators.identity",
        "walker_cyclic_check": "operators.identity",
    },
    "linsolve": {"solve_linear_system": "linsolve.solve"},
    "charts": {
        "christoffel": "charts.christoffel",
        "riemann": "charts.riemann",
        "ricci": "charts.ricci",
        "scalar_curvature": "charts.ricci",
        "ricci_operator": "charts.ricci",
        "ricci_square": "charts.ricci",
        "covariant_derivative": "charts.nabla",
        "nabla_riemann": "charts.nabla",
        "covariant_derivative_oneform": "charts.nabla",
        "exterior_derivative_oneform": "charts.nabla",
    },
    "metrics": {"load_metric_file": "metrics.load"},
}

#: Span functions whose calls are also counted, under these names.
_CALL_COUNTS = {"covariant_derivative": "charts.nabla_calls",
                "kulkarni_nomizu": "operators.kn_calls",
                "dot_action": "operators.dot_calls",
                "tachibana": "operators.tachibana_calls",
                "solve_linear_system": "linsolve.solves"}

#: Scalar-kernel counters: (owner, attribute, counter name, timed).
_KERNEL = [
    (Expr, "__add__", "exprs.add", False),
    (Expr, "__radd__", "exprs.add", False),
    (Expr, "__sub__", "exprs.add", False),
    (Expr, "__rsub__", "exprs.add", False),
    (Expr, "__mul__", "exprs.mul", False),
    (Expr, "__rmul__", "exprs.mul", False),
    (Expr, "__truediv__", "exprs.div", False),
    (Expr, "__rtruediv__", "exprs.div", False),
    (exprs, "differentiate", "exprs.diff", False),
    (exprs, "evaluate_rational", "exprs.eval", True),
    (exprs, "parse_expression", "exprs.parse", True),
    (PolyElement, "gcd", "exprs.gcd", True),
]

_MARK = "_bench_wrapper"


def _public_functions(module):
    for name, value in vars(module).items():
        if (not name.startswith("_") and callable(value)
                and getattr(value, "__module__", None) == module.__name__
                and not isinstance(value, type)):
            yield name, value


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "curvzoo"
                                  or name.startswith("curvzoo."))]


def _nonzero_entries(T: Tensor) -> tuple[int, int]:
    return sum(1 for _ in T.nonzero_items()), T.array.size


class Tracer:
    """Spans and counters for one traced run; install() before, uninstall()
    after.  While paused (or not installed) the wrappers only forward."""

    def __init__(self):
        self.spans: list = []
        self.count: Counter = Counter()
        self.time: defaultdict = defaultdict(float)   # kernel, inclusive
        self.self_time: defaultdict = defaultdict(float)  # by metric key
        self.layer_self: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)  # by span name
        self.max_terms = 0
        self.chart_id = -1
        self.active = False
        self._stack: list = []
        self._depth: Counter = Counter()
        self._patches: list = []
        self._new_charts: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()

        def everywhere(fn, wrapper):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, attr, wrapper)

        for layer, module in _MODULES.items():
            for name, fn in list(_public_functions(module)):
                if name == "check_identity_at":
                    continue    # one call per oracle point: counted below
                key = _KEYS[layer].get(name)
                wrapper = self._span(fn, f"{layer}.{name}", layer, key,
                                     _CALL_COUNTS.get(name))
                if name == "solve_linear_system":
                    wrapper = self._counting_rows(wrapper)
                elif name in ("dot_action", "tachibana"):
                    wrapper = self._action_density(wrapper)
                elif name == "classify":
                    wrapper = self._identity_rows(wrapper)
                everywhere(fn, wrapper)
        for owner, attr, name, timed in _KERNEL:
            fn = getattr(owner, attr)
            wrapper = self._counter(fn, name, timed)
            if owner is exprs:
                everywhere(fn, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        everywhere(zoo.check_identity_at,
                   self._oracle_points(zoo.check_identity_at))
        everywhere(linsolve._reduce_row, self._pivots(linsolve._reduce_row))
        self._patch(Chart, "__init__", self._span(
            Chart.__init__, "charts.Chart.__init__", "charts", "charts.build",
            None, on_return=self._new_chart))
        self._patch(Chart, "cached", self._cache_counter(Chart.cached))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, layer, key, count_name, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if key is not None:
                eff = key
            elif parent is not None and parent[2] == layer:
                eff = parent[1]
            else:
                eff = f"{layer}.other"
            if count_name:
                tracer.count[count_name] += 1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, eff, layer, 0.0]
            stack.append(frame)
            outermost = tracer._depth[name] == 0
            tracer._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] -= 1
                duration = end - start
                own = duration - frame[3]
                tracer.self_time[eff] += own
                tracer.layer_self[layer] += own
                if outermost:
                    tracer.inclusive[name] += duration
                if parent is not None:
                    parent[3] += duration
                tracer.spans[index] = (
                    name, start, end, parent[0] if parent else -1,
                    tracer.chart_id)
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, fn, name, timed):
        tracer = self
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not timed:
                tracer.count[calls] += 1
                return fn(*args, **kwargs)
            depth = tracer._depth
            if depth[name]:
                return fn(*args, **kwargs)
            tracer.count[calls] += 1
            depth[name] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.time[name] += perf_counter() - start
                depth[name] = 0

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counting_rows(self, solve):
        tracer = self

        @functools.wraps(solve)
        def wrapper(rows, *args, **kwargs):
            if not tracer.active:
                return solve(rows, *args, **kwargs)

            def counted():
                for row in rows:
                    tracer.count["linsolve.rows"] += 1
                    yield row
            return solve(counted(), *args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _pivots(self, reduce_row):
        tracer = self

        @functools.wraps(reduce_row)
        def wrapper(row, pivots, rhs_col):
            result = reduce_row(row, pivots, rhs_col)
            if tracer.active and any(j != rhs_col for j in result):
                tracer.count["linsolve.pivots"] += 1
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _action_density(self, action):
        tracer = self

        @functools.wraps(action)
        def wrapper(*args, **kwargs):
            result = action(*args, **kwargs)
            if tracer.active:
                nonzero, size = _nonzero_entries(result)
                tracer.count["operators.action_nonzero"] += nonzero
                tracer.count["operators.action_entries"] += size
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _identity_rows(self, classify):
        tracer = self

        @functools.wraps(classify)
        def wrapper(*args, **kwargs):
            report = classify(*args, **kwargs)
            if tracer.active:
                tracer.count["zoo.identity_rows"] += sum(
                    len(i.rows) for i in report.identities)
            return report

        setattr(wrapper, _MARK, True)
        return wrapper

    def _cache_counter(self, cached):
        tracer = self

        @functools.wraps(cached)
        def wrapper(chart, key, fn):
            if tracer.active:
                hit = chart._cache.get(key) is not None
                tracer.count["charts.cache_hits" if hit
                             else "charts.cache_misses"] += 1
            return cached(chart, key, fn)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _oracle_points(self, check_identity_at):
        tracer = self

        @functools.wraps(check_identity_at)
        def wrapper(identity, point):
            if not tracer.active:
                return check_identity_at(identity, point)
            tracer.count["zoo.oracle_points"] += 1
            try:
                return check_identity_at(identity, point)
            except EvaluationError:
                tracer.count["zoo.oracle_retries"] += 1
                raise

        setattr(wrapper, _MARK, True)
        return wrapper

    def _new_chart(self, args, _result) -> None:
        self._new_charts.append(args[0])

    # -- per chart --------------------------------------------------------

    def end_chart(self) -> None:
        """Scan the tensors of the charts built since the last call: the
        largest numerator and the density of the Riemann tensor."""
        for chart in self._new_charts:
            for value in chart._cache.values():
                array = value.array if isinstance(value, Tensor) else value
                if isinstance(array, np.ndarray):
                    for e in array.flat:
                        if isinstance(e, Expr):
                            self.max_terms = max(self.max_terms, len(e.num))
            R = chart._cache.get("riemann")
            if R is not None:
                nonzero, size = _nonzero_entries(R)
                self.count["charts.riemann_nonzero"] += nonzero
                self.count["charts.riemann_entries"] += size
        self._new_charts.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced pass, as name -> (value, unit).
        """
        c, t, s = self.count, self.time, self.self_time

        def per_pass(value):
            if isinstance(value, int) and value % passes == 0:
                return value // passes
            return value / passes

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for name in ("gcd", "mul", "add", "div", "diff", "eval"):
            out[f"exprs.{name}_calls"] = (per_pass(c[f"exprs.{name}_calls"]),
                                          "count")
        for name in ("gcd", "eval", "parse"):
            out[f"exprs.{name}_s"] = (per_pass(t[f"exprs.{name}"]), "s")
        out["exprs.max_terms"] = (self.max_terms, "count")
        seconds = ["metrics.load", "charts.build", "charts.christoffel",
                   "charts.riemann", "charts.ricci", "charts.nabla",
                   "operators.kn", "operators.derived", "operators.dot",
                   "operators.tachibana", "operators.identity",
                   "linsolve.solve", "zoo.render", "cli.self"]
        seconds += [f"classifiers.{family}" for family in (
            "deszcz", "chaki", "recurrence", "weak", "form_recurrence",
            "quasi_einstein", "roter", "theorem")]
        for key in seconds:
            out[f"{key}_s"] = (per_pass(s[key]), "s")
        for name in ("charts.nabla_calls", "charts.cache_hits",
                     "charts.cache_misses", "operators.kn_calls",
                     "operators.dot_calls", "operators.tachibana_calls",
                     "linsolve.solves", "linsolve.rows", "linsolve.pivots",
                     "zoo.oracle_points", "zoo.oracle_retries",
                     "zoo.identity_rows"):
            out[name] = (per_pass(c[name]), "count")
        out["charts.riemann_nonzero_ratio"] = (
            ratio("charts.riemann_nonzero", "charts.riemann_entries"),
            "ratio")
        out["operators.action_nonzero_ratio"] = (
            ratio("operators.action_nonzero", "operators.action_entries"),
            "ratio")
        out["linsolve.useful_row_ratio"] = (
            ratio("linsolve.pivots", "linsolve.rows"), "ratio")
        oracle = self.inclusive["zoo.oracle_crosscheck"]
        out["zoo.oracle_s"] = (per_pass(oracle), "s")
        out["zoo.battery_s"] = (
            per_pass(self.inclusive["zoo.classify"] - oracle), "s")
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = (per_pass(self.layer_self[layer]),
                                          "s")
        return out

    def write(self, path: Path) -> None:
        """Write the spans and counters, once, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "chart"],
                       "spans": self.spans, "counters": dict(self.count),
                       "kernel_s": dict(self.time)}, fh)


def installed_wrappers() -> list[str]:
    """Names under which a tracing wrapper is currently installed."""
    found = []
    owners = _namespaces() + [Expr, PolyElement, Chart]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, _MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found

