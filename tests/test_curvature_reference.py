"""Gamma, R, S, kappa, nabla R, the derived curvature tensors and the
positive Deszcz, Roter and b3 answers recomputed with sympy.

The reference below shares nothing with curvzoo's expression kernel: each
metric entry is read into a sympy expression (every exp(k*x) becomes E_x^k,
a symbol for the exponential atom, differentiated by the chain rule
d/dx E_x = E_x), the inverse metric and the curvature formulas are written
out with sympy, and every component is cancelled with sympy.cancel.  Each
reference component is then printed in the package grammar and read back
with ctx.parse, and the parsed value must equal curvzoo's component
exactly.  Covered: the 8 builtins and one metric of each generated template
(warped, off-diagonal, conformal), written out here.  On every one of those
charts nabla R is also compared at every orbit representative of its slot
symmetries, and the named Kulkarni-Nomizu products (g^g, g^S, S^S, g^S2,
S^S2, S2^S2) and C, K, conh and P at every component: the reference forms
each at the representatives of its symmetries in sympy's field of rational
functions, which keeps every value cancelled, and extends it by sign.  The
actions R.R and Q(g,R) are formed in that field too, from R and g alone
with no symmetry assumed, and compared at every component for n <= 4 and
at every orbit representative of their slot symmetries for n = 5.

Every positive decomposition verdict that a default classify reports on the
builtins and on the conformal chart is also checked in sympy:
B.T - L Q(W,T) must cancel to 0 for each positive deszcz[T;W] (B = R) with
its witness L, and R - sum_k N_k G_k for each positive roter and
generalized_roter with its particular solution, where G_k are the
Kulkarni-Nomizu products the verdict names, and sum_k b_k G_k for each
homogeneous basis vector b.  Both sides of a Deszcz identity share the
slot symmetries of T in I and are skew in (h, l), so they are compared at
the representatives of those symmetries; a decomposition at every
component of R with i < j, k < l and (i, j) <= (k, l).

Every positive b3 answer that classify reports on the builtins with every
tensor is checked in sympy too: alpha_h T_ijkl + alpha_i T_jhkl +
alpha_j T_hikl - (nabla_h T_ijkl + nabla_i T_jhkl + nabla_j T_hikl) must
cancel to 0 for its particular alpha (and the alpha-sum alone for each
homogeneous basis vector), at every representative row of its system and
at every row its identity keeps, with nabla T formed from the reference's
Gamma and T in the field of rational functions.

The formulas, in the conventions of curvzoo.charts:

    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    R(e_i, e_j) e_k = (d_i G^m_jk - d_j G^m_ik + G^m_ia G^a_jk
                       - G^m_ja G^a_ik) e_m
    R[i, j, k, l] = -g_lm R(e_i, e_j) e_k ^m
    S[i, j] = g^ab R[a, i, j, b],   kappa = g^ij S[i, j]
    (nabla R)[x, J] = d_x R[J] - sum_m Gamma^a_{x J_m} R[J, a at slot m]
    (R.R)[I, h, l] = -sum_m R^a_{h l I_m} R[I, a at slot m],
        R^a_{h l i} = g^ab R[h, l, i, b]
    Q(g,R)[I, h, l] = -sum_m (g[l, I_m] R[I, h at slot m]
                              - g[h, I_m] R[I, l at slot m])
    (A ^ D)[i, j, k, l] = A[i,l] D[j,k] + A[j,k] D[i,l]
                          - A[i,k] D[j,l] - A[j,l] D[i,k]
    S2[i, j] = g^ab S[b, i] S[a, j]
    C = R - g^S/(n-2) + kappa g^g/(2(n-1)(n-2))
    K = R - kappa g^g/(2n(n-1)),   conh = R - g^S/(n-2)
    P[i, j, k, l] = R[i, j, k, l] - (S[j,k] g[i,l] - S[i,k] g[j,l])/(n-2)
"""

import functools
import itertools
import re
import time

import pytest
import sympy
import sympy.polys.fields

from curvzoo.charts import (christoffel, nabla_riemann, ricci, riemann,
                            scalar_curvature)
from curvzoo.classifiers import (_cyclic3_system,
                                 generalized_roter_generators,
                                 roter_generators)
from curvzoo.linsolve import MAX_IDENTITY_COMPONENTS
from curvzoo.metrics import MetricSpec, builtin, list_builtins
from curvzoo.operators import (dot_named, nabla_cached, named_tensor,
                               tachibana_named)
from curvzoo.zoo import ALL_TENSORS, classify

#: One chart per generated template, written out.
WRITTEN = {
    "warped": MetricSpec(
        name="warped", dim=4, coords=("x1", "x2", "x3", "x4"), params=(),
        lower_triangle=(("1",), ("0", "7+1*exp(x1)"),
                        ("0", "0", "2+9*x1^2"),
                        ("0", "0", "0", "(2+9*x1^2)*exp(x1)"))),
    "off_diagonal": MetricSpec(
        name="off_diagonal", dim=4, coords=("x1", "x2", "x3", "x4"),
        params=(), lower_triangle=(("1+7*x3^2",), ("1*x3", "1"),
                                   ("0", "0", "3"), ("0", "0", "0", "1"))),
    "conformal": MetricSpec(
        name="conformal", dim=4, coords=("x1", "x2", "x3", "x4"), params=(),
        lower_triangle=(("6+3*x1^2",), ("0", "6+3*x1^2"),
                        ("0", "0", "6+3*x1^2"),
                        ("0", "0", "0", "6+3*x1^2"))),
}

BUILTIN_SPECS = [builtin(name) for name in list_builtins()]
SPECS = BUILTIN_SPECS + list(WRITTEN.values())

#: Most seconds the whole comparison may take for one metric: the slowest,
#: a five-dimensional builtin, takes about 2 s on a 2-core machine.
TIME_LIMIT_S = 60

_EXP = re.compile(r"exp\((-?)(?:(\d+)\*)?(\w+)\)")


class Reference:
    """A metric's curvature, computed with sympy alone."""

    def __init__(self, spec: MetricSpec):
        self.coords = [sympy.Symbol(c) for c in spec.coords]
        self.exps = [sympy.Symbol(f"E_{c}") for c in spec.coords]
        self.names = {str(s): s for s in self.coords + self.exps}
        self.names.update({p: sympy.Symbol(p) for p in spec.params})
        n = self.n = spec.dim
        self.g = sympy.Matrix(n, n, lambda i, j: self.read(spec.entry(i, j)))
        self.ginv = self.g.inv(method="LU").applyfunc(sympy.cancel)
        half = sympy.Rational(1, 2)
        self.gamma = {
            (k, i, j): sympy.cancel(half * sum(
                self.ginv[k, l] * (self.d(self.g[j, l], i)
                                   + self.d(self.g[i, l], j)
                                   - self.d(self.g[i, j], l))
                for l in range(n)))
            for k in range(n) for i in range(n) for j in range(n)}
        G = self.gamma
        self.riemann = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    up = [self.d(G[m, j, k], i) - self.d(G[m, i, k], j)
                          + sum(G[m, i, a] * G[a, j, k]
                                - G[m, j, a] * G[a, i, k] for a in range(n))
                          for m in range(n)]
                    for l in range(n):
                        self.riemann[i, j, k, l] = sympy.cancel(-sum(
                            self.g[l, m] * up[m] for m in range(n)))
        R = self.riemann
        self.ricci = {(i, j): sympy.cancel(sum(
            self.ginv[a, b] * R[a, i, j, b]
            for a in range(n) for b in range(n)))
            for i in range(n) for j in range(n)}
        self.kappa = sympy.cancel(sum(self.ginv[i, j] * self.ricci[i, j]
                                      for i in range(n) for j in range(n)))
        self._components = {}   # memo of component() and nabla()

    def read(self, src: str):
        """An expression in the package grammar, as a sympy expression."""
        text = _EXP.sub(lambda m: f"(E_{m[3]}**({m[1]}{m[2] or 1}))",
                        src).replace("^", "**")
        return sympy.sympify(text, locals=self.names)

    def nabla_riemann(self, idx):
        """(nabla R)[idx], cancelled."""
        x, J = idx[0], idx[1:]
        R, G = self.riemann, self.gamma
        return sympy.cancel(self.d(R[J], x) - sum(
            G[a, x, J[m]] * R[J[:m] + (a,) + J[m + 1:]]
            for m in range(4) for a in range(self.n)))

    def tensor(self, name: str) -> dict:
        """R, S, g or S2 as a dict over every index."""
        n = self.n
        if name == "R":
            return self.riemann
        if name == "S":
            return self.ricci
        if name == "g":
            return {(i, j): self.g[i, j]
                    for i, j in itertools.product(range(n), repeat=2)}
        assert name == "S2"
        if not hasattr(self, "_ricci_square"):
            S, ginv = self.ricci, self.ginv
            self._ricci_square = {(i, j): sympy.cancel(sum(
                ginv[a, b] * S[b, i] * S[a, j]
                for a in range(n) for b in range(n)))
                for i, j in itertools.product(range(n), repeat=2)}
        return self._ricci_square

    @functools.cached_property
    def raised_riemann(self) -> dict:
        """R^a_{h l i} = g^ab R[h, l, i, b], the endomorphism R(e_h, e_l)."""
        n, R = self.n, self.riemann
        return {(a, h, l, i): sympy.cancel(sum(
            self.ginv[a, b] * R[h, l, i, b] for b in range(n)))
            for a, h, l, i in itertools.product(range(n), repeat=4)}

    def deszcz_residual(self, tname: str, wname: str, L, indices):
        """(R.T - L Q(W,T))[I, h, l] at each (I, h, l) of indices, each
        component cancelled."""
        n, T, W = self.n, self.tensor(tname), self.tensor(wname)
        raised = self.raised_riemann
        for idx in indices:
            I, h, l = idx[:-2], idx[-2], idx[-1]
            total = 0
            for m in range(len(I)):
                total -= sum(raised[a, h, l, I[m]]
                             * T[I[:m] + (a,) + I[m + 1:]] for a in range(n))
                total += L * (W[l, I[m]] * T[I[:m] + (h,) + I[m + 1:]]
                              - W[h, I[m]] * T[I[:m] + (l,) + I[m + 1:]])
            yield idx, sympy.cancel(total)

    def kulkarni_nomizu(self, A: str, D: str, idx):
        """(A ^ D)[idx]."""
        A, D = self.tensor(A), self.tensor(D)
        i, j, k, l = idx
        return (A[i, l] * D[j, k] + A[j, k] * D[i, l]
                - A[i, k] * D[j, l] - A[j, l] * D[i, k])

    @functools.cached_property
    def field(self):
        """sympy's field of rational functions in the reference's symbols
        over Q: coordinates, then their exponentials, then parameters."""
        return sympy.polys.fields.field(list(self.names.values()),
                                        sympy.QQ)[0]

    @functools.cached_property
    def in_field(self) -> dict:
        """g, S, S2 and R by name, and "kappa", as elements of sympy's field
        of rational functions in the reference's symbols over Q, which keeps
        each value cancelled as it is formed: a sum of products of them
        costs far less there than one sympy.cancel of the sum."""
        field = self.field
        values = {name: {idx: field.from_expr(value)
                         for idx, value in self.tensor(name).items()}
                  for name in ("g", "S", "S2", "R")}
        values["kappa"] = field.from_expr(self.kappa)
        values["Gamma"] = {idx: field.from_expr(value)
                           for idx, value in self.gamma.items()}
        values["ginv"] = {(i, j): field.from_expr(self.ginv[i, j])
                          for i, j in itertools.product(range(self.n),
                                                        repeat=2)}
        return values

    @functools.cached_property
    def raised_in_field(self) -> dict:
        """R^a_{h l i} = g^ab R[h, l, i, b], in the field of in_field, at
        its nonzero entries."""
        n, T = self.n, self.in_field
        R, ginv = T["R"], T["ginv"]
        raised = {}
        for a, h, l, i in itertools.product(range(n), repeat=4):
            value = sum((ginv[a, b] * R[h, l, i, b] for b in range(n)
                         if ginv[a, b] and R[h, l, i, b]), self.field.zero)
            if value:
                raised[a, h, l, i] = value
        return raised

    def action(self, name: str, idx):
        """(R.R)[I, h, l] for name "R.R", or Q(g,R)[I, h, l] for "Q(g,R)",
        at idx = (I, h, l), in the field of in_field: every slot m of I
        and every a, with no symmetry assumed."""
        assert name in ("R.R", "Q(g,R)")
        T = self.in_field
        R, g = T["R"], T["g"]
        I, h, l = idx[:4], idx[4], idx[5]
        total = self.field.zero
        for m, i in enumerate(I):
            def at(a):
                return R[I[:m] + (a,) + I[m + 1:]]
            if name == "Q(g,R)":
                total -= g[l, i] * at(h) - g[h, i] * at(l)
                continue
            raised = self.raised_in_field
            for a in range(self.n):
                if (a, h, l, i) in raised:
                    total -= raised[a, h, l, i] * at(a)
        return total

    def derived(self, name: str, idx):
        """The Kulkarni-Nomizu product "A^D", or C, K, conh or P, at idx,
        formed in the field of in_field."""
        n, T = self.n, self.in_field
        i, j, k, l = idx

        def kulkarni_nomizu(A, D):
            A, D = T[A], T[D]
            return (A[i, l] * D[j, k] + A[j, k] * D[i, l]
                    - A[i, k] * D[j, l] - A[j, l] * D[i, k])

        if "^" in name:
            return kulkarni_nomizu(*name.split("^"))
        R, S, g = T["R"][idx], T["S"], T["g"]
        if name == "P":
            return R - (S[j, k] * g[i, l] - S[i, k] * g[j, l]) / (n - 2)
        gg = T["kappa"] * kulkarni_nomizu("g", "g")
        if name == "K":
            return R - gg / (2 * n * (n - 1))
        conh = R - kulkarni_nomizu("g", "S") / (n - 2)
        if name == "conh":
            return conh
        assert name == "C"
        return conh + gg / (2 * (n - 1) * (n - 2))

    def component(self, name: str, idx):
        """R, C, K, conh or P at idx, in the field of in_field; memoized."""
        key = (name, idx)
        if key not in self._components:
            self._components[key] = (self.in_field["R"][idx] if name == "R"
                                     else self.derived(name, idx))
        return self._components[key]

    def nabla(self, name: str, idx):
        """(nabla T)[x, J] = d_x T[J] - sum_m Gamma^a_{x J_m} T[J, a at
        slot m] for T = R, C, K, conh or P, in the field of in_field.  It
        is formed at J's representative (see representative()) and
        memoized there: nabla_x inherits T's symmetries."""
        x, J = idx[0], idx[1:]
        rep, sign = representative(name, J)
        if rep is None:
            return self.field.zero
        key = ("nabla", name, x, rep)
        if key not in self._components:
            n, G = self.n, self.in_field["Gamma"]
            X, E = self.field.gens[x], self.field.gens[n + x]
            t = self.component(name, rep)
            self._components[key] = (
                t.diff(X) + E * t.diff(E) - sum(
                    G[a, x, rep[m]] * self.component(
                        name, rep[:m] + (a,) + rep[m + 1:])
                    for m in range(4) for a in range(n) if G[a, x, rep[m]]))
        return sign * self._components[key]

    def cyclic3_row(self, name: str, idx):
        """The b3 row of T at (h, i, j, k, l): the coefficients of
        alpha_h T_ijkl + alpha_i T_jhkl + alpha_j T_hikl by column, without
        the columns that cancel, and the cyclic sum nabla_h T_ijkl +
        nabla_i T_jhkl + nabla_j T_hikl, in the field of in_field."""
        h, i, j, k, l = idx
        coeffs = {}
        for col, J in ((h, (i, j, k, l)), (i, (j, h, k, l)),
                       (j, (h, i, k, l))):
            coeffs[col] = coeffs.get(col, self.field.zero) + self.component(
                name, J)
        rhs = (self.nabla(name, idx) + self.nabla(name, (i, j, h, k, l))
               + self.nabla(name, (j, h, i, k, l)))
        return {col: c for col, c in coeffs.items() if c}, rhs

    def d(self, f, i):
        """d/dx_i, with d/dx_i E_x_i = E_x_i."""
        return (sympy.diff(f, self.coords[i])
                + self.exps[i] * sympy.diff(f, self.exps[i]))

    def text(self, value) -> str:
        """value, a sympy expression or a field element (see in_field), in
        the package grammar."""
        if isinstance(value, sympy.polys.fields.FracElement):
            num, den = value.numer.as_expr(), value.denom.as_expr()
        else:
            num, den = sympy.fraction(sympy.cancel(value))
        text = f"({num}) / ({den})"
        for c, e in zip(self.coords, self.exps):
            text = re.sub(rf"\b{e}\b", f"exp({c})", text)
        return text.replace("**", "^")


@functools.lru_cache(maxsize=None)
def reference_of(spec: MetricSpec) -> Reference:
    """Reference(spec), built once per metric for every test below."""
    return Reference(spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_curvature_matches_sympy_cancel(spec):
    start = time.perf_counter()
    reference = reference_of(spec)
    chart = spec.to_chart()
    parse = chart.ctx.parse
    pairs = [(christoffel(chart), reference.gamma),
             (riemann(chart), reference.riemann),
             (ricci(chart), reference.ricci)]
    for tensor, expected in pairs:
        for idx, value in expected.items():
            assert tensor[idx] == parse(reference.text(value)), idx
    assert scalar_curvature(chart) == parse(reference.text(reference.kappa))
    assert time.perf_counter() - start < TIME_LIMIT_S


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_nabla_riemann_matches_sympy_cancel(spec):
    start = time.perf_counter()
    reference = reference_of(spec)
    chart = spec.to_chart()
    parse = chart.ctx.parse
    nabla = nabla_riemann(chart)
    representative = nabla.symmetry_group.is_representative
    checked = 0
    for idx in itertools.product(range(chart.n), repeat=5):
        if representative(idx):
            assert nabla[idx] == parse(
                reference.text(reference.nabla_riemann(idx))), idx
            checked += 1
    assert checked
    assert time.perf_counter() - start < TIME_LIMIT_S


#: The derived tensors compared at every component: the named
#: Kulkarni-Nomizu products, then C, K, conh and P.
DERIVED = ("g^g", "g^S", "S^S", "g^S2", "S^S2", "S2^S2", "C", "K", "conh",
           "P")


def representative(name: str, idx):
    """(rep, sign) with T[idx] = sign T[rep] for the derived tensor `name`,
    or (None, 0) where its symmetries force T[idx] = 0: every one is skew
    in its first pair, and all but P are also skew in the second and
    symmetric under the exchange of the pairs, as algebraic curvature
    tensors are."""
    i, j, k, l = idx
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if name == "P":
        return ((i, j, k, l), sign) if i != j else (None, 0)
    if k > l:
        k, l, sign = l, k, -sign
    if i == j or k == l:
        return None, 0
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_derived_tensors_match_sympy(spec):
    # The reference is computed and cancelled at representatives only, and
    # every component of curvzoo's tensor is compared with it.
    start = time.perf_counter()
    reference = reference_of(spec)
    chart = spec.to_chart()
    parse, zero = chart.ctx.parse, chart.ctx.zero
    for name in DERIVED:
        tensor = named_tensor(chart, name)
        expected = {None: zero}
        for idx in itertools.product(range(chart.n), repeat=4):
            rep, sign = representative(name, idx)
            if rep not in expected:
                expected[rep] = parse(reference.text(
                    reference.derived(name, rep)))
            assert tensor[idx] == sign * expected[rep], (name, idx)
    assert time.perf_counter() - start < TIME_LIMIT_S


#: The actions compared at every component for n <= 4 and at every orbit
#: representative of their slot symmetries otherwise, with curvzoo's
#: tensor of each.
ACTIONS = {"R.R": lambda chart: dot_named(chart, "R", "R"),
           "Q(g,R)": lambda chart: tachibana_named(chart, "g", "R")}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_actions_match_sympy(spec):
    start = time.perf_counter()
    reference = reference_of(spec)
    chart = spec.to_chart()
    parse, n = chart.ctx.parse, chart.n
    for name, compute in ACTIONS.items():
        tensor = compute(chart)
        indices = itertools.product(range(n), repeat=6)
        if n > 4:
            indices = filter(tensor.symmetry_group.is_representative,
                             indices)
        for idx in indices:
            value = reference.action(name, idx)
            assert tensor[idx] == (parse(reference.text(value)) if value
                                   else chart.ctx.zero), (name, idx)
    assert time.perf_counter() - start < TIME_LIMIT_S


#: The charts whose positive decomposition verdicts are checked in sympy.
DECOMPOSED = [builtin(name) for name in list_builtins()] + [
    WRITTEN["conformal"]]

_DESZCZ = re.compile(r"deszcz\[(\w+);(\w+)\]")

#: The generators of each decomposition verdict, as Kulkarni-Nomizu factor
#: pairs, in the order of the verdict's unknowns.
_GENERATORS = {"roter": roter_generators,
               "generalized_roter": generalized_roter_generators}
_PRODUCTS = {"roter": (("g", "g"), ("g", "S"), ("S", "S")),
             "generalized_roter": (("S", "S"), ("S", "S2"), ("g", "S"),
                                   ("g", "S2"), ("g", "g"), ("S2", "S2"))}


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def deszcz_indices(n: int, rank: int) -> list:
    """(I, h, l) at the representatives of the symmetries that B.T and
    Q(W,T) share: those of T in I (skew pairs with pair symmetry for
    rank 4, symmetric for rank 2), and skew in (h, l)."""
    if rank == 4:
        slots = [p + q for p in _pairs(n) for q in _pairs(n) if p <= q]
    else:
        slots = [(i, j) for i in range(n) for j in range(i, n)]
    return [I + hl for I in slots for hl in _pairs(n)]


def positive_decompositions(spec: MetricSpec) -> list:
    """The positive deszcz, roter and generalized_roter verdicts of a
    default classify."""
    report = classify(spec, run_oracle=False)
    return [v for v in report.verdicts if v.outcome
            and (_DESZCZ.fullmatch(v.name) or v.name in _PRODUCTS)]


def test_the_checked_charts_have_positive_decompositions():
    names = {spec.name: sorted(v.name for v in positive_decompositions(spec))
             for spec in DECOMPOSED}
    assert names["ex5_2"] == ["deszcz[R;S]", "deszcz[R;g]", "deszcz[S;g]",
                              "generalized_roter", "roter"]
    assert names["conformal"] == ["deszcz[R;S]", "deszcz[R;g]",
                                  "deszcz[S;g]", "generalized_roter",
                                  "roter"]
    assert "deszcz[R;g]" in names["ex5_5"]


@pytest.mark.parametrize("spec", DECOMPOSED, ids=lambda s: s.name)
def test_positive_decompositions_cancel_in_sympy(spec):
    start = time.perf_counter()
    reference = reference_of(spec)
    n = spec.dim
    chart = spec.to_chart()
    for verdict in positive_decompositions(spec):
        deszcz = _DESZCZ.fullmatch(verdict.name)
        if deszcz:
            tname, wname = deszcz.groups()
            L = reference.read(str(verdict.witness))
            rank = len(next(iter(reference.tensor(tname))))
            for idx, value in reference.deszcz_residual(
                    tname, wname, L, deszcz_indices(n, rank)):
                assert value == 0, (verdict.name, idx)
            continue
        generators, names = _GENERATORS[verdict.name](chart)
        space = verdict.witness
        assert space.names == tuple(names)
        vectors = [(space.particular, True)] + [(b, False)
                                                for b in space.basis]
        for vector, particular in vectors:
            coefficients = [reference.read(str(c)) for c in vector]
            for idx in [p + q for p in _pairs(n) for q in _pairs(n)
                        if p <= q]:
                total = sum(c * reference.kulkarni_nomizu(A, D, idx)
                            for c, (A, D) in zip(coefficients,
                                                 _PRODUCTS[verdict.name]))
                if particular:
                    total = reference.riemann[idx] - total
                assert sympy.cancel(total) == 0, (verdict.name, idx)
    assert time.perf_counter() - start < TIME_LIMIT_S


@functools.lru_cache(maxsize=None)
def positive_b3(spec: MetricSpec):
    """The chart and the positive b3 verdicts of classify with every
    tensor, computed once per metric."""
    chart = spec.to_chart()
    report = classify(chart, tensors=ALL_TENSORS, run_oracle=False)
    return chart, [v for v in report.verdicts
                   if v.name.startswith("b3[") and v.outcome]


def test_the_checked_charts_have_positive_b3():
    names = {spec.name: [v.name for v in positive_b3(spec)[1]]
             for spec in BUILTIN_SPECS}
    assert names == {
        "ex5_1": ["b3[R]"],
        "ex5_2": ["b3[R]", "b3[K]", "b3[conh]", "b3[P]"],
        "ex5_3": ["b3[R]", "b3[K]"],
        "ex5_4": ["b3[R]", "b3[K]", "b3[conh]", "b3[P]"],
        "ex5_5": ["b3[R]", "b3[K]"],
        "flat3": [], "flat4": [], "flat5": []}


@pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda s: s.name)
def test_positive_b3_cancels_in_sympy(spec):
    # Each positive b3 answer, with every tensor, at every representative
    # row of its system and at every row its identity keeps: the reference
    # finds those as the first rows, in index order, with a coefficient or
    # a nonzero rhs, and the identity's rows must equal them.  The system
    # (curvzoo's) only chooses the representative indices.
    start = time.perf_counter()
    reference = reference_of(spec)
    field, n = reference.field, spec.dim
    chart, verdicts = positive_b3(spec)
    parse = chart.ctx.parse
    for verdict in verdicts:
        tname = verdict.name[3:-1]
        nabla = nabla_cached(chart, tname)
        group, indices, _ = _cyclic3_system(
            chart, named_tensor(chart, tname), nabla, nabla.cyclic_sum())
        kept = []
        for idx in itertools.product(range(n), repeat=5):
            coeffs, rhs = reference.cyclic3_row(tname, idx)
            if coeffs or rhs:
                kept.append(idx)
                if len(kept) == MAX_IDENTITY_COMPONENTS:
                    break
        assert len(verdict.identity.rows) == len(kept), verdict.name
        for (coeffs, rhs), idx in zip(verdict.identity.rows, kept):
            expected, expected_rhs = reference.cyclic3_row(tname, idx)
            assert coeffs == {col: parse(reference.text(c))
                              for col, c in expected.items()}, idx
            assert rhs == parse(reference.text(expected_rhs)), idx
        space = verdict.witness
        vectors = [(space.particular, True)] + [(b, False)
                                                for b in space.basis]
        rows = dict.fromkeys(
            [*filter(group.is_representative, indices), *kept])
        for vector, particular in vectors:
            alpha = [field.from_expr(reference.read(str(a))) for a in vector]
            for idx in rows:
                coeffs, rhs = reference.cyclic3_row(tname, idx)
                total = sum(c * alpha[col] for col, c in coeffs.items())
                if particular:
                    total -= rhs
                assert total == 0, (verdict.name, idx)
    assert time.perf_counter() - start < TIME_LIMIT_S


def test_the_reference_reads_exponentials_and_prints_the_grammar():
    spec = MetricSpec(name="probe", dim=3, coords=("x", "y", "z"),
                      params=("a",),
                      lower_triangle=(("exp(-2*x)*a^2",), ("0", "7/2"),
                                      ("0", "0", "exp(y)")))
    reference = Reference(spec)
    E_x, E_y = reference.exps[:2]
    a = sympy.Symbol("a")
    assert reference.g[0, 0] == a ** 2 / E_x ** 2
    assert reference.g[1, 1] == sympy.Rational(7, 2)
    assert reference.d(reference.g[0, 0], 0) == -2 * a ** 2 / E_x ** 2
    ctx = spec.to_chart().ctx
    assert (ctx.parse(reference.text(reference.g[0, 0] / E_y))
            == ctx.parse("a^2 * exp(-2*x) * exp(-y)"))
