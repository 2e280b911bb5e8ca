"""Curvature operator algebra.

Kulkarni-Nomizu products, the derived curvature tensors (Gaussian, Weyl
conformal, concircular, conharmonic, projective), the derivation action
B . T of a curvature endomorphism, the Tachibana action Q(A, T) of the
metric-like endomorphism X wedge_A Y, and the 1-form action.

The three actions, like the covariant derivative, take their terms from
one walk over T's support, charts._derivation_terms.

Slot conventions: the actions produce (0, k+2) tensors whose two extra
arguments are stored LAST, i.e. components are indexed (i1..ik, h, l)
matching (X1,...,Xk; X, Y); the 1-form action stores its extra argument
last as well.  Endomorphisms are derived from (0,4) tensors by raising the
FOURTH slot, consistent with B(X1,X2,X3,X4) = g(B(X1,X2)X3, X4), and from
(0,2) tensors A via (X wedge_A Y)Z = A(Y,Z) X - A(X,Z) Y.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Union

# ricci_square is reached only through _NAMED, looked up by name.
from .charts import (CURVATURE_SYMMETRIES, Chart, OneForm, Tensor,
                     _derivation_terms, covariant_derivative,
                     lowered_to_operator, ricci, ricci_square, riemann,
                     scalar_curvature)


def kulkarni_nomizu(A: Tensor, D: Tensor) -> Tensor:
    """Four-term Kulkarni-Nomizu product of two symmetric (0,2) tensors:

    (A ^ D)(X1,X2,Y1,Y2) = A(X1,Y2) D(X2,Y1) + A(X2,Y1) D(X1,Y2)
                         - A(X1,Y1) D(X2,Y2) - A(X2,Y2) D(X1,Y1).

    Both factors must be symmetric (ValueError otherwise), so the product
    is an algebraic curvature tensor: it is formed at the representatives
    i < j, k < l, (i, j) <= (k, l) of CURVATURE_SYMMETRIES only, from the
    nonzero factor entries, and filled by sign, declaring them.
    """
    if not (A._symmetry_holds("sym:0,1") and D._symmetry_holds("sym:0,1")):
        raise ValueError("Kulkarni-Nomizu factors must be symmetric")
    a, d = dict(A.nonzero_items()), dict(D.nonzero_items())

    def terms():
        pairs = itertools.combinations(range(A.chart.n), 2)
        for (i, j), (k, l) in itertools.combinations_with_replacement(pairs,
                                                                      2):
            for sign, p, q in ((1, (i, l), (j, k)), (1, (j, k), (i, l)),
                               (-1, (i, k), (j, l)), (-1, (j, l), (i, k))):
                if p in a and q in d:
                    v = a[p] * d[q]
                    yield (i, j, k, l), v if sign > 0 else -v

    return Tensor.from_terms(A.chart, (0, 4), terms(), CURVATURE_SYMMETRIES)


def gaussian_tensor(chart: Chart) -> Tensor:
    """G = (1/2) g ^ g."""
    return chart.cached("G", lambda: named_tensor(chart, "g^g").scaled(
        Fraction(1, 2)))


def weyl_conformal(chart: Chart) -> Tensor:
    """C = R - g^S/(n-2) + kappa g^g / (2(n-1)(n-2))."""
    def compute():
        n = chart.n
        kappa = scalar_curvature(chart)
        gS = named_tensor(chart, "g^S").scaled(Fraction(1, n - 2))
        gg = named_tensor(chart, "g^g").scaled(
            kappa * Fraction(1, 2 * (n - 1) * (n - 2)))
        return riemann(chart) - gS + gg
    return chart.cached("C", compute)


def concircular(chart: Chart) -> Tensor:
    """K = R - kappa g^g / (2 n (n-1))."""
    def compute():
        n = chart.n
        kappa = scalar_curvature(chart)
        gg = named_tensor(chart, "g^g").scaled(
            kappa * Fraction(1, 2 * n * (n - 1)))
        return riemann(chart) - gg
    return chart.cached("K", compute)


def conharmonic(chart: Chart) -> Tensor:
    """conh(R) = R - g^S/(n-2)."""
    def compute():
        gS = named_tensor(chart, "g^S").scaled(Fraction(1, chart.n - 2))
        return riemann(chart) - gS
    return chart.cached("conh", compute)


def projective(chart: Chart) -> Tensor:
    """Lowered Weyl projective tensor:

    P(X1,X2,X3,X4) = R(X1,X2,X3,X4)
                   - (S(X2,X3) g(X1,X4) - S(X1,X3) g(X2,X4)) / (n-2).

    Not a generalized curvature tensor in general; produced lowered only and
    reported as-is.
    """
    def compute():
        g, R = chart.g, riemann(chart)
        S = ricci(chart).scaled(Fraction(1, chart.n - 2))  # S / (n-2)

        def terms():
            yield from R.nonzero_items()
            for (a, b), s in S.nonzero_items():
                for (p, q), gv in g.nonzero_items():
                    sg = s * gv
                    yield (a, p, b, q), sg
                    yield (p, a, b, q), -sg

        return Tensor.from_terms(chart, (0, 4), terms())
    return chart.cached("P", compute)


#: The function of the chart that computes each plainly named tensor other
#: than g.  It is looked up by name in this module when named_tensor() runs,
#: as a direct call would be, so a replaced module attribute takes effect.
_NAMED = {"R": "riemann", "S": "ricci", "S2": "ricci_square",
          "G": "gaussian_tensor", "C": "weyl_conformal", "K": "concircular",
          "conh": "conharmonic", "P": "projective"}
#: The factors A, B of the named Kulkarni-Nomizu products "A^B".
_KN_FACTORS = ("g", "S", "S2")


def named_tensor(chart: Chart, T: Union[Tensor, str]) -> Tensor:
    """The tensor a name stands for, cached on the chart; a Tensor is
    returned unchanged.

    Names: R, S, S2 (the Ricci square), g, the derived tensors G, C, K,
    conh, P, and "A^B", the Kulkarni-Nomizu product of A and B in
    {g, S, S2}.  Unknown names raise ValueError.
    """
    if isinstance(T, Tensor):
        return T
    if T == "g":
        return chart.g
    if T in _NAMED:
        return globals()[_NAMED[T]](chart)
    A, hat, B = T.partition("^")
    if not hat or A not in _KN_FACTORS or B not in _KN_FACTORS:
        raise ValueError(f"unknown tensor name {T!r}")
    return chart.cached(T, lambda: kulkarni_nomizu(
        named_tensor(chart, A), named_tensor(chart, B)))


def _by_name(chart: Chart, kind: str, compute, *operands):
    """compute(), cached on the chart under kind:A.B.. when every operand
    is a tensor name; computed afresh otherwise."""
    if all(isinstance(X, str) for X in operands):
        return chart.cached(f"{kind}:{'.'.join(operands)}", compute)
    return compute()


def nabla_cached(chart: Chart, T: Union[Tensor, str]) -> Tensor:
    """nabla T, chart-cached for a tensor name."""
    return _by_name(chart, "nabla", lambda: covariant_derivative(
        chart, named_tensor(chart, T)), T)


def dot_named(chart: Chart, acting: Union[Tensor, str],
              T: Union[Tensor, str]) -> Tensor:
    """B.T, chart-cached for named tensors (the battery's hot path)."""
    return _by_name(chart, "dot", lambda: dot_action(
        named_tensor(chart, acting), named_tensor(chart, T)), acting, T)


def tachibana_named(chart: Chart, A: Union[Tensor, str],
                    T: Union[Tensor, str]) -> Tensor:
    """Q(A, T), chart-cached for named tensors."""
    return _by_name(chart, "Q", lambda: tachibana(
        named_tensor(chart, A), named_tensor(chart, T)), A, T)


def _acted_symmetries(T: Tensor) -> tuple[str, ...]:
    # The slot symmetries of B.T and Q(A,T): those of T, and skew in the
    # trailing pair.
    k = T.rank
    return T.declared_symmetries + (f"skew:{k},{k + 1}",)


def dot_action(B: Tensor, T: Tensor) -> Tensor:
    """Derivation action of a (0,4) curvature tensor on a (0,k) tensor:

    (B.T)(X1..Xk; X, Y) = -sum_m T(X1, .., B(X,Y)X_m, .., Xk),

    skew in the trailing pair.  The endomorphism uses the fourth-slot lift.
    B.T inherits the slot symmetries of T and is computed at orbit
    representatives only: trailing pairs h < l, and leading indices that
    are representatives for T.
    """
    r, k = T.valence
    if r != 0 or k < 1:
        raise ValueError("dot_action expects a covariant tensor of rank >= 1")
    # -B(e_h, e_l) for h < l puts i in place of a with weight -Bhat[a,h,l,i].
    columns: list[dict] = [{} for _ in range(B.chart.n)]
    for (a, h, l, i), v in lowered_to_operator(B).nonzero_items():
        if h < l:
            columns[a].setdefault(i, []).append(((h, l), 1, (a, h, l, i), -v))
    return Tensor.from_terms(B.chart, (0, k + 2),
                             _derivation_terms(T, columns),
                             _acted_symmetries(T))


def tachibana(A: Tensor, T: Tensor) -> Tensor:
    """Tachibana action of a (0,2) tensor on a (0,k) tensor:

    Q(A,T)(X1..Xk; X, Y) = -sum_m T(X1, .., (X wedge_A Y)X_m, .., Xk),

    skew in the trailing pair.  Q(A,T) inherits the slot symmetries of T
    and is computed at orbit representatives only.  Each product
    A[c,i] T[J] of nonzero entries is formed once, when it lands on some
    representative, and serves every slot m.
    """
    r, k = T.valence
    if r != 0 or k < 1:
        raise ValueError("tachibana expects a covariant tensor of rank >= 1")
    # -(e_h wedge_A e_l)^a_i = -(delta^a_h A[l,i] - delta^a_l A[h,i]) puts
    # i in place of a with weight +A[c,i] at the trailing pair (c, a) and
    # -A[c,i] at (a, c), stored at the ordered pair; the fill gives the
    # reflections.  Every a shares the key (c, i).
    n = A.chart.n
    columns: list[dict] = [{} for _ in range(n)]
    for (c, i), av in A.nonzero_items():
        for a in range(n):
            if a != c:
                pair, sign = ((c, a), 1) if c < a else ((a, c), -1)
                columns[a].setdefault(i, []).append((pair, sign, (c, i), av))
    return Tensor.from_terms(A.chart, (0, k + 2),
                             _derivation_terms(T, columns),
                             _acted_symmetries(T))


def oneform_dot(mu: OneForm, T: Tensor) -> Tensor:
    """1-form action, extra slot last:

    (mu . T)(X1..Xk; X) = -sum_m mu(X_m) T(X1, .., X at slot m, .., Xk).

    mu.T inherits the slot symmetries of T and is computed at orbit
    representatives only; each product mu_i T[J] is formed once.
    """
    r, k = T.valence
    if r != 0 or k < 1:
        raise ValueError("oneform_dot expects a covariant tensor of rank >= 1")
    # -mu_i puts i in place of a and a in the extra slot, under the key i.
    n = mu.chart.n
    columns: list[dict] = [{} for _ in range(n)]
    for i, mv in enumerate(mu):
        if not mv.is_zero:
            for a in range(n):
                columns[a][i] = [((a,), -1, i, mv)]
    return Tensor.from_terms(mu.chart, (0, k + 1),
                             _derivation_terms(T, columns),
                             T.declared_symmetries)


def check_gct(B: Tensor) -> dict[str, bool]:
    """Generalized-curvature-tensor axioms for a (0,4) tensor:

    (i) first-Bianchi cyclic sum over the first three slots vanishes,
    (ii) skew-symmetry in the first pair,
    (iii) block interchange symmetry.
    """
    return {
        "first_bianchi": B.cyclic_sum().is_zero(),
        "skew_first_pair": B == -B.permuted((1, 0, 2, 3)),
        "block_interchange": B == B.permuted((2, 3, 0, 1)),
    }


def is_gct(B: Tensor) -> bool:
    return all(check_gct(B).values())


def check_second_bianchi(chart: Chart, B: Union[Tensor, str]) -> bool:
    """Cyclic covariant-derivative identity making a GCT 'proper':

    (nabla_X1 B)(X2,X3,..) + (nabla_X2 B)(X3,X1,..) + (nabla_X3 B)(X1,X2,..) = 0.
    """
    return nabla_cached(chart, B).cyclic_sum().is_zero()


def is_proper_gct(chart: Chart, B: Union[Tensor, str]) -> bool:
    return is_gct(named_tensor(chart, B)) and check_second_bianchi(chart, B)


def walker_cyclic_check(chart: Chart, B: Union[Tensor, str]) -> bool:
    """Cyclic identity for the curvature action on a (0,4) tensor:

    (R(X1,X2).B)(X3,X4,X5,X6) + (R(X3,X4).B)(X5,X6,X1,X2)
                              + (R(X5,X6).B)(X1,X2,X3,X4) = 0,

    the classical Walker identity when B = R.  R.B is stored with the
    acting pair last, so this is its cyclic sum over slot pairs.
    """
    return dot_named(chart, "R", B).cyclic_sum(2).is_zero()
