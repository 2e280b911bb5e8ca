"""Charts and the fundamental curvature pipeline.

A Chart holds a symmetric metric of expressions on n >= 3 coordinates with a
generically nonvanishing determinant; everything downstream (Christoffel
symbols, curvature, covariant derivatives) is computed exactly over the
chart's expression field and cached on the chart.  The pipeline reads
g^-1 through the row index chart.g_inv_rows.

Index conventions, fixed throughout the package:

* A (0,k) tensor T has components T[i1, ..., ik] = T(e_i1, ..., e_ik).
  They live in one dict from index tuples to the nonzero components, in
  index order and frozen at construction, but only this module knows
  that: every other module reads them through Tensor (T[idx], items(),
  nonzero_items()), builds new ones with Tensor.from_terms and states
  identities through T.permuted(order) and T.cyclic_sum(width).
* Every tensor operation walks the nonzero support
  (nonzero_items()), never the zero components, and forms each product of
  two nonzero entries once, scattering it to every component it feeds or
  to its orbit representatives only (below).  So does the curvature
  pipeline: the Christoffel symbols are the (1,2) Tensor Gamma[k, i, j] =
  Gamma^k_ij, built from the support of g, and R, S, kappa and S2 are
  walks over the supports of Gamma, R and S.
* A tensor may carry a slot-symmetry group, generated by the specs in
  T.declared_symmetries ("skew:p,q", "sym:p,q", "block:p,q,r,s").  Specs
  given to the constructor are checked on the components: riemann declares
  CURVATURE_SYMMETRIES (computing i < j and filling the skew first pair, so
  the (k, l) skew and the pair interchange are tested on computed values),
  ricci and ricci_square "sym:0,1", the exterior derivative "skew:0,1".
  Results inherit groups and are filled, not checked: Gamma is filled from
  i <= j ("sym:1,2"), nabla T has the group of T shifted one slot, the
  1-form action mu.T (operators) that of T, the actions B.T and Q(A,T)
  (operators) that of T plus skew in the trailing pair, the
  Kulkarni-Nomizu product of two (checked) symmetric tensors
  CURVATURE_SYMMETRIES, and sums and scalings of tensors sharing a group
  keep it.  Those kernels compute each orbit's representative (its least
  index) only and fill the rest by sign (Tensor.from_terms with the
  group's specs); permuted() drops the group.  cyclic_sum() is formed at
  the representatives of the group it derives from T's and declares none,
  and the linear systems of the classifiers solve only the rows at the
  representatives of a group all their operands declare (for the b1-b3
  rows, the group cyclic_sum gives nabla T).
* nabla T, B.T, Q(A,T) and mu.T are derivations acting on one slot of T
  at a time.  They share one walk over the support of T,
  _derivation_terms; each operator only lists, for each index a, the
  indices i it puts in place of a with their weights and extra indices.
* The covariant derivative adds its index FIRST: (nabla T)[x, i1, ..., ik].
* The curvature sign is calibrated so that the round-sphere family carries
  negative scalar curvature, i.e. R is the negative of the
  [nabla_X, nabla_Y] - nabla_[X,Y] commutator convention, lowered by
  R(X1,X2,X3,X4) = g(R(X1,X2)X3, X4).  This is the convention under which
  all classifier coefficients in this package are quoted.
* The exterior derivative of a 1-form is (d a)[i,j] = (d_j a_i - d_i a_j)/2,
  the normalization that makes the weak-symmetry curvature identity
  R.T = 2 da (x) T + Q(pi (x) pi - nabla pi, T) exact (see classifiers).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter
from typing import ItemsView, Iterable, Mapping, Sequence, Union

from .exprs import Context, Expr
from .linsolve import solve_linear_system

#: Global curvature sign relative to the commutator convention.
CURVATURE_SIGN = -1

#: Exterior derivative normalization: (d a)_ij = DALPHA_COEFF * (d_i a_j - d_j a_i).
DALPHA_COEFF = Fraction(-1, 2)


class ChartError(ValueError):
    """Invalid metric data (asymmetric or identically singular)."""


#: The slot symmetries of an algebraic curvature tensor: skew in each pair
#: and symmetric under interchange of the pairs.
CURVATURE_SYMMETRIES = ("skew:0,1", "skew:2,3", "block:0,1,2,3")


def _spec_generator(spec: str, rank: int) -> tuple[tuple[int, ...], int]:
    # "skew:p,q"  "sym:p,q"  "block:p,q,r,s" (interchange of index pairs),
    # as (order, sign) with T.permuted(order) == sign * T.
    kind, _, body = spec.partition(":")
    slots = tuple(int(s) for s in body.split(",")) if body else ()
    order = list(range(rank))
    if kind in ("skew", "sym"):
        p, q = slots
        order[p], order[q] = q, p
        return tuple(order), -1 if kind == "skew" else 1
    if kind == "block":
        p, q, r, s = slots
        order[p], order[q], order[r], order[s] = r, s, p, q
        return tuple(order), 1
    raise ValueError(f"unknown symmetry spec {spec!r}")


def _shifted_spec(spec: str, by: int) -> str:
    kind, _, body = spec.partition(":")
    return f"{kind}:" + ",".join(str(int(s) + by) for s in body.split(","))


class _SlotGroup:
    """The group that (order, sign) generators generate on index tuples.

    An element (order, sign) says T[idx[order[0]], .., idx[order[k-1]]] =
    sign * T[idx].  An index is its orbit's representative when it is the
    orbit's least tuple and no element fixes it with sign -1 (such orbits
    are forced to zero and have no representative).  Both answers are
    memoized per index, but the trivial group answers is_representative
    (every index is one) without a memo.
    """

    __slots__ = ("elements", "_representative", "_orbit")

    def __init__(self, rank: int, generators):
        signs = {tuple(range(rank)): 1}
        frontier = list(signs.items())
        while frontier:
            order, sign = frontier.pop()
            for g_order, g_sign in generators:
                new = tuple(order[m] for m in g_order)
                new_sign = sign * g_sign
                known = signs.get(new)
                if known is None:
                    signs[new] = new_sign
                    frontier.append((new, new_sign))
                elif known != new_sign:
                    raise ValueError(f"slot symmetries {generators} force "
                                     "every component to vanish")
        self.elements = tuple(signs.items())
        self._representative: dict = {}
        self._orbit: dict = {}

    def is_representative(self, idx: tuple[int, ...]) -> bool:
        rep = self._representative.get(idx)
        if rep is None:
            if len(self.elements) == 1:
                return True
            rep = True
            for order, sign in self.elements:
                image = tuple(idx[m] for m in order)
                if image < idx or (sign < 0 and image == idx):
                    rep = False
                    break
            self._representative[idx] = rep
        return rep

    def orbit(self, idx: tuple[int, ...]) -> tuple:
        """The distinct (image, sign) pairs of idx, idx itself included."""
        orbit = self._orbit.get(idx)
        if orbit is None:
            images = {}
            for order, sign in self.elements:
                images.setdefault(tuple(idx[m] for m in order), sign)
            orbit = self._orbit[idx] = tuple(images.items())
        return orbit


_GROUPS: dict = {}


def _slot_group(rank: int, specs: tuple[str, ...]) -> _SlotGroup:
    group = _GROUPS.get((rank, specs))
    if group is None:
        group = _GROUPS[rank, specs] = _SlotGroup(
            rank, [_spec_generator(spec, rank) for spec in specs])
    return group


def _cyclic_group(rank: int, specs: tuple[str, ...],
                  shift: tuple[int, ...]) -> _SlotGroup:
    """The symmetries of C = T + T o shift + T o shift^2 (T o s being
    T.permuted(s), shift of order 3) for T with the group of specs: shift,
    and each element (rho, sign) of T's group with shift^-t rho shift^t in
    it with the same sign for t = 1, 2 (then T o shift^t o rho = sign *
    T o shift^t).  A power of shift in T's group has sign 1 there."""
    key = (rank, specs, shift)
    if key not in _GROUPS:
        signs = dict(_slot_group(rank, specs).elements)
        powers = (tuple(range(rank)), shift, tuple(shift[m] for m in shift))
        kept = [(order, sign) for order, sign in signs.items() if all(
            signs.get(tuple(powers[3 - t][order[powers[t][m]]]
                            for m in range(rank))) == sign for t in (1, 2))]
        _GROUPS[key] = _SlotGroup(rank, [(shift, 1)] + kept)
    return _GROUPS[key]


def _summed(terms: Iterable[tuple[tuple[int, ...], Expr]]) -> dict:
    sums: dict = {}
    for idx, val in terms:
        prev = sums.get(idx)
        sums[idx] = val if prev is None else prev + val
    return sums


def _index_fits(idx, rank: int, n: int) -> bool:
    """Whether idx is a tuple of rank ints in range(n)."""
    return (isinstance(idx, tuple) and len(idx) == rank
            and all(isinstance(i, int) and 0 <= i < n for i in idx))


class Tensor:
    """A covariant (or once-contravariant) tensor of expressions on a chart.

    valence (r, k) with r in {0, 1}; when r = 1 the contravariant index is
    stored first.  The components are one dict from index tuples to nonzero
    Exprs, in index order and never changed after construction, which the
    constructor builds from a mapping, dropping zeros and rejecting indices
    that do not fit the valence and chart (ValueError).  T[idx] looks an
    index up (zero when absent, IndexError when it does not fit); equality,
    sums, negation, scaling, permutation and the zero test walk the dict,
    never a zero component.

    declared_symmetries holds slot-symmetry specs ("skew:p,q", "sym:p,q",
    "block:p,q,r,s") that generate the tensor's symmetry_group.  Specs
    passed to the constructor are checked on the components; tensors that
    inherit specs (from_terms with symmetries) are filled from them.
    """

    __slots__ = ("chart", "valence", "declared_symmetries", "_components")

    def __init__(self, chart: "Chart", valence: tuple[int, int],
                 components: Mapping[tuple[int, ...], Expr],
                 declared_symmetries: Sequence[str] = ()):
        r, k = valence
        if r not in (0, 1):
            raise ValueError("valence r must be 0 or 1")
        rank, n = r + k, chart.n
        support = []
        for idx, val in components.items():
            if not _index_fits(idx, rank, n):
                raise ValueError(f"index {idx!r} is not a tuple of {rank} "
                                 f"entries in range({n}) (valence {valence})")
            if not val.is_zero:
                support.append((idx, val))
        support.sort(key=itemgetter(0))
        self.chart = chart
        self.valence = valence
        self._components = dict(support)
        self.declared_symmetries = tuple(declared_symmetries)
        for sym in self.declared_symmetries:
            if not self._symmetry_holds(sym):
                raise ValueError(f"declared symmetry {sym!r} does not hold")

    @classmethod
    def from_terms(cls, chart: "Chart", valence: tuple[int, int],
                   terms: Iterable[tuple[tuple[int, ...], Expr]],
                   symmetries: Sequence[str] = ()) -> "Tensor":
        """The tensor whose component at each index is the sum of the values
        that terms, (index, Expr) pairs, give for it; zero elsewhere.  With
        slot symmetries, terms may sit at orbit representatives only
        (ValueError otherwise), and every other index of an orbit gets its
        representative's sum times its sign; the symmetries are inherited,
        not checked."""
        symmetries = tuple(symmetries)
        return cls._filled(chart, valence, terms,
                           _slot_group(sum(valence), symmetries), symmetries)

    @classmethod
    def _filled(cls, chart: "Chart", valence: tuple[int, int],
                terms: Iterable[tuple[tuple[int, ...], Expr]],
                group: _SlotGroup, symmetries: tuple[str, ...]) -> "Tensor":
        # from_terms with the group that fills the representatives' sums,
        # declaring symmetries.
        sums = _summed(terms)
        if len(group.elements) == 1:
            return cls._of_support(chart, valence, sorted(
                ((idx, v) for idx, v in sums.items() if not v.is_zero),
                key=itemgetter(0)), symmetries)
        support = []
        for idx, v in sums.items():
            if not group.is_representative(idx):
                raise ValueError(f"index {idx} is not a representative of "
                                 f"its orbit under {symmetries}")
            if v.is_zero:
                continue
            neg = None
            for image, sign in group.orbit(idx):
                if sign < 0:
                    neg = -v if neg is None else neg
                support.append((image, v if sign > 0 else neg))
        support.sort(key=itemgetter(0))
        return cls._of_support(chart, valence, support, symmetries)

    @classmethod
    def _of_support(cls, chart: "Chart", valence: tuple[int, int],
                    support: Iterable[tuple[tuple[int, ...], Expr]],
                    symmetries: tuple[str, ...] = ()) -> "Tensor":
        # support: nonzero (index, component) pairs in index order, which
        # the kernels build from valid indices.  Neither the indices nor the
        # symmetries are checked.
        T = cls.__new__(cls)
        T.chart, T.valence, T.declared_symmetries = chart, valence, symmetries
        T._components = dict(support)
        return T

    def with_symmetries(self, specs: Sequence[str]) -> "Tensor":
        """This tensor declaring specs through the constructor, which checks
        them (ValueError when one does not hold)."""
        return Tensor(self.chart, self.valence, self._components, specs)

    @property
    def rank(self) -> int:
        return sum(self.valence)

    @property
    def symmetry_group(self) -> _SlotGroup:
        return _slot_group(self.rank, self.declared_symmetries)

    def representative_items(self) -> Iterable[tuple[tuple[int, ...], Expr]]:
        """The support at orbit representatives, in index order."""
        if not self.declared_symmetries:
            return self.nonzero_items()
        rep = self.symmetry_group.is_representative
        return [(idx, v) for idx, v in self.nonzero_items() if rep(idx)]

    def __getitem__(self, idx: tuple[int, ...]) -> Expr:
        try:
            value = self._components.get(idx)
        except TypeError:  # an unhashable index, such as a list
            value = None
        if value is None:
            # Only a miss is checked, so reading the support costs no more.
            rank, n = self.rank, self.chart.n
            if not _index_fits(idx, rank, n):
                raise IndexError(f"index {idx!r} is not a tuple of {rank} "
                                 f"entries in range({n})")
            return self.chart.ctx.zero
        return value

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.valence == other.valence
                and self._components == other._components)

    def _combined(self, other: "Tensor", sign: int) -> "Tensor":
        # self + sign * other, computed on representatives when both share
        # their symmetries.
        symmetries = self.declared_symmetries
        if symmetries == other.declared_symmetries:
            mine = self.representative_items()
            theirs = other.representative_items()
        else:
            symmetries = ()
            mine, theirs = self.nonzero_items(), other.nonzero_items()
        if sign < 0:
            theirs = ((idx, -v) for idx, v in theirs)
        return Tensor.from_terms(self.chart, self.valence,
                                 itertools.chain(mine, theirs), symmetries)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combined(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combined(other, -1)

    def __neg__(self) -> "Tensor":
        return Tensor._of_support(self.chart, self.valence,
                                  [(idx, -v) for idx, v in
                                   self.nonzero_items()],
                                  self.declared_symmetries)

    def scaled(self, factor) -> "Tensor":
        return Tensor.from_terms(
            self.chart, self.valence,
            ((idx, factor * v) for idx, v in self.representative_items()),
            self.declared_symmetries)

    def is_zero(self) -> bool:
        return not self._components

    def items(self) -> Iterable[tuple[tuple[int, ...], Expr]]:
        """Every (index, component) pair, zeros included, in index order."""
        return ((idx, self[idx]) for idx in
                itertools.product(range(self.chart.n), repeat=self.rank))

    def nonzero_items(self) -> ItemsView[tuple[int, ...], Expr]:
        """The support: every (index, component) pair with a nonzero
        component, in index order (a view of the component dict)."""
        return self._components.items()

    @property
    def array(self):
        """A read-only numpy object array of every component, built on each
        read; nothing in the package reads it or imports numpy elsewhere."""
        import numpy as np
        arr = np.empty((self.chart.n,) * self.rank, dtype=object)
        arr[...] = self.chart.ctx.zero
        for idx, val in self._components.items():
            arr[idx] = val
        arr.flags.writeable = False
        return arr

    def permuted(self, order: Sequence[int]) -> "Tensor":
        """The tensor P with P[i] = T[i[order[0]], ..., i[order[k-1]]]."""
        axes = sorted(range(len(order)), key=order.__getitem__)
        return Tensor._of_support(self.chart, self.valence, sorted(
            ((tuple(idx[a] for a in axes), v)
             for idx, v in self.nonzero_items()), key=itemgetter(0)))

    def cyclic_sum(self, width: int = 1) -> "Tensor":
        """T plus its two cyclic shifts of the first three slot groups, each
        `width` slots wide; for width 1,
        C[i, j, k, ..] = T[i, j, k, ..] + T[j, k, i, ..] + T[k, i, j, ..],
        formed at the representatives of the symmetries that T's declared
        group gives C (_cyclic_group) and filled.  C declares none."""
        slots, w = tuple(range(self.rank)), width
        shift = slots[w:3 * w] + slots[:w] + slots[3 * w:]
        powers = (slots, shift, tuple(shift[m] for m in shift))
        group = _cyclic_group(self.rank, self.declared_symmetries, shift)
        # T[J] feeds C at J o s for s in powers.
        terms = ((I, t) for J, t in self.nonzero_items()
                 for I in (tuple(J[m] for m in s) for s in powers)
                 if group.is_representative(I))
        return Tensor._filled(self.chart, self.valence, terms, group, ())

    def _symmetry_holds(self, sym: str) -> bool:
        # T == sign * T.permuted(order) entrywise.  The permutation is a
        # bijection of indices, so checking the support suffices: if every
        # support entry maps onto sign times itself, the support maps onto
        # itself and every zero entry onto a zero entry.
        order, sign = _spec_generator(sym, self.rank)
        components = self._components
        for idx, v in components.items():
            image = components.get(tuple(idx[a] for a in order))
            if image is None or image != (v if sign > 0 else -v):
                return False
        return True


class OneForm:
    """A covector of expressions on a chart."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: "Chart", components: Sequence[Expr]):
        if len(components) != chart.n:
            raise ValueError("wrong number of components")
        self.chart = chart
        self.components = tuple(components)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.components == other.components

    def __iter__(self):
        return iter(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


class Chart:
    """Dimension, coordinates, parameters and metric, with cached curvature.

    The metric is given as a sequence of n rows of Exprs and kept as the
    (0,2) Tensor g; g^-1 is kept as its row index g_inv_rows, where
    g_inv_rows[b] maps a to g^{ba} over the nonzero entries of row b.
    Immutable after construction; derived objects are computed lazily and
    memoized, so repeated classifier runs on one chart share the pipeline.
    """

    def __init__(self, ctx: Context, metric: Sequence[Sequence[Expr]],
                 name: str = "chart"):
        n = len(ctx.coords)
        if n < 3:
            raise ChartError("dimension must be at least 3")
        if len(metric) != n or any(len(row) != n for row in metric):
            raise ChartError("metric must be an n by n matrix")
        for i in range(n):
            for j in range(i):
                if metric[i][j] != metric[j][i]:
                    raise ChartError(
                        f"metric not symmetric at entry ({i+1},{j+1})")
        self.ctx = ctx
        self.name = name
        self.n = n
        self.g = Tensor(self, (0, 2), {(i, j): metric[i][j]
                                       for i in range(n) for j in range(n)})
        det = determinant(metric, ctx)
        if det.is_zero:
            raise ChartError("metric is identically singular")
        self.det_g = det
        self.g_inv_rows = _adjugate_inverse(metric, det, ctx)
        self._cache: dict = {}

    def cached(self, key: str, fn):
        value = self._cache.get(key)
        if value is None:
            value = fn()
            self._cache[key] = value
        return value

    def metric_tensor(self) -> Tensor:
        """The metric tensor, the attribute g."""
        return self.g

    def __repr__(self):
        return f"Chart({self.name}, n={self.n})"


def _minor(matrix: Sequence[Sequence[Expr]], rows: tuple[int, ...],
           cols: tuple[int, ...], ctx: Context) -> Expr:
    """The determinant of the submatrix of matrix (a sequence of rows) on
    rows x cols, by cofactor expansion with zero skipping (n <= 5 scale)."""
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    # Expand along the row with the most zeros among remaining columns.
    best_row, best_zeros = rows[0], -1
    for r in rows:
        z = sum(1 for c in cols if matrix[r][c].is_zero)
        if z > best_zeros:
            best_row, best_zeros = r, z
    acc = ctx.zero
    sub_rows = tuple(r for r in rows if r != best_row)
    sign = 1 if rows.index(best_row) % 2 == 0 else -1
    for pos, c in enumerate(cols):
        entry = matrix[best_row][c]
        if entry.is_zero:
            continue
        minor = _minor(matrix, sub_rows, cols[:pos] + cols[pos + 1:], ctx)
        term = entry * minor
        acc = acc + (term if (sign > 0) == (pos % 2 == 0) else -term)
    return acc


def determinant(matrix: Sequence[Sequence[Expr]], ctx: Context) -> Expr:
    """The determinant of a square matrix given as a sequence of rows."""
    indices = tuple(range(len(matrix)))
    return _minor(matrix, indices, indices, ctx)


def _adjugate_inverse(matrix: Sequence[Sequence[Expr]], det: Expr,
                      ctx: Context) -> tuple[dict, ...]:
    # The inverse of a symmetric matrix as rows: inverse[i] maps j to the
    # (i, j) entry over the nonzero entries, in increasing j.
    n = len(matrix)
    inverse: tuple[dict, ...] = tuple({} for _ in range(n))
    indices = tuple(range(n))
    for i in range(n):
        rows = indices[:i] + indices[i + 1:]
        for j in range(i, n):
            minor = _minor(matrix, rows, indices[:j] + indices[j + 1:], ctx)
            cof = minor if (i + j) % 2 == 0 else -minor
            # Symmetric matrix: the adjugate is symmetric as well.
            value = cof / det
            if not value.is_zero:
                inverse[j][i] = inverse[i][j] = value
    return inverse


def build_chart(ctx_or_coords, metric_entries, params=(),
                name: str = "chart") -> Chart:
    """Build a chart from expression strings or Exprs.

    metric_entries is a full symmetric matrix (sequence of rows); entries may
    be strings in the expression grammar or Expr values.
    """
    ctx = (ctx_or_coords if isinstance(ctx_or_coords, Context)
           else Context(ctx_or_coords, params))
    g = [[ctx.parse(e) if isinstance(e, str) else e for e in row]
         for row in metric_entries]
    return Chart(ctx, g, name=name)


# ---------------------------------------------------------------------------
# Curvature pipeline.
# ---------------------------------------------------------------------------


def _both_orders(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """(p, q) and (q, p), once when p == q."""
    return ((p, q), (q, p)) if p != q else ((p, q),)


def christoffel(chart: Chart) -> Tensor:
    """Levi-Civita connection coefficients as the (1,2) tensor
    Gamma[k, i, j] = Gamma^k_ij, symmetric in i, j.

    Walks the support of g for the first kind, 2 Gamma_{l,ij} = d_i g_jl +
    d_j g_il - d_l g_ij at i <= j, differentiating each entry g_ab (a <= b)
    once, and raises l through the rows of g^-1, halved.
    """

    def compute():
        def doubled_first_kind():
            for (a, b), gab in chart.g.nonzero_items():
                if a > b:
                    continue
                for x in range(chart.n):
                    d = gab.diff(x)
                    if d.is_zero:
                        continue
                    # d_x g_pl is d_i g_jl at (i, j) = (x, p) and d_j g_il
                    # at (i, j) = (p, x).
                    for p, l in _both_orders(a, b):
                        idx = (l, x, p) if x <= p else (l, p, x)
                        yield idx, d
                        if x == p:
                            yield idx, d
                    yield (x, a, b), -d

        half = Fraction(1, 2)
        raising = [[(k, half * gi) for k, gi in row.items()]
                   for row in chart.g_inv_rows]
        return Tensor.from_terms(
            chart, (1, 2), (
                ((k, i, j), hg * v)
                for (l, i, j), v in _summed(doubled_first_kind()).items()
                if not v.is_zero for k, hg in raising[l]), ("sym:1,2",))

    return chart.cached("christoffel", compute)


def riemann(chart: Chart) -> Tensor:
    """Curvature tensor as a (0,4) tensor R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l).

    Walks the support of Gamma for the upper-index curvature (commutator
    convention) at i < j only,
        R(e_i, e_j)e_k = ( d_i G^m_jk - d_j G^m_ik
                           + G^m_ia G^a_jk - G^m_ja G^a_ik ) e_m,
    differentiating each G^m_pq (p <= q) once and forming each product of
    two nonzero symbols once, then lowers m with g and fills j < i by skew
    symmetry.  The tensor stored is CURVATURE_SIGN (-1) times this
    commutator form lowered with g: the lowering carries the sign.  The
    other curvature symmetries are declared through the checking
    constructor, so they are tested on computed components.
    """

    def compute():
        n = chart.n
        gamma = christoffel(chart)
        by_upper = [[] for _ in range(n)]   # by_upper[a]: ((t, k), G^a_tk)
        for (a, t, k), w in gamma.nonzero_items():
            by_upper[a].append(((t, k), w))

        def upper():
            for (m, p, q), v in gamma.representative_items():
                for x in range(n):
                    d = v.diff(x)
                    if d.is_zero:
                        continue
                    for s, k in _both_orders(p, q):
                        if x < s:
                            yield (m, x, s, k), d
                        elif s < x:
                            yield (m, s, x, k), -d
            for (m, s, a), v in gamma.nonzero_items():
                for (t, k), w in by_upper[a]:
                    if s < t:
                        yield (m, s, t, k), v * w
                    elif t < s:
                        yield (m, t, s, k), -(v * w)

        lowering = [[] for _ in range(n)]   # lowering[m]: (l, sign * g_lm)
        for (m, l), e in chart.g.nonzero_items():
            lowering[m].append((l, CURVATURE_SIGN * e))
        return Tensor.from_terms(
            chart, (0, 4), (
                ((i, j, k, l), ge * u)
                for (m, i, j, k), u in _summed(upper()).items()
                if not u.is_zero for l, ge in lowering[m]), ("skew:0,1",)
        ).with_symmetries(CURVATURE_SYMMETRIES)

    return chart.cached("riemann", compute)


def lowered_to_operator(B: Tensor) -> Tensor:
    """(1,k-1) lift of a (0,k) tensor on its last slot.

    Returns Bhat[a, I] = g^{ab} B[I, b] (contravariant index first, as in
    every (1,k) Tensor).  For a (0,4) tensor, B(e_i,e_j)e_k = Bhat[a,i,j,k]
    e_a; for a symmetric (0,2) tensor, Bhat is its endomorphism.
    """
    chart = B.chart
    rows = chart.g_inv_rows
    return Tensor.from_terms(chart, (1, B.rank - 1), (
        ((a,) + idx[:-1], val * gi)
        for idx, val in B.nonzero_items() for a, gi in rows[idx[-1]].items()))


def ricci(chart: Chart) -> Tensor:
    """Ricci tensor S[i,j] = g^{ab} R[a,i,j,b], from the support of R.

    Both S[i,j] and S[j,i] are computed, so declaring "sym:0,1" through the
    checking constructor tests the pair symmetry of R once more.
    """

    def compute():
        rows = chart.g_inv_rows

        def terms():
            for (a, i, j, b), r in riemann(chart).nonzero_items():
                gi = rows[a].get(b)
                if gi is not None:
                    yield (i, j), gi * r

        return Tensor.from_terms(chart, (0, 2), terms()).with_symmetries(
            ("sym:0,1",))

    return chart.cached("ricci", compute)


def scalar_curvature(chart: Chart) -> Expr:
    """kappa = g^{ij} S_ij, from the support of S."""

    def compute():
        rows = chart.g_inv_rows
        kappa = chart.ctx.zero
        for (i, j), s in ricci(chart).nonzero_items():
            gi = rows[i].get(j)
            if gi is not None:
                kappa = kappa + gi * s
        return kappa

    return chart.cached("kappa", compute)


def ricci_square(chart: Chart) -> Tensor:
    """S2(X,Y) = S(SX, Y), i.e. S2[i,j] = Shat[a,i] S[a,j] with the Ricci
    endomorphism Shat[a,i] = g^{ab} S[b,i], from their supports.  Every
    component is computed, so "sym:0,1" is checked, not filled."""

    def compute():
        S = ricci(chart)
        by_row = [[] for _ in range(chart.n)]   # by_row[a]: (j, S[a, j])
        for (a, j), s in S.nonzero_items():
            by_row[a].append((j, s))
        return Tensor.from_terms(chart, (0, 2), (
            ((i, j), o * s)
            for (a, i), o in lowered_to_operator(S).nonzero_items()
            for j, s in by_row[a])).with_symmetries(("sym:0,1",))

    return chart.cached("ricci_square", compute)


def _derivation_terms(T: Tensor, columns: Sequence[Mapping[int, list]],
                      extra_first: bool = False):
    """The terms of a derivation acting on one slot of the (0,k) tensor T
    at a time, at the representatives of T's symmetry group.

    columns[a][i] lists entries (e, sign, key, w): for each nonzero T[J],
    each distinct index a in J and each such entry, sign * w T[J] sits at
    I + e (e + I when extra_first) for every I that is J with i in place
    of a at a slot holding a and is a representative for T.  Each product
    w T[J] is formed, and negated, at most once per key and J, and only
    when it lands on some I; entries that read the same w share a key.
    """
    k = T.rank
    rep = T.symmetry_group.is_representative
    for J, t in T.nonzero_items():
        products: dict = {}
        negated: dict = {}
        for a in dict.fromkeys(J):
            slots = [m for m in range(k) if J[m] == a]
            for i, entries in columns[a].items():
                targets = [I for I in (J[:m] + (i,) + J[m + 1:]
                                       for m in slots) if rep(I)]
                if not targets:
                    continue
                for e, sign, key, w in entries:
                    p = products.get(key)
                    if p is None:
                        p = products[key] = w * t
                    if sign < 0:
                        neg = negated.get(key)
                        if neg is None:
                            neg = negated[key] = -p
                        p = neg
                    for I in targets:
                        yield (e + I if extra_first else I + e), p


def covariant_derivative(chart: Chart, T: Tensor) -> Tensor:
    """nabla T with the derivative index first:

    (nabla T)[x, j1..jk] = d_x T[j1..jk] - sum_m Gamma^a_{x jm} T[.. a at m ..].

    nabla T inherits the slot symmetries of T, shifted one slot, and is
    computed at orbit representatives only.  The connection term forms
    each product Gamma^a_{x j} T[J] once per distinct index a in J.
    """
    r, k = T.valence
    if r != 0:
        raise ValueError("covariant_derivative expects a covariant tensor")
    n = chart.n
    columns: list[dict] = [{} for _ in range(n)]
    for (a, x, j), gam in christoffel(chart).nonzero_items():
        columns[a].setdefault(j, []).append(((x,), -1, (a, x, j), gam))

    def derivatives():
        for J, t in T.representative_items():
            for x in range(n):
                d = t.diff(x)
                if not d.is_zero:
                    yield (x,) + J, d

    return Tensor.from_terms(
        chart, (0, k + 1),
        itertools.chain(derivatives(),
                        _derivation_terms(T, columns, extra_first=True)),
        tuple(_shifted_spec(spec, 1) for spec in T.declared_symmetries))


def nabla_riemann(chart: Chart) -> Tensor:
    """nabla R, cached under the name R like any named tensor's nabla."""
    return chart.cached("nabla:R",
                        lambda: covariant_derivative(chart, riemann(chart)))


def exterior_derivative_oneform(chart: Chart, alpha: OneForm) -> Tensor:
    """(d alpha)[i,j] = DALPHA_COEFF * (d_i alpha_j - d_j alpha_i), skew;
    every component is computed, so "skew:0,1" is checked, not filled."""
    n = chart.n
    return Tensor.from_terms(chart, (0, 2), (
        ((i, j), DALPHA_COEFF * (alpha[j].diff(i) - alpha[i].diff(j)))
        for i in range(n) for j in range(n) if i != j)
    ).with_symmetries(("skew:0,1",))


def is_closed(chart: Chart, alpha: OneForm) -> bool:
    return exterior_derivative_oneform(chart, alpha).is_zero()


def covariant_derivative_oneform(chart: Chart, alpha: OneForm) -> Tensor:
    """(nabla alpha)[i,j] = d_i alpha_j - Gamma^a_{ij} alpha_a: the covariant
    derivative of alpha taken as a (0,1) tensor."""
    return covariant_derivative(chart, Tensor.from_terms(
        chart, (0, 1), (((i,), a) for i, a in enumerate(alpha))))


def rank_at_most(Z: Tensor, r: int) -> bool:
    """Generic rank test: rank Z <= r over the expression field (see
    generic_rank; ValueError when r is not in 0..n)."""
    if not 0 <= r <= Z.chart.n:
        raise ValueError("rank bound out of range")
    return generic_rank(Z) <= r


def generic_rank(Z: Tensor) -> int:
    """The rank over the expression field of a rank-2 tensor read as the
    matrix Z[i, j]: n minus the dimension of the kernel that one
    solve_linear_system call finds over its rows (ValueError when Z is not
    of rank 2)."""
    if Z.rank != 2:
        raise ValueError(f"generic rank needs a rank-2 tensor, not rank "
                         f"{Z.rank}")
    n, ctx = Z.chart.n, Z.chart.ctx
    rows: list[dict[int, Expr]] = [{} for _ in range(n)]
    for (i, j), value in Z.nonzero_items():
        rows[i][j] = value
    kernel = solve_linear_system(((row, ctx.zero) for row in rows), n, ctx)
    return n - kernel.dimension


def oneform(chart: Chart, entries: Sequence[Union[str, Expr, int]]) -> OneForm:
    comps = []
    for e in entries:
        if isinstance(e, str):
            comps.append(chart.ctx.parse(e))
        elif isinstance(e, int):
            comps.append(chart.ctx.integer(e))
        else:
            comps.append(e)
    return OneForm(chart, comps)
