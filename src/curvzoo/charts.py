"""Charts and the fundamental curvature pipeline.

A Chart holds a symmetric metric of expressions on n >= 3 coordinates with a
generically nonvanishing determinant; everything downstream (Christoffel
symbols, curvature, covariant derivatives) is computed exactly over the
chart's expression field and cached on the chart.

Index conventions, fixed throughout the package:

* A (0,k) tensor T has components T[i1, ..., ik] = T(e_i1, ..., e_ik).
  They live in a frozen numpy object array, but only this module knows
  that: every other module reads them through Tensor (T[idx], items(),
  nonzero_items()), builds new ones with Tensor.from_terms and states
  identities through T.permuted(order) and T.cyclic_sum(width).
* Every tensor operation walks the cached nonzero support
  (nonzero_items()), never the zero components, and forms each product of
  two nonzero entries once, scattering it to every component it feeds.
* A tensor may carry a slot-symmetry group, generated by the specs in
  T.declared_symmetries ("skew:p,q", "sym:p,q", "block:p,q,r,s").  Specs
  given to the constructor are checked on the components: riemann declares
  CURVATURE_SYMMETRIES, ricci and ricci_square "sym:0,1", the exterior
  derivative "skew:0,1".  Results inherit groups and are filled, not
  checked: nabla T has the group of T shifted one slot, the actions B.T and
  Q(A,T) (operators) that of T plus skew in the trailing pair, and sums and
  scalings of tensors sharing a group keep it.  Those kernels compute each
  orbit's representative (its least index) only and fill the rest by sign
  (Tensor.from_representative_terms); permuted() drops the group.
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
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .exprs import Context, Expr

#: Global curvature sign relative to the commutator convention.
CURVATURE_SIGN = -1

#: Exterior derivative normalization: (d a)_ij = DALPHA_COEFF * (d_i a_j - d_j a_i).
DALPHA_COEFF = Fraction(-1, 2)


class ChartError(ValueError):
    """Invalid metric data (asymmetric or identically singular)."""


def _object_array(shape) -> np.ndarray:
    return np.empty(shape, dtype=object)


def zeros(ctx: Context, shape) -> np.ndarray:
    arr = _object_array(shape)
    arr[...] = ctx.zero
    return arr


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
    """The group that slot-symmetry specs generate on rank-k index tuples.

    An element (order, sign) says T[idx[order[0]], .., idx[order[k-1]]] =
    sign * T[idx].  An index is its orbit's representative when it is the
    orbit's least tuple and no element fixes it with sign -1 (such orbits
    are forced to zero and have no representative).  Both answers are
    memoized per index.
    """

    __slots__ = ("elements", "_representative", "_orbit")

    def __init__(self, rank: int, specs: tuple[str, ...]):
        generators = [_spec_generator(spec, rank) for spec in specs]
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
                    raise ValueError(f"symmetries {specs} force every "
                                     "component to vanish")
        self.elements = tuple(signs.items())
        self._representative: dict = {}
        self._orbit: dict = {}

    def is_representative(self, idx: tuple[int, ...]) -> bool:
        rep = self._representative.get(idx)
        if rep is None:
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
        group = _GROUPS[rank, specs] = _SlotGroup(rank, specs)
    return group


def _summed(terms: Iterable[tuple[tuple[int, ...], Expr]]) -> dict:
    sums: dict = {}
    for idx, val in terms:
        prev = sums.get(idx)
        sums[idx] = val if prev is None else prev + val
    return sums


class Tensor:
    """A covariant (or once-contravariant) tensor of expressions on a chart.

    valence (r, k) with r in {0, 1}; when r = 1 the contravariant index is
    stored first.  Components live in a numpy object array that is frozen
    at construction (writing into it raises), so the nonzero support, the
    (index, component) pairs with a nonzero component in index order, is
    computed once, on first use, and can never go stale.  Equality, sums,
    negation, scaling, permutation and the zero test all walk that support
    and never touch a zero component.

    declared_symmetries holds slot-symmetry specs ("skew:p,q", "sym:p,q",
    "block:p,q,r,s") that generate the tensor's symmetry_group.  Specs
    passed to the constructor are checked on the components; tensors that
    inherit specs (from_representative_terms) are filled from them.
    """

    __slots__ = ("chart", "valence", "array", "declared_symmetries",
                 "_support")

    def __init__(self, chart: "Chart", valence: tuple[int, int],
                 array: np.ndarray,
                 declared_symmetries: Sequence[str] = ()):
        r, k = valence
        if r not in (0, 1):
            raise ValueError("valence r must be 0 or 1")
        expected = (chart.n,) * (r + k)
        if array.shape != expected:
            raise ValueError(f"component array shape {array.shape} does not "
                             f"match valence {valence}")
        self.chart = chart
        self.valence = valence
        self.array = array
        self._support = None
        self.declared_symmetries = tuple(declared_symmetries)
        for sym in self.declared_symmetries:
            if not self._symmetry_holds(sym):
                raise ValueError(f"declared symmetry {sym!r} does not hold")
        array.flags.writeable = False

    @classmethod
    def from_terms(cls, chart: "Chart", valence: tuple[int, int],
                   terms: Iterable[tuple[tuple[int, ...], Expr]]) -> "Tensor":
        """The tensor whose component at each index is the sum of the values
        that terms, (index, Expr) pairs, give for it; zero elsewhere."""
        return cls._of_support(chart, valence, sorted(
            ((idx, v) for idx, v in _summed(terms).items() if not v.is_zero),
            key=itemgetter(0)))

    @classmethod
    def from_representative_terms(
            cls, chart: "Chart", valence: tuple[int, int],
            symmetries: Sequence[str],
            terms: Iterable[tuple[tuple[int, ...], Expr]]) -> "Tensor":
        """The tensor with the slot symmetries `symmetries` whose component
        at each orbit representative is the sum of the values terms give for
        it; every other index of the orbit gets that sum times its sign.
        Terms may sit at representatives only (ValueError otherwise).  The
        symmetries are inherited, not checked."""
        symmetries = tuple(symmetries)
        if not symmetries:
            return cls.from_terms(chart, valence, terms)
        group = _slot_group(sum(valence), symmetries)
        support = []
        for idx, v in _summed(terms).items():
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
        return cls._of_support(chart, valence, support, symmetries=symmetries)

    @classmethod
    def _of_support(cls, chart: "Chart", valence: tuple[int, int],
                    support: Sequence[tuple[tuple[int, ...], Expr]],
                    array: Optional[np.ndarray] = None,
                    symmetries: tuple[str, ...] = ()) -> "Tensor":
        # support: nonzero (index, component) pairs in index order; array,
        # when given, already holds exactly those components.  The
        # symmetries are taken as given, not checked.
        if array is None:
            array = zeros(chart.ctx, (chart.n,) * sum(valence))
            for idx, val in support:
                array[idx] = val
        T = cls(chart, valence, array)
        T.declared_symmetries = symmetries
        T._support = tuple(support)
        return T

    def with_symmetries(self, specs: Sequence[str]) -> "Tensor":
        """This tensor declaring specs through the constructor, which checks
        them (ValueError when one does not hold)."""
        T = Tensor(self.chart, self.valence, self.array, specs)
        T._support = self._support
        return T

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

    def __getitem__(self, idx):
        return self.array[idx]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.valence == other.valence
                and self.nonzero_items() == other.nonzero_items())

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
        return Tensor.from_representative_terms(
            self.chart, self.valence, symmetries,
            itertools.chain(mine, theirs))

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combined(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combined(other, -1)

    def __neg__(self) -> "Tensor":
        return Tensor._of_support(self.chart, self.valence,
                                  [(idx, -v) for idx, v in
                                   self.nonzero_items()],
                                  symmetries=self.declared_symmetries)

    def scaled(self, factor) -> "Tensor":
        return Tensor.from_representative_terms(
            self.chart, self.valence, self.declared_symmetries,
            ((idx, factor * v) for idx, v in self.representative_items()))

    def is_zero(self) -> bool:
        return not self.nonzero_items()

    def items(self) -> Iterable[tuple[tuple[int, ...], Expr]]:
        """Every (index, component) pair, zeros included, in index order."""
        return zip(np.ndindex(self.array.shape), self.array.flat)

    def nonzero_items(self) -> tuple[tuple[tuple[int, ...], Expr], ...]:
        """The support: every (index, component) pair with a nonzero
        component, in index order; computed on first use and cached."""
        if self._support is None:
            self._support = tuple((idx, e) for idx, e in self.items()
                                  if not e.is_zero)
        return self._support

    def permuted(self, order: Sequence[int]) -> "Tensor":
        """The tensor P with P[i] = T[i[order[0]], ..., i[order[k-1]]]."""
        axes = tuple(int(a) for a in np.argsort(order))
        support = sorted(((tuple(idx[a] for a in axes), v)
                          for idx, v in self.nonzero_items()),
                         key=itemgetter(0))
        return Tensor._of_support(self.chart, self.valence, support,
                                  self.array.transpose(axes))

    def cyclic_sum(self, width: int = 1) -> "Tensor":
        """T plus its two cyclic shifts of the first three slot groups, each
        `width` slots wide; for width 1,
        C[i, j, k, ..] = T[i, j, k, ..] + T[j, k, i, ..] + T[k, i, j, ..]."""
        slots, w = tuple(range(self.rank)), width
        g0, g1, g2, rest = (slots[:w], slots[w:2 * w], slots[2 * w:3 * w],
                            slots[3 * w:])
        return (self + self.permuted(g1 + g2 + g0 + rest)
                + self.permuted(g2 + g0 + g1 + rest))

    def _symmetry_holds(self, sym: str) -> bool:
        # T == sign * T.permuted(order) entrywise.  The permutation is a
        # bijection of indices, so checking the support suffices: if every
        # support entry maps onto sign times itself, the support maps onto
        # itself and every zero entry onto a zero entry.
        order, sign = _spec_generator(sym, self.rank)
        array = self.array
        for idx, v in self.nonzero_items():
            image = array[tuple(idx[a] for a in order)]
            if image != (v if sign > 0 else -v):
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

    Immutable after construction; derived objects are computed lazily and
    memoized, so repeated classifier runs on one chart share the pipeline.
    """

    def __init__(self, ctx: Context, metric: np.ndarray,
                 name: str = "chart"):
        n = len(ctx.coords)
        if n < 3:
            raise ChartError("dimension must be at least 3")
        if metric.shape != (n, n):
            raise ChartError("metric must be an n by n matrix")
        for i in range(n):
            for j in range(i):
                if metric[i, j] != metric[j, i]:
                    raise ChartError(
                        f"metric not symmetric at entry ({i+1},{j+1})")
        self.ctx = ctx
        self.name = name
        self.n = n
        self.g = metric
        det = determinant(metric, ctx)
        if det.is_zero:
            raise ChartError("metric is identically singular")
        self.det_g = det
        self.g_inv = _adjugate_inverse(metric, det, ctx)
        self._cache: dict = {}

    def cached(self, key: str, fn):
        value = self._cache.get(key)
        if value is None:
            value = fn()
            self._cache[key] = value
        return value

    def metric_tensor(self) -> Tensor:
        return self.cached("g_tensor",
                           lambda: Tensor(self, (0, 2), self.g))

    def __repr__(self):
        return f"Chart({self.name}, n={self.n})"


def determinant(matrix: np.ndarray, ctx: Context) -> Expr:
    """Cofactor-expansion determinant with zero skipping (n <= 5 scale)."""
    n = matrix.shape[0]
    if n == 1:
        return matrix[0, 0]

    def det_rec(rows: tuple[int, ...], cols: tuple[int, ...]) -> Expr:
        if len(rows) == 1:
            return matrix[rows[0], cols[0]]
        # Expand along the row with the most zeros among remaining columns.
        best_row, best_zeros = rows[0], -1
        for r in rows:
            z = sum(1 for c in cols if matrix[r, c].is_zero)
            if z > best_zeros:
                best_row, best_zeros = r, z
        acc = ctx.zero
        sub_rows = tuple(r for r in rows if r != best_row)
        sign = 1 if rows.index(best_row) % 2 == 0 else -1
        for pos, c in enumerate(cols):
            entry = matrix[best_row, c]
            if entry.is_zero:
                continue
            minor = det_rec(sub_rows, cols[:pos] + cols[pos + 1:])
            term = entry * minor
            acc = acc + (term if (sign > 0) == (pos % 2 == 0) else -term)
        return acc

    return det_rec(tuple(range(n)), tuple(range(n)))


def _adjugate_inverse(matrix: np.ndarray, det: Expr, ctx: Context) -> np.ndarray:
    n = matrix.shape[0]
    inv = _object_array((n, n))
    indices = tuple(range(n))
    for i in range(n):
        rows = indices[:i] + indices[i + 1:]
        for j in range(i, n):
            cols = indices[:j] + indices[j + 1:]
            minor = determinant(matrix[np.ix_(rows, cols)], ctx)
            cof = minor if (i + j) % 2 == 0 else -minor
            # Symmetric metric: adjugate is symmetric as well.
            inv[j, i] = inv[i, j] = cof / det
    return inv


def build_chart(ctx_or_coords, metric_entries, params=(),
                name: str = "chart") -> Chart:
    """Build a chart from expression strings or Exprs.

    metric_entries is a full symmetric matrix (sequence of rows); entries may
    be strings in the expression grammar or Expr values.
    """
    ctx = (ctx_or_coords if isinstance(ctx_or_coords, Context)
           else Context(ctx_or_coords, params))
    n = len(ctx.coords)
    g = _object_array((n, n))
    for i in range(n):
        row = metric_entries[i]
        for j in range(n):
            entry = row[j]
            g[i, j] = ctx.parse(entry) if isinstance(entry, str) else entry
    return Chart(ctx, g, name=name)


# ---------------------------------------------------------------------------
# Curvature pipeline.
# ---------------------------------------------------------------------------


def christoffel(chart: Chart) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[k, i, j] (symmetric in i, j)."""

    def compute():
        ctx, n, g, ginv = chart.ctx, chart.n, chart.g, chart.g_inv
        dg = _object_array((n, n, n))  # dg[l, i, j] = d_l g_ij
        for l in range(n):
            for i in range(n):
                for j in range(i, n):
                    dg[l, i, j] = dg[l, j, i] = g[i, j].diff(l)
        gamma = zeros(ctx, (n, n, n))
        half = Fraction(1, 2)
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    acc = ctx.zero
                    for l in range(n):
                        if ginv[k, l].is_zero:
                            continue
                        term = dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
                        if not term.is_zero:
                            acc = acc + ginv[k, l] * term
                    val = half * acc
                    gamma[k, i, j] = val
                    gamma[k, j, i] = val
        return gamma

    return chart.cached("christoffel", compute)


def riemann(chart: Chart) -> Tensor:
    """Curvature tensor as a (0,4) tensor R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)."""

    def compute():
        ctx, n, g = chart.ctx, chart.n, chart.g
        gamma = christoffel(chart)
        dgamma = _object_array((n, n, n, n))  # dgamma[p, k, i, j] = d_p Gamma^k_ij
        for p in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        d = gamma[k, i, j].diff(p)
                        dgamma[p, k, i, j] = dgamma[p, k, j, i] = d
        arr = zeros(ctx, (n, n, n, n))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    # Upper-index curvature (commutator convention), slot m:
                    # R(e_i, e_j)e_k = ( d_i G^m_jk - d_j G^m_ik
                    #                    + G^m_ia G^a_jk - G^m_ja G^a_ik ) e_m
                    upper = [None] * n
                    for m in range(n):
                        acc = dgamma[i, m, j, k] - dgamma[j, m, i, k]
                        for a in range(n):
                            t1 = gamma[a, j, k]
                            if not t1.is_zero and not gamma[m, i, a].is_zero:
                                acc = acc + gamma[m, i, a] * t1
                            t2 = gamma[a, i, k]
                            if not t2.is_zero and not gamma[m, j, a].is_zero:
                                acc = acc - gamma[m, j, a] * t2
                        upper[m] = acc
                    for l in range(n):
                        acc = ctx.zero
                        for m in range(n):
                            if not upper[m].is_zero and not g[l, m].is_zero:
                                acc = acc + g[l, m] * upper[m]
                        val = CURVATURE_SIGN * acc
                        arr[i, j, k, l] = val
                        arr[j, i, k, l] = -val
        return Tensor(chart, (0, 4), arr,
                      declared_symmetries=CURVATURE_SYMMETRIES)

    return chart.cached("riemann", compute)


def lowered_to_operator(B: Tensor) -> Tensor:
    """(1,3) lift of a (0,4) tensor on the fourth slot.

    Returns Bhat with B(e_i,e_j)e_k = Bhat[a,i,j,k] e_a (contravariant index
    first, as in every (1,k) Tensor), i.e. the fourth slot is raised with
    the inverse metric: Bhat[a,i,j,k] = g^{ab} B[i,j,k,b].
    """
    chart = B.chart
    n, ginv = chart.n, chart.g_inv
    raising = [[(a, ginv[b, a]) for a in range(n) if not ginv[b, a].is_zero]
               for b in range(n)]
    return Tensor.from_terms(chart, (1, 3), (
        ((a, i, j, k), val * gi)
        for (i, j, k, b), val in B.nonzero_items() for a, gi in raising[b]))


def ricci(chart: Chart) -> Tensor:
    """Ricci tensor S[i,j] = g^{ab} R[a,i,j,b]."""

    def compute():
        ctx, n, ginv = chart.ctx, chart.n, chart.g_inv
        R = riemann(chart)
        arr = zeros(ctx, (n, n))
        for i in range(n):
            for j in range(i, n):
                acc = ctx.zero
                for a in range(n):
                    for b in range(n):
                        gi = ginv[a, b]
                        if gi.is_zero:
                            continue
                        r = R[a, i, j, b]
                        if not r.is_zero:
                            acc = acc + gi * r
                arr[i, j] = arr[j, i] = acc
        return Tensor(chart, (0, 2), arr, declared_symmetries=("sym:0,1",))

    return chart.cached("ricci", compute)


def scalar_curvature(chart: Chart) -> Expr:
    """kappa = g^{ij} S_ij."""

    def compute():
        ctx, n, ginv = chart.ctx, chart.n, chart.g_inv
        S = ricci(chart)
        acc = ctx.zero
        for i in range(n):
            for j in range(n):
                gi = ginv[i, j]
                if not gi.is_zero and not S[i, j].is_zero:
                    acc = acc + gi * S[i, j]
        return acc

    return chart.cached("kappa", compute)


def ricci_operator(chart: Chart) -> np.ndarray:
    """Ricci endomorphism matrix: (S X)^a = Sop[a, i] X^i, Sop = g^{ab} S_bi."""

    def compute():
        ctx, n, ginv = chart.ctx, chart.n, chart.g_inv
        S = ricci(chart)
        op = zeros(ctx, (n, n))
        for a in range(n):
            for i in range(n):
                acc = ctx.zero
                for b in range(n):
                    gi = ginv[a, b]
                    if not gi.is_zero and not S[b, i].is_zero:
                        acc = acc + gi * S[b, i]
                op[a, i] = acc
        return op

    return chart.cached("ricci_op", compute)


def ricci_square(chart: Chart) -> Tensor:
    """S2(X,Y) = S(SX, Y), i.e. S2[i,j] = S[i,a] g^{ab} S[b,j]."""

    def compute():
        ctx, n = chart.ctx, chart.n
        S = ricci(chart)
        Sop = ricci_operator(chart)
        arr = zeros(ctx, (n, n))
        for i in range(n):
            for j in range(i, n):
                acc = ctx.zero
                for a in range(n):
                    if not Sop[a, i].is_zero and not S[a, j].is_zero:
                        acc = acc + Sop[a, i] * S[a, j]
                arr[i, j] = arr[j, i] = acc
        return Tensor(chart, (0, 2), arr, declared_symmetries=("sym:0,1",))

    return chart.cached("ricci_square", compute)


def covariant_derivative(chart: Chart, T: Tensor) -> Tensor:
    """nabla T with the derivative index first:

    (nabla T)[x, j1..jk] = d_x T[j1..jk] - sum_m Gamma^a_{x jm} T[.. a at m ..].

    nabla T inherits the slot symmetries of T, shifted one slot, and is
    computed at orbit representatives only.  Walks the support of T: an
    entry T[J] meets Gamma^a_{x j} wherever J[m] = a, so each product
    Gamma^a_{x j} T[J] is formed once per distinct index a in J, when J
    with j at some such slot m is a representative, and scattered to every
    such slot.
    """
    r, k = T.valence
    if r != 0:
        raise ValueError("covariant_derivative expects a covariant tensor")
    n = chart.n
    gamma = christoffel(chart)
    # by_upper[a]: (j, [(x, Gamma^a_{x j}) nonzero]) for each j that has any.
    by_upper = []
    for a in range(n):
        columns = ([(x, gamma[a, x, j]) for x in range(n)
                    if not gamma[a, x, j].is_zero] for j in range(n))
        by_upper.append([(j, col) for j, col in enumerate(columns) if col])
    rep = T.symmetry_group.is_representative

    def terms():
        for J, t in T.nonzero_items():
            if rep(J):
                for x in range(n):
                    d = t.diff(x)
                    if not d.is_zero:
                        yield (x,) + J, d
            for a in dict.fromkeys(J):
                slots = [m for m in range(k) if J[m] == a]
                for j, column in by_upper[a]:
                    targets = [I for I in (J[:m] + (j,) + J[m + 1:]
                                           for m in slots) if rep(I)]
                    if not targets:
                        continue
                    for x, gam in column:
                        p = -(gam * t)
                        for I in targets:
                            yield (x,) + I, p

    return Tensor.from_representative_terms(
        chart, (0, k + 1),
        tuple(_shifted_spec(spec, 1) for spec in T.declared_symmetries),
        terms())


def nabla_riemann(chart: Chart) -> Tensor:
    """nabla R, cached under the name R like any named tensor's nabla."""
    return chart.cached("nabla:R",
                        lambda: covariant_derivative(chart, riemann(chart)))


def exterior_derivative_oneform(chart: Chart, alpha: OneForm) -> Tensor:
    """(d alpha)[i,j] = DALPHA_COEFF * (d_i alpha_j - d_j alpha_i), skew."""
    ctx, n = chart.ctx, chart.n
    arr = zeros(ctx, (n, n))
    for i in range(n):
        for j in range(i + 1, n):
            val = DALPHA_COEFF * (alpha[j].diff(i) - alpha[i].diff(j))
            arr[i, j] = val
            arr[j, i] = -val
    return Tensor(chart, (0, 2), arr, declared_symmetries=("skew:0,1",))


def is_closed(chart: Chart, alpha: OneForm) -> bool:
    return exterior_derivative_oneform(chart, alpha).is_zero()


def covariant_derivative_oneform(chart: Chart, alpha: OneForm) -> Tensor:
    """(nabla alpha)[i,j] = d_i alpha_j - Gamma^a_{ij} alpha_a."""
    ctx, n = chart.ctx, chart.n
    gamma = christoffel(chart)
    arr = zeros(ctx, (n, n))
    for i in range(n):
        for j in range(n):
            val = alpha[j].diff(i)
            for a in range(n):
                gam = gamma[a, i, j]
                if not gam.is_zero and not alpha[a].is_zero:
                    val = val - gam * alpha[a]
            arr[i, j] = val
    return Tensor(chart, (0, 2), arr)


def rank_at_most(Z: Tensor, r: int) -> bool:
    """Generic rank test: all (r+1) x (r+1) minors are canonically zero."""
    n = Z.chart.n
    if not 0 <= r <= n:
        raise ValueError("rank bound out of range")
    if r == n:
        return True
    ctx = Z.chart.ctx
    size = r + 1
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.combinations(range(n), size):
            sub = Z.array[np.ix_(rows, cols)]
            if not determinant(sub, ctx).is_zero:
                return False
    return True


def generic_rank(Z: Tensor) -> int:
    for r in range(Z.chart.n + 1):
        if rank_at_most(Z, r):
            return r
    return Z.chart.n


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
