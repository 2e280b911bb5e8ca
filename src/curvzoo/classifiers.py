"""Symmetry and decomposition classifiers over the expression field.

Each classifier reduces its defining curvature condition to exact linear
algebra (see linsolve) and reports a verdict with a symbolic witness: the
proportionality function of a Deszcz-type condition, the associated 1-forms
of Chaki/weak-symmetry/recurrence conditions, the coefficient families of
Roter-type decompositions, or a quasi-Einstein splitting.

Degenerate inputs (the defining condition's required nonvanishing fails
identically, e.g. a parallel tensor for a recurrence solve) are reported as
a distinguished "outside U" outcome rather than a vacuous truth; the U-set
label follows the usual naming for each condition.  All verdicts are generic,
i.e. valid over the open dense set where denominators and the metric
determinant do not vanish.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .charts import (Chart, OneForm, Tensor, _cyclic_group, _shifted_spec,
                     _slot_group, christoffel, covariant_derivative_oneform,
                     exterior_derivative_oneform, is_closed, oneform,
                     rank_at_most, ricci, riemann, scalar_curvature)
from .exprs import Expr
from .linsolve import (Identity, InternalInconsistencyError, SolutionSpace,
                       certify, satisfies, solve_linear_system)
from .operators import (_by_name, dot_named, is_proper_gct, kulkarni_nomizu,
                        nabla_cached, named_tensor, oneform_dot,
                        tachibana_named)


@dataclass
class SolverOutcome:
    """Affine solution set plus degeneracy information for one condition.

    rows are the rows the solver consumed, all of them when consistent:
    the rows at orbit representatives (see _solve).  system() walks the
    system's indices in order, reusing those rows and building the others
    as they are read.
    """

    space: Optional[SolutionSpace] = None
    degenerate: bool = False
    degenerate_set: str = ""
    rows: list = field(default_factory=list)
    system: Optional[Callable] = None

    @property
    def consistent(self) -> bool:
        return self.space is not None and self.space.consistent


@dataclass
class ClassifierVerdict:
    """Named classifier outcome with its symbolic witness.

    outcome True/False is a definite verdict; None means the condition's
    defining set is empty on this chart (degenerate input), detailed in notes.
    """

    name: str
    outcome: Optional[bool]
    witness: object = None
    notes: str = ""
    identity: Optional[Identity] = None  # re-checked by the oracle


def _outcome_verdict(name: str, out: SolverOutcome, *notes: str,
                     witness: object = None,
                     certified: bool = True) -> ClassifierVerdict:
    """The verdict on a solved condition: None outside the condition's set,
    else whether it is consistent.  Witnessed by its solution space (or the
    given witness) and, when certified and consistent, carrying its identity
    after the back-substitution guard."""
    outcome = None if out.degenerate else out.consistent
    if out.degenerate:
        notes = (f"outside {out.degenerate_set}",) + notes
    if witness is None and out.consistent:
        witness = out.space
    verdict = ClassifierVerdict(name, outcome, witness=witness,
                                notes=" ".join(filter(None, notes)))
    if certified and out.consistent:
        verdict.identity = certify(name, out.rows, out.space.particular,
                                   out.space, out.system())
    return verdict


def _solve(chart: Chart, system, names: Sequence[str],
           outside: str = "") -> SolverOutcome:
    """Solve a system for the named unknowns, keeping the rows the solver
    consumed; a nonempty `outside` marks the input degenerate.

    system is (group, indices, row_at): row_at(I) is the row at each index
    I of indices, in index order, and the row at sigma(I) is sign(sigma)
    times the row at I for sigma in group; every other index has a zero
    row.  So only the rows at group's representatives are built and
    solved: they span the same row space, which alone fixes the solver's
    reduced echelon basis.  The builders take a group that all operands
    declare (for b1-b3, the group of a cyclic sum, see _cyclic3_system),
    else the trivial group, whose every index is a representative.  The
    outcome's system() walks indices in order, reusing the rows solved and
    building the others as they are read; so the identity (see certify)
    keeps the first rows of the whole system.  Every system is read here
    and nowhere else."""
    group, indices, row_at = system
    built: dict = {}

    def solved():
        for idx in filter(group.is_representative, indices):
            row = built[idx] = row_at(idx)
            yield row

    space = solve_linear_system(solved(), len(names), chart.ctx, names)
    return SolverOutcome(space, bool(outside), outside, list(built.values()),
                         lambda: (built.get(idx) or row_at(idx)
                                  for idx in indices))


# ---------------------------------------------------------------------------
# Proportionality and semisymmetry.
# ---------------------------------------------------------------------------


def check_semisymmetric(chart: Chart, T: Union[Tensor, str],
                        acting: Union[Tensor, str] = "R") -> bool:
    """B . T = 0 with B the acting curvature tensor (default R)."""
    return dot_named(chart, acting, T).is_zero()


def classify_deszcz(chart: Chart, T: Union[Tensor, str],
                    W: Union[Tensor, str] = "g",
                    acting: Union[Tensor, str] = "R",
                    name: str = "") -> ClassifierVerdict:
    """Deszcz-type pseudosymmetry: B.T = L * Q(W,T).

    W = "g" is plain pseudosymmetry, W = "S" the Ricci-generalized variant;
    the acting tensor defaults to R (pass the Weyl tensor for the
    pseudosymmetric-Weyl condition C.C = L Q(g,C)).
    """
    Wname = W if isinstance(W, str) else "W"
    Tname = T if isinstance(T, str) else ""
    lhs = dot_named(chart, acting, T)
    rhs = tachibana_named(chart, W, T)
    out = _solve(chart, _combination_system(lhs, [rhs]), ("L",))
    label = name or f"deszcz[{Tname or 'T'};{Wname}]"
    uset = "U_T" if Wname == "g" else "U_G"
    if not out.consistent:
        return ClassifierVerdict(label, False,
                                 notes="no proportionality over the "
                                       "function field")
    if not out.space.is_unique:  # no rows: B.T = Q(W,T) = 0
        return ClassifierVerdict(label, None,
                                 notes=f"outside {uset}: Q({Wname},T) = 0 "
                                       "and B.T = 0 identically")
    values = out.space.particular
    return ClassifierVerdict(label, True, witness=values[0],
                             identity=certify(label, out.rows, values,
                                              system=out.system()))


def deszcz_verdicts(chart: Chart, tname: str) -> list[ClassifierVerdict]:
    """semisymmetric[T], then deszcz[T;g] and deszcz[T;S]."""
    return [ClassifierVerdict(f"semisymmetric[{tname}]",
                              check_semisymmetric(chart, tname)),
            classify_deszcz(chart, tname, "g"),
            classify_deszcz(chart, tname, "S")]


def weyl_verdicts(chart: Chart, tensors) -> list[ClassifierVerdict]:
    """Pseudosymmetric Weyl tensor, C.C = L Q(g,C), from dimension 4."""
    if chart.n < 4:
        return []
    return [classify_deszcz(chart, "C", "g", acting="C",
                            name="weyl_pseudosymmetric")]


# ---------------------------------------------------------------------------
# The weak-symmetry family.  Chaki pseudosymmetry, recurrence, Tamassy-Binh
# weak symmetry and weak Z symmetry are one condition,
#   nabla_X T(X1..Xk) = A(X) T(X1..Xk) + sum_m B_m(X_m) T(X1..X..Xk),
# with A = 2 phi, B_m = phi (Chaki); A = pi, no B_m (recurrence);
# A = alpha, B = beta, beta-bar, gamma, gamma-bar (weak symmetry, (0,4));
# A = delta, B = eta, lambda (weak Z, (0,2)).
# ---------------------------------------------------------------------------


def _sparse(terms) -> dict[int, Expr]:
    """{column: sum of its values} over (column, value) terms, skipping
    zero values, without the columns whose sum cancels."""
    coeffs: dict[int, Expr] = {}
    for col, val in terms:
        if not val.is_zero:
            coeffs[col] = coeffs[col] + val if col in coeffs else val
    return {col: c for col, c in coeffs.items() if not c.is_zero}


def _slot_system(chart: Chart, T: Tensor, nablaT: Tensor, first: int,
                 blocks: Sequence[int]):
    """The system (see _solve) of nabla_x T_I = first a_x T_I +
    sum_m b_{blocks[m]}(I_m) T_{I[m->x]}, in unknowns of n columns per
    block; a is block 0.

    Rows are produced in index order, only where nabla T, T_I or some
    T_{I[m->x]} is nonzero; columns whose terms cancel are dropped
    (_sparse), so a row whose terms all cancel has no coefficient.  When
    every slot is in block 0 (or there are none), a permutation of I only
    permutes the slot terms, and the group is that of nabla T when it is
    T's shifted one slot."""
    n = chart.n
    shifted = tuple(_shifted_spec(spec, 1) for spec in T.declared_symmetries)
    shared = not any(blocks) and nablaT.declared_symmetries == shifted
    group = _slot_group(nablaT.rank, shifted if shared else ())
    firstT = T if first == 1 else T.scaled(first)
    live = {idx for idx, _ in nablaT.nonzero_items()}
    for J, _ in T.nonzero_items():
        live.update((x,) + J for x in range(n))
        for m in range(len(blocks)):  # T_J = T_{I[m->x]} for x = J[m]
            live.update((J[m],) + J[:m] + (y,) + J[m + 1:] for y in range(n))

    def row_at(idx):
        x, I = idx[0], idx[1:]
        return _sparse([(x, firstT[I])] + [
            (b * n + I[m], T[I[:m] + (x,) + I[m + 1:]])
            for m, b in enumerate(blocks)]), nablaT[idx]

    return group, sorted(live), row_at


def _solve_family(chart: Chart, T: Union[Tensor, str],
                  prefixes: Sequence[str], first: int,
                  blocks: Sequence[int], uset: str) -> SolverOutcome:
    """Solve the family condition (see _slot_system) for the 1-forms named by
    prefixes.  Degenerate (outside uset) when nabla T = 0 for U_L, and when
    T is recurrent (parallel included) for U_J and U_Q."""
    nablaT = nabla_cached(chart, T)
    names = tuple(f"{p}_{c}" for p in prefixes for c in chart.ctx.coords)
    outside = (nablaT.is_zero() if uset == "U_L"
               else solve_recurrence(chart, T).consistent)
    return _solve(chart, _slot_system(chart, named_tensor(chart, T), nablaT,
                                      first, blocks),
                  names, uset if outside else "")


def solve_chaki(chart: Chart, T: Union[Tensor, str]) -> SolverOutcome:
    """Chaki pseudosymmetry: nabla T = 2 phi (x) T - phi_X . T, solved for phi.

    Componentwise: nabla_x T_I = 2 phi_x T_I + sum_m phi_{I_m} T_{I[m->x]}.
    Degenerate (outside U_L) when nabla T = 0.  Cached on the chart under
    the tensor's name.
    """
    def solve():
        k = named_tensor(chart, T).valence[1]
        return _solve_family(chart, T, ("phi",), 2, (0,) * k, "U_L")

    return _by_name(chart, "chaki", solve, T)


def chaki_verdicts(chart: Chart, tname: str) -> list[ClassifierVerdict]:
    """chaki[T], witnessed by the 1-forms phi."""
    return [_outcome_verdict(f"chaki[{tname}]", solve_chaki(chart, tname))]


def chaki_residual_zero(chart: Chart, T: Union[Tensor, str],
                        phi: OneForm) -> bool:
    """Direct re-verification of the Chaki condition for a given 1-form:
    nabla_x T_I - 2 phi_x T_I + (phi . T)(I; x) = 0."""
    nablaT = nabla_cached(chart, T)
    T = named_tensor(chart, T)
    k = T.valence[1]
    # phi . T stores its derivative-direction slot last; move it first.
    correction = oneform_dot(phi, T).permuted((*range(1, k + 1), 0))
    return (nablaT - _outer(phi, T).scaled(2) + correction).is_zero()


def _outer(A: Union[Tensor, OneForm], B: Union[Tensor, OneForm]) -> Tensor:
    """(A (x) B)[I, J] = A_I B_J, over the supports of two covariant
    tensors; a 1-form is taken as a (0,1) tensor."""
    A, B = (Tensor(X.chart, (0, 1), {(i,): c for i, c in enumerate(X)})
            if isinstance(X, OneForm) else X for X in (A, B))
    return Tensor.from_terms(A.chart, (0, A.rank + B.rank), (
        (I + J, a * b) for I, a in A.nonzero_items()
        for J, b in B.nonzero_items()))


def solve_recurrence(chart: Chart, T: Union[Tensor, str]) -> SolverOutcome:
    """T-recurrence nabla T = pi (x) T; degenerate (outside U_L) if nabla T = 0.

    Cached on the chart under the tensor's name.
    """
    return _by_name(chart, "recurrence", lambda: _solve_family(
        chart, T, ("pi",), 1, (), "U_L"), T)


def recurrence_verdicts(chart: Chart, tname: str) -> list[ClassifierVerdict]:
    """recurrent[T], noting whether the recurrence 1-form is closed."""
    rec = solve_recurrence(chart, tname)
    closed = ""
    if rec.consistent and not rec.degenerate:
        pi = OneForm(chart, rec.space.particular[:chart.n])
        closed = f"closed={is_closed(chart, pi)}"
    return [_outcome_verdict(f"recurrent[{tname}]", rec, closed,
                             certified=False)]


def solve_weak_symmetry_04(chart: Chart,
                           T: Union[Tensor, str]) -> SolverOutcome:
    """Tamassy-Binh weak symmetry of a (0,4) tensor:

    nabla_X T(X1..X4) = alpha(X) T(..) + beta(X1) T(X,..) + beta'(X2) T(..X..)
                      + gamma(X3) T(..X..) + gamma'(X4) T(..X),

    solved for the five 1-forms (5n unknowns).  Degenerate (outside U_J) when
    T is recurrent (including parallel): nabla T = xi (x) T for some xi.
    """
    if named_tensor(chart, T).valence != (0, 4):
        raise ValueError("weak symmetry solver expects a (0,4) tensor")
    return _solve_family(chart, T, ("alpha", "beta", "betabar", "gamma",
                                    "gammabar"), 1, (1, 2, 3, 4), "U_J")


def weak_symmetry_verdicts(chart: Chart, tname: str
                           ) -> list[ClassifierVerdict]:
    """weak_symmetry[T] with its normalized solution, then b1-b3 of T."""
    ws = solve_weak_symmetry_04(chart, tname)
    witness = None
    if ws.consistent and not ws.degenerate:
        witness = {"space": ws.space,
                   "normalized": normalize_weak_solution(chart, ws, tname)}
    return [_outcome_verdict(f"weak_symmetry[{tname}]", ws, witness=witness),
            *form_recurrence_checks(chart, tname).values()]


def blocks_of(chart: Chart, vector: Sequence[Expr],
              n_blocks: int) -> list[OneForm]:
    n = chart.n
    return [OneForm(chart, vector[b * n:(b + 1) * n])
            for b in range(n_blocks)]


@dataclass
class WeakSymmetryNormalization:
    """Reduced representatives of a weak-symmetry solution."""

    symmetrized: list[OneForm]           # (alpha, sigma, sigma, sigma, sigma)
    chaki: Optional[list[OneForm]] = None  # (2 eps, eps, ..) for proper GCTs
    pair_equalities_hold: bool = True    # beta = beta-bar, gamma = gamma-bar


def normalize_weak_solution(chart: Chart, outcome: SolverOutcome,
                            T: Union[Tensor, str]
                            ) -> WeakSymmetryNormalization:
    """Reduce a weak-symmetry solution along the standard chain:

    for a generalized curvature tensor every solution has beta = beta-bar and
    gamma = gamma-bar (asserted on the whole affine family, not assumed); the
    averaged sigma = (beta+gamma)/2 gives a solution (alpha, sigma x4); and
    when T also satisfies the differential Bianchi identity the point
    (2 eps, eps x4) with eps = (alpha + 2 sigma)/4 solves, tying weak symmetry
    to Chaki pseudosymmetry.  Every emitted representative is re-verified by
    substitution into the solver's rows; failure raises
    InternalInconsistencyError.
    """
    if outcome.space is None or not outcome.space.consistent:
        raise ValueError("no weak-symmetry solution to normalize")
    n = chart.n

    pair_ok = True
    for member in [outcome.space.particular] + outcome.space.basis:
        beta, betabar = member[n:2 * n], member[2 * n:3 * n]
        gamma, gammabar = member[3 * n:4 * n], member[4 * n:5 * n]
        if not all((b - bb).is_zero for b, bb in zip(beta, betabar)) or \
           not all((g - gb).is_zero for g, gb in zip(gamma, gammabar)):
            pair_ok = False
    particular = outcome.space.particular
    alpha = particular[:n]
    beta = particular[n:2 * n]
    gamma = particular[3 * n:4 * n]
    half = Fraction(1, 2)
    sigma = [half * (b + g) for b, g in zip(beta, gamma)]
    rep1 = list(alpha) + sigma * 4
    if not satisfies(outcome.rows, rep1):
        raise InternalInconsistencyError(
            "symmetrized weak-symmetry representative fails re-verification")
    result = WeakSymmetryNormalization(
        symmetrized=blocks_of(chart, rep1, 5), pair_equalities_hold=pair_ok)

    if is_proper_gct(chart, T):
        quarter = Fraction(1, 4)
        eps = [quarter * (a + 2 * s) for a, s in zip(alpha, sigma)]
        rep2 = [2 * e for e in eps] + eps * 4
        if not satisfies(outcome.rows, rep2):
            raise InternalInconsistencyError(
                "Chaki-form weak-symmetry representative fails re-verification")
        result.chaki = blocks_of(chart, rep2, 5)
    return result


# ---------------------------------------------------------------------------
# Weakly Z-symmetric (0,2) solve and its structural reductions.
# ---------------------------------------------------------------------------


def is_codazzi(chart: Chart, Z: Union[Tensor, str]) -> bool:
    """(nabla_X Z)(Y, W) = (nabla_Y Z)(X, W)."""
    nablaZ = nabla_cached(chart, Z)
    return nablaZ == nablaZ.permuted((1, 0, 2))


def is_cyclic_parallel(chart: Chart, Z: Union[Tensor, str]) -> bool:
    """The cyclic sum of (nabla_X Z)(Y, W) vanishes."""
    return nabla_cached(chart, Z).cyclic_sum().is_zero()


@dataclass
class WeakZResult:
    outcome: SolverOutcome
    codazzi: bool
    cyclic_parallel: bool
    reductions: dict = field(default_factory=dict)


def solve_weak_Z(chart: Chart, Z: Union[Tensor, str]) -> WeakZResult:
    """Weakly Z-symmetric solve for (delta, eta, lambda):

    nabla_X Z(X1,X2) = delta(X) Z(X1,X2) + eta(X1) Z(X,X2) + lambda(X2) Z(X1,X).

    Degenerate (outside U_Q) when Z is recurrent.  When a solution exists for
    symmetric Z the structural reductions are asserted on the output: the
    averaged point (delta, nu, nu) solves; eta = lambda on every solution when
    rank(Z) > 1; delta = eta = lambda for Codazzi Z of rank > 1; and
    delta + eta + lambda = 0 for cyclic parallel Z.
    """
    outcome = _solve_family(chart, Z, ("delta", "eta", "lam"), 1, (1, 2),
                            "U_Q")
    result = WeakZResult(outcome,
                         codazzi=is_codazzi(chart, Z),
                         cyclic_parallel=is_cyclic_parallel(chart, Z))
    Z = named_tensor(chart, Z)
    symmetric = Z == Z.permuted((1, 0))
    if outcome.consistent and symmetric and not Z.is_zero():
        result.reductions = _weakZ_reductions(chart, Z, outcome,
                                              result.codazzi,
                                              result.cyclic_parallel)
    return result


def weak_Z_verdicts(chart: Chart, tname: str) -> list[ClassifierVerdict]:
    """weak_Z[T] with its reductions, codazzi[T], cyclic_parallel[T], b4[T]."""
    wz = solve_weak_Z(chart, tname)
    reductions = ("reductions=" + json.dumps(wz.reductions, sort_keys=True)
                  if wz.reductions else "")
    return [_outcome_verdict(f"weak_Z[{tname}]", wz.outcome, reductions),
            ClassifierVerdict(f"codazzi[{tname}]", wz.codazzi),
            ClassifierVerdict(f"cyclic_parallel[{tname}]",
                              wz.cyclic_parallel),
            form_recurrence_b4(chart, tname)]


def _weakZ_reductions(chart: Chart, Z: Tensor, outcome: SolverOutcome,
                      codazzi: bool, cyclic: bool) -> dict:
    n = chart.n
    half = Fraction(1, 2)
    space = outcome.space
    particular = space.particular
    delta = particular[:n]
    eta = particular[n:2 * n]
    lam = particular[2 * n:3 * n]
    nu = [half * (e + l) for e, l in zip(eta, lam)]
    averaged = list(delta) + nu + nu
    reductions = {"averaged_point_solves": satisfies(outcome.rows, averaged)}
    rank_gt_one = not rank_at_most(Z, 1)
    if rank_gt_one:
        reductions["eta_equals_lambda"] = all(
            all((m[n + i] - m[2 * n + i]).is_zero for i in range(n))
            for m in [particular] + space.basis)
        if codazzi:
            reductions["all_equal"] = all(
                all((m[i] - m[n + i]).is_zero
                    and (m[n + i] - m[2 * n + i]).is_zero for i in range(n))
                for m in [particular] + space.basis)
    if cyclic:
        reductions["sum_vanishes"] = all(
            all((m[i] + m[n + i] + m[2 * n + i]).is_zero for i in range(n))
            for m in [particular] + space.basis)
    return reductions


# ---------------------------------------------------------------------------
# Recurrent curvature forms: the four classical conditions.
# ---------------------------------------------------------------------------


def _cyclic3_system(chart: Chart, T: Tensor, nablaT: Tensor, cyclic: Tensor):
    """The system (see _solve) of alpha_h T_ijkl + alpha_i T_jhkl +
    alpha_j T_hikl = cyclic_hijkl, with cyclic the cyclic sum of nabla T,
    in index order, only where some term is nonzero; columns whose terms
    cancel are dropped (_sparse).  The coefficients are the cyclic sum of
    alpha (x) T, which has T's specs shifted one slot: when nabla T
    declares them too, both sides have the group that cyclic_sum gives
    nabla T (_cyclic_group), else that of the shift alone."""
    shift = (1, 2, 0, 3, 4)
    shifted = tuple(_shifted_spec(spec, 1) for spec in T.declared_symmetries)
    specs = nablaT.declared_symmetries
    group = _cyclic_group(5, specs if specs == shifted else (), shift)
    live = {idx for idx, _ in cyclic.nonzero_items()}
    for (p, q, k, l), _ in T.nonzero_items():
        for y in range(chart.n):  # T_pqkl as T_ijkl, T_jhkl and T_hikl
            live.update(((y, p, q, k, l), (q, y, p, k, l), (p, q, y, k, l)))

    def row_at(idx):
        h, i, j, k, l = idx
        return (_sparse(((h, T[i, j, k, l]), (i, T[j, h, k, l]),
                         (j, T[h, i, k, l]))), cyclic[idx])

    return group, sorted(live), row_at


def form_recurrence_checks(chart: Chart, T: Union[Tensor, str]
                           ) -> dict[str, ClassifierVerdict]:
    """Recurrent-curvature-2-form conditions for a (0,4) tensor:

    b1: the cyclic derivative sum vanishes;
    b2: some nonzero 1-form alpha has vanishing cyclic alpha-sum against T;
    b3: cyclic derivative sum equals the cyclic alpha-sum for a solved alpha.

    b2 (with a zero rhs) and b3 solve one system (_cyclic3_system) through
    _solve, which builds the rows at the representatives of its group; each
    row is built once and read by both.  b3's identity keeps the first rows
    of the whole system (see _solve).
    """
    label = T if isinstance(T, str) else "T"
    tensor = named_tensor(chart, T)
    if tensor.valence != (0, 4):
        raise ValueError("form recurrence checks expect a (0,4) tensor")
    if tensor.is_zero():
        note = "degenerate: T = 0"
        return {name: ClassifierVerdict(f"{name}[{label}]", None, notes=note)
                for name in ("b1", "b2", "b3")}

    nablaT = nabla_cached(chart, T)
    cyclic = nablaT.cyclic_sum()
    group, indices, row_at = _cyclic3_system(chart, tensor, nablaT, cyclic)
    row_at = functools.cache(row_at)
    names = tuple(f"alpha_{c}" for c in chart.ctx.coords)
    zero = chart.ctx.zero
    hom = _solve(chart, (group, indices, lambda idx: (row_at(idx)[0], zero)),
                 names).space
    b2_holds = hom.dimension >= 1
    return {
        "b1": ClassifierVerdict(f"b1[{label}]", cyclic.is_zero()),
        "b2": ClassifierVerdict(f"b2[{label}]", b2_holds,
                                witness=hom if b2_holds else None),
        "b3": _outcome_verdict(f"b3[{label}]",
                               _solve(chart, (group, indices, row_at), names)),
    }


def form_recurrence_b4(chart: Chart,
                       Z: Union[Tensor, str]) -> ClassifierVerdict:
    """Recurrent 1-form condition for a symmetric (0,2) tensor:

    nabla_i Z_kl - nabla_k Z_il = alpha_i Z_kl - alpha_k Z_il, solved for alpha.
    """
    label = Z if isinstance(Z, str) else "Z"
    nablaZ = nabla_cached(chart, Z)
    Z = named_tensor(chart, Z)
    if Z.is_zero():
        return ClassifierVerdict(f"b4[{label}]", None, notes="degenerate: Z = 0")
    n = chart.n
    rows = {(i, k, l): (_sparse(((i, Z[k, l]), (k, -Z[i, l]))),
                        nablaZ[i, k, l] - nablaZ[k, i, l])
            for i in range(n) for k in range(i + 1, n) for l in range(n)}
    names = tuple(f"alpha_{c}" for c in chart.ctx.coords)
    return _outcome_verdict(f"b4[{label}]", _solve(
        chart, (_slot_group(3, ()), rows, rows.get), names))


# ---------------------------------------------------------------------------
# Linear combinations of generator tensors (Roter-type decompositions).
# ---------------------------------------------------------------------------


def solve_linear_combination(target: Tensor, generators: Sequence[Tensor],
                             names: Optional[Sequence[str]] = None
                             ) -> SolutionSpace:
    """Solve target = sum_i c_i * generator_i for scalar functions c_i.

    Returns the full affine family; dependencies among the generators appear
    as homogeneous basis vectors.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if names is None:
        names = tuple(f"u{j}" for j in range(len(generators)))
    elif len(names) != len(generators):
        raise ValueError(f"{len(names)} names for {len(generators)} "
                         "generators")
    for gen in generators:
        if gen.valence != target.valence:
            raise ValueError("generators must match the target valence")
    return _solve(target.chart, _combination_system(target, generators),
                  names).space


def _combination_system(target: Tensor, generators: Sequence[Tensor]):
    """The system (see _solve) of target = sum_i c_i generator_i, one row
    per component where some operand is nonzero, in index order, with the
    group that every operand declares."""
    operands = (target, *generators)
    specs = {T.declared_symmetries for T in operands}

    def row_at(idx):
        entries = ((i, g[idx]) for i, g in enumerate(generators))
        return {i: e for i, e in entries if not e.is_zero}, target[idx]

    return (_slot_group(target.rank, specs.pop() if len(specs) == 1 else ()),
            sorted({idx for T in operands for idx, _ in T.nonzero_items()}),
            row_at)


def roter_generators(chart: Chart) -> tuple[list[Tensor], list[str]]:
    """g^g, g^S, S^S, named N1..N3."""
    return ([named_tensor(chart, p) for p in ("g^g", "g^S", "S^S")],
            ["N1", "N2", "N3"])


def generalized_roter_generators(chart: Chart) -> tuple[list[Tensor], list[str]]:
    """S^S, S^S2, g^S, g^S2, g^g, S2^S2, named L1..L6."""
    products = ("S^S", "S^S2", "g^S", "g^S2", "g^g", "S2^S2")
    return ([named_tensor(chart, p) for p in products],
            ["L1", "L2", "L3", "L4", "L5", "L6"])


def classify_roter(chart: Chart) -> ClassifierVerdict:
    """R = N1 g^g + N2 g^S + N3 S^S over the function field."""
    return _decomposition_verdict(chart, "roter", *roter_generators(chart))


def classify_generalized_roter(chart: Chart) -> ClassifierVerdict:
    """R as a combination of S^S, S^S2, g^S, g^S2, g^g, S2^S2."""
    return _decomposition_verdict(chart, "generalized_roter",
                                  *generalized_roter_generators(chart))


def _decomposition_verdict(chart: Chart, name: str,
                           generators: Sequence[Tensor],
                           names: Sequence[str]) -> ClassifierVerdict:
    out = _solve(chart, _combination_system(riemann(chart), generators),
                 names)
    verdict = _outcome_verdict(name, out, certified=False)
    if out.consistent:  # certified without the back-substitution guard
        verdict.identity = certify(name, out.rows, out.space.particular,
                                   system=out.system())
    return verdict


def roter_verdicts(chart: Chart, tensors) -> list[ClassifierVerdict]:
    """roter, then generalized_roter."""
    return [classify_roter(chart), classify_generalized_roter(chart)]


# ---------------------------------------------------------------------------
# Quasi-Einstein decomposition.
# ---------------------------------------------------------------------------


@dataclass
class QuasiEinsteinResult:
    found: bool
    einstein: bool = False
    alpha: Optional[Expr] = None           # S - alpha g has rank <= 1
    beta: Optional[Expr] = None
    eta: Optional[OneForm] = None
    roots: list = field(default_factory=list)
    notes: str = ""


def _minor_quadratics(chart: Chart, S: Tensor):
    """2x2 minors of S - a g as quadratics [c0, c1, c2] in the unknown a.

    S and g are symmetric, so the minor on rows (i, k) and columns (j, l)
    equals the one on rows (j, l) and columns (i, k): only the minors with
    (i, k) <= (j, l) are built, in the order of a loop over rows, then
    columns."""
    n, g = chart.n, chart.g
    pairs = itertools.combinations(range(n), 2)
    for (i, k), (j, l) in itertools.combinations_with_replacement(pairs, 2):
        c0 = S[i, j] * S[k, l] - S[i, l] * S[k, j]
        c1 = -(S[i, j] * g[k, l] + g[i, j] * S[k, l]
               - S[i, l] * g[k, j] - g[i, l] * S[k, j])
        c2 = g[i, j] * g[k, l] - g[i, l] * g[k, j]
        yield [c0, c1, c2]


def _common_roots(quadratics) -> Optional[list[Expr]]:
    """The common roots in the expression field of quadratics [c0, c1, c2]
    in a, or None when they have no common root or all of them vanish.

    A common root a gives the solution (u, v) = (a, a^2) of the rows
    c1 u + c2 v = -c0.  An inconsistent system has no common root.  A
    unique solution gives one exactly when v = u^2.  A one-dimensional
    family means every quadratic is a multiple of one, whose roots these
    are ([] when they are not in the expression field).
    """
    quadratics = [q for q in quadratics if not all(c.is_zero for c in q)]
    if not quadratics:
        return None
    ctx = quadratics[0][0].ctx
    space = solve_linear_system((({0: c1, 1: c2}, -c0)
                                 for c0, c1, c2 in quadratics), 2, ctx)
    if not space.consistent:
        return None
    if space.is_unique:
        u, v = space.particular
        return [u] if (v - u * u).is_zero else None
    return solve_scalar_roots(quadratics[0])


def solve_scalar_roots(coeffs: list[Expr]) -> list[Expr]:
    """Roots, within the expression field, of c0 + c1 a + c2 a^2."""
    c0, c1, c2 = coeffs
    if c2.is_zero:
        return [] if c1.is_zero else [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    root = disc.sqrt()
    if root is None:
        return []
    half = 1 / (2 * c2)
    roots = [(-c1 + root) * half]
    if not root.is_zero:
        roots.append((-c1 - root) * half)
    return roots


def factor_rank_one(chart: Chart, Z: Tensor) -> Optional[tuple[Expr, OneForm]]:
    """Write a symmetric rank<=1 tensor as beta * eta (x) eta.

    Pivots on the first nonvanishing diagonal entry; the gauge is
    eta = pivot row, beta = 1/Z_pp.  Returns None for Z = 0.
    """
    n = chart.n
    for p in range(n):
        if not Z[p, p].is_zero:
            eta = OneForm(chart, [Z[p, i] for i in range(n)])
            return 1 / Z[p, p], eta
    return None


def solve_quasi_einstein(chart: Chart) -> QuasiEinsteinResult:
    """Find a scalar a with rank(S - a g) <= 1 and factor the remainder.

    The vanishing of all 2x2 minors of S - a g is a family of quadratics in
    a; their common roots come from one linear solve (_common_roots).
    Roots outside the expression field are reported as absent.
    """
    S = ricci(chart)
    kappa = scalar_curvature(chart)
    n = chart.n
    einstein_a = kappa / n
    shifted = S - chart.g.scaled(einstein_a)
    if shifted.is_zero():
        return QuasiEinsteinResult(found=True, einstein=True, alpha=einstein_a,
                                   beta=chart.ctx.zero,
                                   eta=oneform(chart, [0] * n),
                                   roots=[einstein_a],
                                   notes="Einstein: S = (kappa/n) g")
    roots = _common_roots(_minor_quadratics(chart, S))
    if roots is None:
        return QuasiEinsteinResult(found=False,
                                   notes="no common root of the minor system")
    if not roots:
        return QuasiEinsteinResult(
            found=False, roots=[],
            notes="minor-system roots are not in the expression field")
    roots.sort(key=str)
    for a in roots:
        Z = S - chart.g.scaled(a)
        if not rank_at_most(Z, 1):
            continue
        factored = factor_rank_one(chart, Z)
        if factored is None:
            continue
        beta, eta = factored
        return QuasiEinsteinResult(found=True, alpha=a, beta=beta, eta=eta,
                                   roots=roots)
    return QuasiEinsteinResult(found=False, roots=roots,
                               notes="no root yields a factorable rank-1 part")


def quasi_einstein_verdicts(chart: Chart, tensors) -> list[ClassifierVerdict]:
    """quasi_einstein, certified by S = alpha g + beta eta (x) eta on the
    upper triangle when the chart is quasi-Einstein but not Einstein."""
    qe = solve_quasi_einstein(chart)
    verdict = ClassifierVerdict("quasi_einstein", qe.found, witness=qe,
                                notes=qe.notes)
    if qe.found and not qe.einstein:
        S, g, n = ricci(chart), chart.g, chart.n
        rows = [({0: g[i, j], 1: qe.eta[i] * qe.eta[j]}, S[i, j])
                for i in range(n) for j in range(i, n)]
        values = [qe.alpha, qe.beta]
        verdict.identity = certify(
            "quasi_einstein", rows, values,
            SolutionSpace(names=("alpha", "beta"), particular=values,
                          ctx=chart.ctx))
    return [verdict]


# ---------------------------------------------------------------------------
# Torseforming vector fields.
# ---------------------------------------------------------------------------


@dataclass
class TorseformingResult:
    found: bool
    a: Optional[Expr] = None
    tau: Optional[OneForm] = None
    recurrent: Optional[bool] = None
    proper_concircular: Optional[bool] = None
    concircular: Optional[bool] = None      # None = undecided
    convergent: Optional[bool] = None       # None = undecided
    potential: Optional[Expr] = None        # h with dh = tau, when found
    isotropic: Optional[bool] = None        # g(V, V) = 0
    notes: str = ""


def nabla_vector(chart: Chart, V: Sequence[Expr]) -> Tensor:
    """The (1,1) tensor (nabla V)[k, i] = d_i V^k + Gamma^k_{i a} V^a,
    contravariant index first."""
    n = chart.n

    def terms():
        for k in range(n):
            for i in range(n):
                d = V[k].diff(i)
                if not d.is_zero:
                    yield (k, i), d
        for (k, i, a), gam in christoffel(chart).nonzero_items():
            if not V[a].is_zero:
                yield (k, i), gam * V[a]

    return Tensor.from_terms(chart, (1, 1), terms())


def check_torseforming(chart: Chart, V: Sequence[Expr]) -> TorseformingResult:
    """Solve nabla_X V = a X + tau(X) V for the scalar a and 1-form tau.

    Subclassifies where decidable: recurrent (a = 0), proper concircular
    (tau closed); a non-closed tau decides concircular negatively, and a
    gradient potential within the expression field decides it positively.
    """
    ctx, n = chart.ctx, chart.n
    V = [ctx.parse(v) if isinstance(v, str) else v for v in V]
    if all(v.is_zero for v in V):
        raise ValueError("torseforming check needs a nonzero vector field")
    grad = nabla_vector(chart, V)

    def rows():
        for i in range(n):
            for k in range(n):
                coeffs: dict[int, Expr] = {}
                if i == k:
                    coeffs[0] = ctx.one
                if not V[k].is_zero:
                    coeffs[1 + i] = V[k]
                yield coeffs, grad[k, i]

    names = ("a",) + tuple(f"tau_{c}" for c in ctx.coords)
    space = solve_linear_system(rows(), n + 1, ctx, names)
    if not space.consistent:
        return TorseformingResult(found=False,
                                  notes="not torseforming: residual system "
                                        "inconsistent")
    # Non-unique (a, tau) can only happen for degenerate V; the solver's
    # particular solution is deterministic, so report that representative.
    a = space.particular[0]
    tau = OneForm(chart, space.particular[1:])
    closed = is_closed(chart, tau)
    result = TorseformingResult(found=True, a=a, tau=tau,
                                recurrent=a.is_zero,
                                proper_concircular=closed)
    norm = ctx.zero
    for (i, j), gij in chart.g.nonzero_items():
        norm = norm + gij * V[i] * V[j]
    result.isotropic = norm.is_zero
    if not closed:
        result.concircular = False
        result.convergent = False
        return result
    if tau.is_zero():
        result.concircular = True
        result.potential = ctx.zero
        result.convergent = a.is_constant()
        return result
    h = gradient_potential(chart, tau)
    if h is not None:
        result.concircular = True
        result.potential = h
        exp_h = _exp_of(h)
        if exp_h is not None:
            # convergent means a is a constant multiple of e^h; decidable
            # whenever e^h lies in the expression field.
            result.convergent = (a / exp_h).is_constant()
    return result


def _exp_of(h: Expr) -> Optional[Expr]:
    """e^h within the expression field: h must be an integer-coefficient
    linear combination of coordinates."""
    ctx = h.ctx
    terms = h.polynomial_terms()
    if terms is None:
        return None
    n = len(ctx.coords)
    out = ctx.one
    for monom, k in terms:
        active = [pos for pos, e in enumerate(monom) if e]
        if len(active) != 1 or active[0] >= n or monom[active[0]] != 1:
            return None
        if k.denominator != 1:
            return None
        out = out * ctx.exponential(active[0], int(k))
    return out


def gradient_potential(chart: Chart, tau: OneForm) -> Optional[Expr]:
    """Best-effort h with dh = tau inside the expression field.

    Handles the separated case where each component depends only on its own
    coordinate and is a polynomial in that coordinate and its exponential;
    returns None when undecided.
    """
    ctx, n = chart.ctx, chart.n
    if not is_closed(chart, tau):
        return None
    total = ctx.zero
    for i in range(n):
        comp = tau[i]
        if comp.is_zero:
            continue
        for j in range(n):
            if j != i and not comp.diff(j).is_zero:
                return None
        piece = _integrate_single_coordinate(comp, i)
        if piece is None:
            return None
        total = total + piece
    return total


def _integrate_single_coordinate(e: Expr, i: int) -> Optional[Expr]:
    ctx = e.ctx
    terms = e.polynomial_terms()
    if terms is None:
        return None
    xpos, tpos = i, len(ctx.coords) + i
    acc = ctx.zero
    for monom, coeff in terms:
        kx, kt = monom[xpos], monom[tpos]
        if kx and kt:
            return None  # mixed x * exp(x) monomials need integration by parts
        rest_expr = ctx.term([0 if p in (xpos, tpos) else m
                              for p, m in enumerate(monom)], coeff)
        if kt:
            piece = rest_expr * ctx.exponential(i, kt) * Fraction(1, kt)
        else:
            piece = rest_expr * ctx.coordinate(i) ** (kx + 1) \
                * Fraction(1, kx + 1)
        acc = acc + piece
    return acc


# ---------------------------------------------------------------------------
# Weak symmetry vs Deszcz pseudosymmetry: the curvature identity and the
# rank-one decompositions behind it.
# ---------------------------------------------------------------------------


def compute_J(chart: Chart, pi: OneForm) -> Tensor:
    """J = pi (x) pi - nabla pi as a (0,2) tensor."""
    return _outer(pi, pi) - covariant_derivative_oneform(chart, pi)


def theorem_residual(chart: Chart, T: Union[Tensor, str], alpha: OneForm,
                     pi: OneForm) -> Tensor:
    """Residual of the weak-symmetry curvature identity

        R . T - 2 d(alpha) (x) T - Q(pi (x) pi - nabla pi, T),

    which vanishes identically for every genuine solution of
    nabla T = alpha (x) T - pi_X . T (with this package's exterior-derivative
    normalization).
    """
    RT = dot_named(chart, "R", T)
    da2 = exterior_derivative_oneform(chart, alpha).scaled(2)
    QJT = tachibana_named(chart, compute_J(chart, pi), T)
    return RT - QJT - _outer(named_tensor(chart, T), da2)


def theorem_verdicts(chart: Chart, tensors) -> list[ClassifierVerdict]:
    """theorem_identity[T] for each tensor with a Chaki solution phi: the
    curvature identity for alpha = 2 phi, pi = phi."""
    verdicts = []
    for tname in tensors:
        chaki = solve_chaki(chart, tname)
        if not chaki.consistent or chaki.degenerate:
            continue
        phi = OneForm(chart, chaki.space.particular[:chart.n])
        alpha = OneForm(chart, [2 * p for p in phi])
        residual = theorem_residual(chart, tname, alpha, phi)
        verdicts.append(ClassifierVerdict(
            f"theorem_identity[{tname}]", residual.is_zero(),
            notes="R.T = 2 d(2phi) (x) T + Q(J,T) for the Chaki 1-form"))
    return verdicts


@dataclass
class RankOneDecomposition:
    found: bool
    L1: Optional[Expr] = None
    L2: Optional[Expr] = None
    notes: str = ""


def corollary_decomposition(chart: Chart, B: Tensor, H: Tensor
                            ) -> RankOneDecomposition:
    """Solve B = L1 (L2 g - H) ^ (L2 g - H) for scalar functions L1, L2.

    Expanding gives a linear solve for (u, v, w) = (L1 L2^2, -2 L1 L2, L1)
    against the generators g^g, g^H, H^H, plus the consistency quadric
    v^2 = 4 u w.  When the linear family is positive-dimensional the quadric
    is solved along the family (up to one free parameter).
    """
    ctx = chart.ctx
    if B.is_zero():
        return RankOneDecomposition(True, L1=ctx.zero, L2=None,
                                    notes="degenerate: B = 0, any L2 with "
                                          "L1 = 0")
    g = chart.g
    gens = [named_tensor(chart, "g^g"), kulkarni_nomizu(g, H),
            kulkarni_nomizu(H, H)]
    space = solve_linear_combination(B, gens, names=("u", "v", "w"))
    if not space.consistent:
        return RankOneDecomposition(False, notes="B is outside the span of "
                                                 "g^g, g^H, H^H")
    candidates: list[tuple[Expr, Expr, Expr]] = []
    if space.is_unique:
        u, v, w = space.particular
        candidates.append((u, v, w))
    elif space.dimension == 1:
        u0, v0, w0 = space.particular
        u1, v1, w1 = space.basis[0]
        # (v0 + s v1)^2 = 4 (u0 + s u1)(w0 + s w1): quadratic in s.
        c0 = v0 * v0 - 4 * u0 * w0
        c1 = 2 * v0 * v1 - 4 * (u0 * w1 + u1 * w0)
        c2 = v1 * v1 - 4 * u1 * w1
        if c0.is_zero and c1.is_zero and c2.is_zero:
            candidates.append((u0, v0, w0))
        else:
            for s in solve_scalar_roots([c0, c1, c2]):
                candidates.append((u0 + s * u1, v0 + s * v1, w0 + s * w1))
    else:
        return RankOneDecomposition(
            False, notes="linear family has dimension > 1; quadric search "
                         "not attempted")
    for u, v, w in candidates:
        if w.is_zero:
            continue
        if not (v * v - 4 * u * w).is_zero:
            continue
        L1 = w
        L2 = -v / (2 * w)
        D = g.scaled(L2) - H
        if (kulkarni_nomizu(D, D).scaled(L1)) == B:
            return RankOneDecomposition(True, L1=L1, L2=L2)
    return RankOneDecomposition(False,
                                notes="no expression-field solution of the "
                                      "rank-one quadric")
