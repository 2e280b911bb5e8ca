"""Exact linear algebra over the expression field.

Every pseudosymmetry-type classifier reduces to an (often very overdetermined)
linear system whose coefficients are canonical expressions.  Rows are kept
sparse and reduced incrementally against a maintained, fully reduced echelon
basis, so one pass over a new row's pivot columns reduces it; pivoting is by
fixed column order so results are deterministic.  solve_linear_system is the
one solver and the program's one elimination.  It answers Deszcz
proportionality (the one unknown L), Roter-type and other linear
combinations of tensors, the 1-forms of the weak-symmetry family, the common
roots of the quasi-Einstein minor quadratics, the generic rank of a rank-2
tensor (n minus the dimension of its kernel) and membership in a solution
space; only the metric's determinant and inverse are cofactor expansions
(charts).  The solution set is returned as an affine space: one particular
solution plus a basis of the homogeneous kernel.  Every verdict that rests on
a solve is certified by certify(), the one back-substitution guard: the
solution is back-substituted into the rows it came from, and the rows are
kept as an Identity for the randomized oracle (see zoo).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

from .exprs import Context, Expr

#: Rows an Identity keeps for the oracle.
MAX_IDENTITY_COMPONENTS = 48


class InternalInconsistencyError(RuntimeError):
    """A solver output failed its own back-substitution check."""


@dataclass
class SolutionSpace:
    """Affine solution set of a linear system over the expression field.

    consistent=False means the system has no solution; particular and basis
    are then empty.  Every member is particular + a combination of basis
    vectors with expression coefficients.
    """

    names: tuple[str, ...]
    particular: list[Expr] = field(default_factory=list)
    basis: list[list[Expr]] = field(default_factory=list)
    consistent: bool = True
    ctx: Optional[Context] = None
    free_columns: list[int] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def is_unique(self) -> bool:
        return self.consistent and not self.basis

    def contains(self, vector: Sequence[Expr]) -> bool:
        """Affine membership: vector - particular lies in span(basis)."""
        if not self.consistent or len(vector) != len(self.names):
            return False
        residual = [v - p for v, p in zip(vector, self.particular)]
        if not self.basis:
            return all(r.is_zero for r in residual)

        def rows():
            for i, r in enumerate(residual):
                yield {k: b[i] for k, b in enumerate(self.basis)}, r

        return solve_linear_system(rows(), len(self.basis),
                                   self.ctx).consistent


@dataclass
class Identity:
    """One certified linear identity: sum_j coeff_j * value_j = rhs, per row.

    rows hold (coefficient-map, rhs) pairs exactly as the generating linear
    system produced them; values is the certified solution vector.  The
    oracle checks each retained row at random points of F_p by evaluating
    coefficients, values and rhs independently.
    """

    name: str
    rows: list
    values: list


def solve_linear_system(rows: Iterable[tuple[dict[int, Expr], Expr]],
                        n_unknowns: int,
                        ctx: Context,
                        names: Optional[Sequence[str]] = None) -> SolutionSpace:
    """Solve a sparse linear system  sum_j M[i][j] u_j = rhs[i].

    rows yields (coefficients, rhs) pairs with coefficients as a sparse
    {column: Expr} mapping.  Returns the full affine solution set, or an
    inconsistent SolutionSpace.  names, one per unknown, default to u0,
    u1, ...; a names of another length is a ValueError.
    """
    if names is None:
        names = tuple(f"u{j}" for j in range(n_unknowns))
    else:
        names = tuple(names)
        if len(names) != n_unknowns:
            raise ValueError(f"{len(names)} names for {n_unknowns} unknowns")

    # pivots: column -> reduced row (dict incl. rhs under key n_unknowns).
    RHS = n_unknowns
    pivots: dict[int, dict[int, Expr]] = {}
    seen: set = set()
    inconsistent = False

    for coeffs, rhs in rows:
        row = {j: c for j, c in coeffs.items() if not c.is_zero}
        if not rhs.is_zero:
            row[RHS] = rhs
        if not row:
            continue
        key = frozenset(row.items())
        if key in seen:
            continue
        seen.add(key)
        row = _reduce_row(row, pivots, RHS)
        if not row:
            continue
        if RHS in row and len(row) == 1:
            inconsistent = True
            break
        col = min(j for j in row if j != RHS)
        inv = 1 / row[col]
        row = {j: ctx.one if j == col else c * inv for j, c in row.items()}
        # Keep the basis fully reduced.
        for prow in pivots.values():
            c = prow.get(col)
            if c is not None and not c.is_zero:
                for j, v in row.items():
                    upd = prow.get(j, ctx.zero) - c * v
                    if upd.is_zero:
                        prow.pop(j, None)
                    else:
                        prow[j] = upd
        pivots[col] = row

    if inconsistent:
        return SolutionSpace(names=names, consistent=False, ctx=ctx)

    free_cols = [j for j in range(n_unknowns) if j not in pivots]
    particular = [ctx.zero] * n_unknowns
    for col, row in pivots.items():
        particular[col] = row.get(RHS, ctx.zero)
    basis = []
    for f in free_cols:
        vec = [ctx.zero] * n_unknowns
        vec[f] = ctx.one
        for col, row in pivots.items():
            c = row.get(f)
            if c is not None and not c.is_zero:
                vec[col] = -c
        basis.append(vec)
    return SolutionSpace(names=names, particular=particular,
                         basis=basis, ctx=ctx, free_columns=free_cols)


def _reduce_row(row: dict[int, Expr], pivots: dict[int, dict[int, Expr]],
                rhs_col: int) -> dict[int, Expr]:
    """row minus its multiples of the pivot rows, in one pass: the basis is
    fully reduced, so subtracting a pivot row brings in no other pivot
    column."""
    for col in list(row):
        prow = pivots.get(col) if col != rhs_col else None
        if prow is None:
            continue
        factor = row[col]
        for j, v in prow.items():
            upd = row.get(j)
            upd = -factor * v if upd is None else upd - factor * v
            if upd.is_zero:
                row.pop(j, None)
            else:
                row[j] = upd
    return row


def satisfies(rows: Iterable[tuple[dict[int, Expr], Expr]],
              vector: Sequence[Expr], homogeneous: bool = False) -> bool:
    """Back-substitution: every row's residual sum_j coeff_j vector_j - rhs
    vanishes (with rhs taken as zero when homogeneous)."""
    for coeffs, rhs in rows:
        acc = rhs.ctx.zero if homogeneous else -rhs
        for j, c in coeffs.items():
            if not c.is_zero and not vector[j].is_zero:
                acc = acc + c * vector[j]
        if not acc.is_zero:
            return False
    return True


def certify(name: str, rows: Iterable[tuple[dict[int, Expr], Expr]],
            values: Sequence[Expr], guard: Optional[SolutionSpace] = None,
            kept: Optional[Sequence[tuple[dict[int, Expr], Expr]]] = None
            ) -> Identity:
    """The identity that certifies verdict `name`: the rows kept, with
    values.  kept defaults to the first MAX_IDENTITY_COMPONENTS rows of
    rows that have a coefficient or a nonzero rhs, as the kept rows of a
    classifier's solve are (see classifiers._solve).  A stored zero
    coefficient counts, so a kept row reads 0 = 0 only when its builder
    stores zero coefficients: the solver rows of the classifiers store
    none, the dense quasi_einstein rows do.

    With a guard space (a consistent one), its particular solution and
    every basis vector are first back-substituted into every row of rows,
    which hold the kept rows, and by linearity that certifies every member
    of the space (InternalInconsistencyError, naming the verdict, on a
    nonzero residual).
    """
    rows = list(rows)
    if kept is None:
        kept = islice((row for row in rows if row[0] or not row[1].is_zero),
                      MAX_IDENTITY_COMPONENTS)
    if guard is not None:
        if not satisfies(rows, guard.particular):
            raise InternalInconsistencyError(
                f"{name}: particular solution fails back-substitution")
        if not all(satisfies(rows, vec, homogeneous=True)
                   for vec in guard.basis):
            raise InternalInconsistencyError(
                f"{name}: homogeneous basis vector fails back-substitution")
    return Identity(name, list(kept), list(values))
