"""Linear solver over the expression field."""

import random

import pytest

from curvzoo import linsolve
from curvzoo.exprs import Context
from curvzoo.linsolve import (InternalInconsistencyError, certify,
                              solve_linear_system)


@pytest.fixture(scope="module")
def ctx():
    return Context(["x1", "x2"])


def dense_rows(matrix, rhs):
    """The sparse rows of the dense system matrix . u = rhs."""
    return [({j: c for j, c in enumerate(mrow)}, r)
            for mrow, r in zip(matrix, rhs)]


def solve_dense(matrix, rhs, ctx):
    return solve_linear_system(dense_rows(matrix, rhs),
                               len(matrix[0]) if matrix else 0, ctx)


def test_identity_system(ctx):
    rhs = [ctx.parse("x1"), ctx.parse("exp(x2)"), ctx.parse("3/4")]
    matrix = [[ctx.integer(int(i == j)) for j in range(3)] for i in range(3)]
    space = solve_dense(matrix, rhs, ctx)
    assert space.is_unique
    assert space.particular == rhs


def test_rank_one_kernel(ctx):
    # [x1, t2] . (u, v) = 0 has kernel spanned by (t2, -x1) (up to scale).
    x1, t2 = ctx.parse("x1"), ctx.parse("exp(x2)")
    space = solve_dense([[x1, t2]], [ctx.zero], ctx)
    assert space.consistent and space.dimension == 1
    assert space.contains([t2, -x1])
    assert not space.contains([t2, x1])


def test_inconsistent(ctx):
    space = solve_dense([[ctx.zero]], [ctx.one], ctx)
    assert not space.consistent
    assert not space.particular and not space.basis


def test_names_must_match_the_unknowns(ctx):
    rows = dense_rows([[ctx.one, ctx.one, ctx.one]], [ctx.one])
    for names in (["a"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError):
            solve_linear_system(rows, 3, ctx, names)
    space = solve_linear_system(rows, 3, ctx, ["a", "b", "c"])
    assert space.names == ("a", "b", "c")
    assert space.dimension == 2


def test_overdetermined_consistent(ctx):
    x1 = ctx.parse("x1")
    matrix = [[ctx.one, x1], [2 * ctx.one, 2 * x1], [ctx.one, ctx.zero]]
    rhs = [x1 + 1, 2 * (x1 + 1), ctx.one]
    space = solve_dense(matrix, rhs, ctx)
    assert space.is_unique
    assert space.particular == [ctx.one, ctx.one]


def test_random_systems_roundtrip(ctx):
    rng = random.Random(23)
    pool = [ctx.parse(s) for s in
            ("0", "1", "x1", "exp(x2)", "x1+1", "2", "x2", "1/(x1+2)")]
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        matrix = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        solution = [rng.choice(pool) for _ in range(n)]
        rhs = []
        for row in matrix:
            acc = ctx.zero
            for c, s in zip(row, solution):
                acc = acc + c * s
            rhs.append(acc)
        space = solve_dense(matrix, rhs, ctx)
        assert space.consistent
        assert space.contains(solution)
        certify("roundtrip", dense_rows(matrix, rhs), space.particular,
                space)


def test_verify_catches_corruption(ctx):
    x1 = ctx.parse("x1")
    space = solve_dense([[ctx.one]], [x1], ctx)
    space.particular[0] = x1 + 1
    with pytest.raises(InternalInconsistencyError,
                       match="^corrupt: particular solution fails "
                             "back-substitution$"):
        certify("corrupt", [({0: ctx.one}, x1)], space.particular, space)


def test_identity_keeps_the_first_rows_with_a_term(ctx):
    # By default the identity keeps the first MAX_IDENTITY_COMPONENTS rows
    # with a coefficient or a nonzero rhs, in order; given kept rows, it
    # keeps exactly those.
    x1 = ctx.parse("x1")
    space = solve_dense([[ctx.one]], [x1], ctx)
    row = ({0: ctx.one}, x1)
    rows = [({}, ctx.zero)] + [row] * (linsolve.MAX_IDENTITY_COMPONENTS + 1)
    identity = certify("first", rows, space.particular, space)
    assert identity.rows == [row] * linsolve.MAX_IDENTITY_COMPONENTS
    assert all(kept is row for kept in identity.rows)
    negated = ({0: -ctx.one}, -x1)
    assert certify("given", rows + [negated], space.particular, space,
                   [negated]).rows == [negated]


def test_guard_covers_kept_rows_off_the_solved_ones(ctx):
    # A kept row after the solved ones is back-substituted too: the guard
    # reads every row of rows.
    x1 = ctx.parse("x1")
    space = solve_dense([[ctx.one]], [x1], ctx)
    solved = [({0: ctx.one}, x1)]
    negated = ({0: -ctx.one}, -x1)
    assert certify("negated", solved + [negated], space.particular, space,
                   [negated] + solved).rows == [negated] + solved
    wrong = ({0: ctx.one}, x1 + 1)
    with pytest.raises(InternalInconsistencyError,
                       match="^wrong: particular solution fails"):
        certify("wrong", solved + [wrong], space.particular, space,
                solved + [wrong])


def test_duplicate_rows_skipped(ctx):
    x1 = ctx.parse("x1")
    rows = [({0: ctx.one, 1: x1}, x1)] * 50 + [({1: ctx.one}, ctx.one)]
    space = solve_linear_system(iter(rows), 2, ctx, names=("u", "v"))
    assert space.is_unique
    assert space.particular == [ctx.zero, ctx.one]
    assert space.names == ("u", "v")


def test_one_pass_clears_every_pivot_column(ctx, monkeypatch):
    # The basis is kept fully reduced, so a single pass of _reduce_row over
    # a new row leaves none of the basis's pivot columns in it.
    reduce_row = linsolve._reduce_row
    passes = []

    def checked(row, pivots, rhs_col):
        row = reduce_row(row, pivots, rhs_col)
        passes.append(len(pivots))
        assert not [j for j in row if j in pivots]
        return row

    monkeypatch.setattr(linsolve, "_reduce_row", checked)
    rng = random.Random(31)
    pool = [ctx.parse(s) for s in
            ("1", "-1", "x1", "exp(x2)", "x1+1", "2", "x2", "1/(x1+2)",
             "x1*x2 - 3")]
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [({j: rng.choice(pool) for j in range(n)
                  if rng.random() < 0.7}, rng.choice(pool + [ctx.zero]))
                for _ in range(rng.randint(1, 8))]
        space = solve_linear_system(rows, n, ctx)
        if space.consistent:
            certify("random", rows, space.particular, space)
    assert max(passes) >= 3
