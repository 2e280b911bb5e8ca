"""Linear solver over the expression field."""

import random

import pytest

from curvzoo.exprs import Context
from curvzoo.linsolve import (InternalInconsistencyError, solve_dense,
                              solve_linear_system, verify_solution_space)


@pytest.fixture(scope="module")
def ctx():
    return Context(["x1", "x2"])


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
        rows = [({j: c for j, c in enumerate(row)}, r)
                for row, r in zip(matrix, rhs)]
        verify_solution_space(space, rows)


def test_verify_catches_corruption(ctx):
    x1 = ctx.parse("x1")
    space = solve_dense([[ctx.one]], [x1], ctx)
    space.particular[0] = x1 + 1
    with pytest.raises(InternalInconsistencyError):
        verify_solution_space(space, [({0: ctx.one}, x1)])


def test_duplicate_rows_skipped(ctx):
    x1 = ctx.parse("x1")
    rows = [({0: ctx.one, 1: x1}, x1)] * 50 + [({1: ctx.one}, ctx.one)]
    space = solve_linear_system(iter(rows), 2, ctx, names=("u", "v"))
    assert space.is_unique
    assert space.particular == [ctx.zero, ctx.one]
    assert space.names == ("u", "v")
