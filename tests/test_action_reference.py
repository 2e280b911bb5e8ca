"""Dual-route check of the sparse tensor kernels.

The shipped kulkarni_nomizu, covariant_derivative, dot_action, tachibana
and oneform_dot walk nonzero supports, form each product once and scatter
it.  These reference implementations transcribe the defining displays
directly (component by component, slot by slot, no rearrangement);
agreement on random tensors over a curved chart certifies the kernels.
For operands that declare slot symmetries, covariant_derivative,
dot_action and tachibana compute orbit representatives only and fill the
rest by sign; agreement with the reference loops on such operands
certifies that the results inherit those symmetries.
"""

import random

import numpy as np
import pytest

from curvzoo.charts import (CURVATURE_SYMMETRIES, Tensor, build_chart,
                            christoffel, covariant_derivative,
                            lowered_to_operator, oneform, riemann, zeros)
from curvzoo.operators import (dot_action, kulkarni_nomizu, oneform_dot,
                               tachibana)


@pytest.fixture(scope="module")
def chart():
    # Small dimension keeps the reference loops affordable; off-diagonal
    # metric entries exercise the endomorphism lift.
    return build_chart(["x1", "x2", "x3"],
                       [["x1", "1", "0"],
                        ["1", "x1", "0"],
                        ["0", "0", "exp(x1)"]], name="curved3")


def random_tensor(chart, k, rng):
    pool = ["0", "0", "1", "x1", "exp(x1)", "-1", "x2", "2", "x3"]
    arr = zeros(chart.ctx, (chart.n,) * k)
    for idx in np.ndindex(arr.shape):
        arr[idx] = chart.ctx.parse(rng.choice(pool))
    return Tensor(chart, (0, k), arr)


def endomorphism_of(B):
    """(B(e_h, e_l) e_i)^a = Bhat[a, h, l, i], the fourth-slot lift."""
    return lowered_to_operator(B)


def reference_dot(B, T):
    chart = B.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    Bhat = endomorphism_of(B)
    out = zeros(ctx, (n,) * (k + 2))
    for idx in np.ndindex(out.shape):
        I, h, l = idx[:k], idx[k], idx[k + 1]
        acc = ctx.zero
        for m in range(k):
            for a in range(n):
                acc = acc - Bhat[a, h, l, I[m]] * \
                    T.array[I[:m] + (a,) + I[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 2), out)


def reference_tachibana(A, T):
    chart = A.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    out = zeros(ctx, (n,) * (k + 2))
    for idx in np.ndindex(out.shape):
        I, h, l = idx[:k], idx[k], idx[k + 1]
        acc = ctx.zero
        for m in range(k):
            # (X wedge_A Y) X_m = A(Y, X_m) X - A(X, X_m) Y with X = e_h,
            # Y = e_l; insert at slot m and contract against T.
            acc = acc - (A.array[l, I[m]] * T.array[I[:m] + (h,) + I[m + 1:]]
                         - A.array[h, I[m]] * T.array[I[:m] + (l,) + I[m + 1:]])
        out[idx] = acc
    return Tensor(chart, (0, k + 2), out)


def reference_oneform_dot(mu, T):
    chart = mu.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    out = zeros(ctx, (n,) * (k + 1))
    for idx in np.ndindex(out.shape):
        I, h = idx[:k], idx[k]
        acc = ctx.zero
        for m in range(k):
            acc = acc - mu[I[m]] * T.array[I[:m] + (h,) + I[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 1), out)


def reference_kulkarni_nomizu(A, D):
    """(A ^ D)(X1,X2,Y1,Y2) = A(X1,Y2) D(X2,Y1) + A(X2,Y1) D(X1,Y2)
                            - A(X1,Y1) D(X2,Y2) - A(X2,Y2) D(X1,Y1)."""
    chart = A.chart
    out = zeros(chart.ctx, (chart.n,) * 4)
    for i, j, k, l in np.ndindex(out.shape):
        out[i, j, k, l] = (A[i, l] * D[j, k] + A[j, k] * D[i, l]
                           - A[i, k] * D[j, l] - A[j, l] * D[i, k])
    return Tensor(chart, (0, 4), out)


def reference_nabla(T):
    """(nabla T)[x, J] = d_x T[J] - sum_m sum_a Gamma^a_{x J_m} T[J: a at m].
    """
    chart = T.chart
    n, k = chart.n, T.valence[1]
    gamma = christoffel(chart)
    out = zeros(chart.ctx, (n,) * (k + 1))
    for idx in np.ndindex(out.shape):
        x, J = idx[0], idx[1:]
        acc = T[J].diff(x)
        for m in range(k):
            for a in range(n):
                acc = acc - gamma[a, x, J[m]] * T[J[:m] + (a,) + J[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 1), out)


@pytest.mark.parametrize("seed", range(4))
def test_kulkarni_nomizu_matches_reference(chart, seed):
    # Non-symmetric factors: the four terms are not interchangeable.
    rng = random.Random(400 + seed)
    A, D = random_tensor(chart, 2, rng), random_tensor(chart, 2, rng)
    assert A != A.permuted((1, 0))
    assert kulkarni_nomizu(A, D) == reference_kulkarni_nomizu(A, D)
    assert kulkarni_nomizu(A, A) == reference_kulkarni_nomizu(A, A)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_covariant_derivative_matches_reference(chart, k):
    rng = random.Random(500 + k)
    for _ in range(2):
        T = random_tensor(chart, k, rng)
        assert covariant_derivative(chart, T) == reference_nabla(T)


@pytest.mark.parametrize("k", [2, 3])
def test_dot_action_matches_reference(chart, k):
    rng = random.Random(100 + k)
    from curvzoo.charts import riemann
    B = riemann(chart)
    for _ in range(3):
        T = random_tensor(chart, k, rng)
        assert dot_action(B, T) == reference_dot(B, T)


@pytest.mark.parametrize("k", [2, 3])
def test_tachibana_matches_reference(chart, k):
    rng = random.Random(200 + k)
    for _ in range(3):
        A = random_tensor(chart, 2, rng)
        T = random_tensor(chart, k, rng)
        assert tachibana(A, T) == reference_tachibana(A, T)


def test_oneform_dot_matches_reference(chart):
    rng = random.Random(300)
    mu = oneform(chart, ["x1", "0", "exp(x1)"])
    for k in (1, 2, 3):
        T = random_tensor(chart, k, rng)
        assert oneform_dot(mu, T) == reference_oneform_dot(mu, T)


def test_dot_action_on_synthetic_curvature(chart):
    # A Kulkarni-Nomizu square is a generalized curvature tensor; the action
    # routes must agree on it as well (nontrivial lift through g_inv).
    from curvzoo.operators import kulkarni_nomizu
    rng = random.Random(17)
    A = random_tensor(chart, 2, rng)
    sym = zeros(chart.ctx, (3, 3))
    for i in range(3):
        for j in range(3):
            sym[i, j] = A.array[i, j] + A.array[j, i]
    B = kulkarni_nomizu(Tensor(chart, (0, 2), sym),
                        chart.metric_tensor())
    T = random_tensor(chart, 2, rng)
    assert dot_action(B, T) == reference_dot(B, T)


def random_symmetric(chart, rng):
    T = random_tensor(chart, 2, rng)
    arr = zeros(chart.ctx, (chart.n,) * 2)
    for (i, j), v in T.items():
        arr[i, j] = v + T[j, i]
    return Tensor(chart, (0, 2), arr, declared_symmetries=("sym:0,1",))


def declared_curvature(chart, rng):
    """An algebraic curvature tensor from random symmetric tensors, built
    with the reference product and declared through the constructor."""
    A, D, E = (random_symmetric(chart, rng) for _ in range(3))
    return (reference_kulkarni_nomizu(A, D)
            + reference_kulkarni_nomizu(E, E)).with_symmetries(
                CURVATURE_SYMMETRIES)


def operands_with_groups(chart, rng):
    return {"R": riemann(chart), "curvature": declared_curvature(chart, rng),
            "symmetric": random_symmetric(chart, rng)}


@pytest.mark.parametrize("which", ["R", "curvature", "symmetric"])
def test_kernels_on_operands_with_groups(chart, which):
    rng = random.Random(600)
    T = operands_with_groups(chart, rng)[which]
    assert T.declared_symmetries and not T.is_zero()
    k = T.rank
    nabla = covariant_derivative(chart, T)
    assert nabla == reference_nabla(T)
    assert nabla.declared_symmetries  # filled, not computed in full
    B, A = riemann(chart), random_tensor(chart, 2, rng)
    assert A != A.permuted((1, 0))
    for filled, reference in ((dot_action(B, T), reference_dot(B, T)),
                              (tachibana(A, T), reference_tachibana(A, T))):
        assert filled.declared_symmetries == (
            T.declared_symmetries + (f"skew:{k},{k + 1}",))
        assert filled == reference
