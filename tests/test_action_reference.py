"""Dual-route check of the sparse tensor kernels.

The shipped kulkarni_nomizu, covariant_derivative, dot_action, tachibana
and oneform_dot walk nonzero supports, form each product once and scatter
it.  These reference implementations transcribe the defining displays
directly (component by component, slot by slot, no rearrangement);
agreement on random tensors over a curved chart certifies the kernels.
The curvature pipeline (Gamma, R, S, kappa, S2) walks supports as well and
is checked against dense index loops over every component of the metric
and its inverse on every builtin and on two charts with off-diagonal metrics.
For operands that declare slot symmetries, covariant_derivative,
dot_action, tachibana and oneform_dot compute orbit representatives only
and fill the rest by sign; agreement with the reference loops on such
operands certifies that the results inherit those symmetries.
"""

import itertools
import random
from fractions import Fraction

import pytest

from curvzoo.charts import (CURVATURE_SIGN, CURVATURE_SYMMETRIES, Tensor,
                            build_chart, christoffel, covariant_derivative,
                            lowered_to_operator, oneform, ricci,
                            ricci_square, riemann, scalar_curvature)
from curvzoo.metrics import builtin, list_builtins
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


def every_index(n, rank):
    """Every index of a rank-`rank` tensor on n coordinates, in order."""
    return itertools.product(range(n), repeat=rank)


def g_inv(chart, i, j):
    """(g^-1)[i, j], read from the chart's row index of nonzero entries."""
    return chart.g_inv_rows[i].get(j, chart.ctx.zero)


def random_tensor(chart, k, rng):
    pool = ["0", "0", "1", "x1", "exp(x1)", "-1", "x2", "2", "x3"]
    return Tensor(chart, (0, k), {
        idx: chart.ctx.parse(rng.choice(pool))
        for idx in every_index(chart.n, k)})


def endomorphism_of(B):
    """(B(e_h, e_l) e_i)^a = Bhat[a, h, l, i], the fourth-slot lift."""
    return lowered_to_operator(B)


def reference_dot(B, T):
    chart = B.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    Bhat = endomorphism_of(B)
    out = {}
    for idx in every_index(n, k + 2):
        I, h, l = idx[:k], idx[k], idx[k + 1]
        acc = ctx.zero
        for m in range(k):
            for a in range(n):
                acc = acc - Bhat[a, h, l, I[m]] * T[I[:m] + (a,) + I[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 2), out)


def reference_tachibana(A, T):
    chart = A.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    out = {}
    for idx in every_index(n, k + 2):
        I, h, l = idx[:k], idx[k], idx[k + 1]
        acc = ctx.zero
        for m in range(k):
            # (X wedge_A Y) X_m = A(Y, X_m) X - A(X, X_m) Y with X = e_h,
            # Y = e_l; insert at slot m and contract against T.
            acc = acc - (A[l, I[m]] * T[I[:m] + (h,) + I[m + 1:]]
                         - A[h, I[m]] * T[I[:m] + (l,) + I[m + 1:]])
        out[idx] = acc
    return Tensor(chart, (0, k + 2), out)


def reference_oneform_dot(mu, T):
    chart = mu.chart
    ctx, n = chart.ctx, chart.n
    k = T.valence[1]
    out = {}
    for idx in every_index(n, k + 1):
        I, h = idx[:k], idx[k]
        acc = ctx.zero
        for m in range(k):
            acc = acc - mu[I[m]] * T[I[:m] + (h,) + I[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 1), out)


def reference_kulkarni_nomizu(A, D):
    """(A ^ D)(X1,X2,Y1,Y2) = A(X1,Y2) D(X2,Y1) + A(X2,Y1) D(X1,Y2)
                            - A(X1,Y1) D(X2,Y2) - A(X2,Y2) D(X1,Y1)."""
    chart = A.chart
    out = {}
    for i, j, k, l in every_index(chart.n, 4):
        out[i, j, k, l] = (A[i, l] * D[j, k] + A[j, k] * D[i, l]
                           - A[i, k] * D[j, l] - A[j, l] * D[i, k])
    return Tensor(chart, (0, 4), out)


def reference_nabla(T):
    """(nabla T)[x, J] = d_x T[J] - sum_m sum_a Gamma^a_{x J_m} T[J: a at m].
    """
    chart = T.chart
    n, k = chart.n, T.valence[1]
    gamma = christoffel(chart)
    out = {}
    for idx in every_index(n, k + 1):
        x, J = idx[0], idx[1:]
        acc = T[J].diff(x)
        for m in range(k):
            for a in range(n):
                acc = acc - gamma[a, x, J[m]] * T[J[:m] + (a,) + J[m + 1:]]
        out[idx] = acc
    return Tensor(chart, (0, k + 1), out)


@pytest.mark.parametrize("seed", range(4))
def test_kulkarni_nomizu_matches_reference(chart, seed):
    # Symmetric factors, A != D and A = D; a factor that is not symmetric
    # is rejected, since the product is formed at the representatives of
    # the curvature symmetries that symmetric factors give it.
    rng = random.Random(400 + seed)
    A, D = random_symmetric(chart, rng), random_symmetric(chart, rng)
    assert A != D
    assert kulkarni_nomizu(A, D) == reference_kulkarni_nomizu(A, D)
    assert kulkarni_nomizu(A, A) == reference_kulkarni_nomizu(A, A)
    skewed = random_tensor(chart, 2, rng)
    assert skewed != skewed.permuted((1, 0))
    with pytest.raises(ValueError, match="must be symmetric"):
        kulkarni_nomizu(skewed, D)


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
    sym = {(i, j): A[i, j] + A[j, i] for i in range(3) for j in range(3)}
    B = kulkarni_nomizu(Tensor(chart, (0, 2), sym),
                        chart.metric_tensor())
    T = random_tensor(chart, 2, rng)
    assert dot_action(B, T) == reference_dot(B, T)


def random_symmetric(chart, rng):
    T = random_tensor(chart, 2, rng)
    return Tensor(chart, (0, 2),
                  {(i, j): v + T[j, i] for (i, j), v in T.items()},
                  declared_symmetries=("sym:0,1",))


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
    mu = oneform(chart, ["x1", "0", "exp(x1)"])
    acted = oneform_dot(mu, T)
    assert acted.declared_symmetries == T.declared_symmetries
    assert acted == reference_oneform_dot(mu, T)


def reference_christoffel(chart):
    """Gamma[k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    ctx, n, g = chart.ctx, chart.n, chart.g
    gamma = {}
    for k, i, j in every_index(n, 3):
        acc = ctx.zero
        for l in range(n):
            acc = acc + g_inv(chart, k, l) * (
                g[j, l].diff(i) + g[i, l].diff(j) - g[i, j].diff(l))
        gamma[k, i, j] = Fraction(1, 2) * acc
    return Tensor(chart, (1, 2), gamma)


def reference_riemann(chart, gamma):
    """R[i,j,k,l] = CURVATURE_SIGN g_lm (d_i G^m_jk - d_j G^m_ik
    + G^m_ia G^a_jk - G^m_ja G^a_ik)."""
    ctx, n, g = chart.ctx, chart.n, chart.g
    out = {}
    for i, j, k, l in every_index(n, 4):
        acc = ctx.zero
        for m in range(n):
            upper = gamma[m, j, k].diff(i) - gamma[m, i, k].diff(j)
            for a in range(n):
                upper = upper + (gamma[m, i, a] * gamma[a, j, k]
                                 - gamma[m, j, a] * gamma[a, i, k])
            acc = acc + g[l, m] * upper
        out[i, j, k, l] = CURVATURE_SIGN * acc
    return Tensor(chart, (0, 4), out)


def reference_ricci(chart, R):
    """S[i,j] = g^{ab} R[a,i,j,b]."""
    ctx, n = chart.ctx, chart.n
    out = {}
    for i, j in every_index(n, 2):
        acc = ctx.zero
        for a in range(n):
            for b in range(n):
                acc = acc + g_inv(chart, a, b) * R[a, i, j, b]
        out[i, j] = acc
    return Tensor(chart, (0, 2), out)


def reference_scalar_curvature(chart, S):
    """kappa = g^{ij} S_ij."""
    acc = chart.ctx.zero
    for i, j in every_index(chart.n, 2):
        acc = acc + g_inv(chart, i, j) * S[i, j]
    return acc


def reference_ricci_square(chart, S):
    """S2[i,j] = S[i,a] g^{ab} S[b,j]."""
    ctx, n = chart.ctx, chart.n
    out = {}
    for i, j in every_index(n, 2):
        acc = ctx.zero
        for a in range(n):
            for b in range(n):
                acc = acc + S[i, a] * g_inv(chart, a, b) * S[b, j]
        out[i, j] = acc
    return Tensor(chart, (0, 2), out)


#: Charts beyond the builtins: coordinates, metric rows and parameters.
OFF_DIAGONAL_CHARTS = {
    "godel": (["x1", "x2", "x3", "x4"],
              [["-a^2", "0", "0", "0"],
               ["0", "1/2*a^2*exp(2*x1)", "0", "a^2*exp(x1)"],
               ["0", "0", "-a^2", "0"],
               ["0", "a^2*exp(x1)", "0", "a^2"]], ["a"]),
    # Exponential and polynomial atoms in one off-diagonal block.
    "mixed_block": (["x1", "x2", "x3", "x4"],
                    [["1", "x3*exp(x1)", "0", "0"],
                     ["x3*exp(x1)", "x2", "0", "0"],
                     ["0", "0", "x1", "0"],
                     ["0", "0", "0", "1"]], []),
}


@pytest.mark.parametrize("name", list_builtins() + list(OFF_DIAGONAL_CHARTS))
def test_curvature_pipeline_matches_dense_loops(name):
    if name in OFF_DIAGONAL_CHARTS:
        coords, metric, params = OFF_DIAGONAL_CHARTS[name]
        chart = build_chart(coords, metric, params=params, name=name)
    else:
        chart = builtin(name).to_chart()
    gamma = reference_christoffel(chart)
    assert christoffel(chart) == gamma
    R = reference_riemann(chart, gamma)
    assert riemann(chart) == R
    S = reference_ricci(chart, R)
    assert ricci(chart) == S
    assert scalar_curvature(chart) == reference_scalar_curvature(chart, S)
    assert ricci_square(chart) == reference_ricci_square(chart, S)
    assert R.is_zero() == name.startswith("flat")
