"""Symmetry classifiers: Chaki/Deszcz/weak-symmetry solvers and friends."""

import itertools
from fractions import Fraction

import pytest

from curvzoo import classifiers
from curvzoo.charts import (Tensor, build_chart, oneform, ricci, riemann,
                            scalar_curvature)
from curvzoo.classifiers import (_combination_system, _common_roots,
                                 _cyclic3_system, _minor_quadratics,
                                 _slot_system, _solve,
                                 generalized_roter_generators,
                                 roter_generators,
                                 check_semisymmetric,
                                 check_torseforming,
                                 classify_deszcz, compute_J,
                                 corollary_decomposition,
                                 form_recurrence_b4, form_recurrence_checks,
                                 is_codazzi, is_cyclic_parallel,
                                 normalize_weak_solution, solve_chaki,
                                 solve_linear_combination,
                                 solve_quasi_einstein,
                                 solve_recurrence, solve_weak_Z,
                                 solve_weak_symmetry_04, theorem_residual)
from curvzoo.linsolve import (MAX_IDENTITY_COMPONENTS,
                              InternalInconsistencyError, certify, satisfies,
                              solve_linear_system)
from curvzoo.metrics import builtin, list_builtins
from curvzoo.operators import (dot_action, dot_named, kulkarni_nomizu,
                               nabla_cached, named_tensor, projective,
                               tachibana, tachibana_named, weyl_conformal)
from curvzoo.zoo import ALL_TENSORS, classify


def delta_entries(n):
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


@pytest.fixture(scope="module")
def flat4():
    return build_chart(["x1", "x2", "x3", "x4"], delta_entries(4), name="flat4")


@pytest.fixture(scope="module")
def conformal4():
    return builtin("ex5_2").to_chart()


@pytest.fixture(scope="module")
def exp4():
    return builtin("ex5_4").to_chart()


@pytest.fixture(scope="module")
def exp5():
    return builtin("ex5_1").to_chart()


def componentwise_proportionality(lhs, rhs):
    """(outcome, L) of lhs = L rhs the way classify_deszcz reports it,
    found by pivoting on the first nonzero rhs component and checking the
    others: (None, None) when both vanish (the reference for
    classify_deszcz)."""
    if rhs.is_zero():
        return (None, None) if lhs.is_zero() else (False, None)
    idx, value = next(iter(rhs.nonzero_items()))
    L = lhs[idx] / value
    support = {i for T in (lhs, rhs) for i, _ in T.nonzero_items()}
    if all((lhs[i] - L * rhs[i]).is_zero for i in support):
        return True, L
    return False, None


class TestProportionality:
    def test_conformal_coefficient(self, conformal4):
        R = riemann(conformal4)
        g = conformal4.metric_tensor()
        space = solve_linear_combination(dot_action(R, R), [tachibana(g, R)])
        assert space.is_unique
        assert space.particular == [conformal4.ctx.parse("-1/(2*x1^3)")]

    def test_degenerate_and_none(self, flat4):
        ctx = flat4.ctx
        R = riemann(flat4)
        g = flat4.metric_tensor()
        both_zero = solve_linear_combination(dot_action(R, R),
                                             [tachibana(g, R)])
        assert both_zero.consistent and both_zero.dimension == 1  # L free
        D = Tensor(flat4, (0, 2), {(0, 0): ctx.parse("x1")})
        lhs = tachibana(g, kulkarni_nomizu(g, D))  # nonzero (0,6)
        assert not lhs.is_zero()
        assert not solve_linear_combination(lhs,
                                            [dot_action(R, R)]).consistent

    def test_every_component_verified(self, conformal4):
        # A tensor proportional at the pivot but not elsewhere is rejected.
        ctx, n = conformal4.ctx, conformal4.n
        g = conformal4.metric_tensor()
        rhs = kulkarni_nomizu(g, g)
        components = dict(rhs.nonzero_items())
        idx = (0, 1, 0, 2)
        components[idx] = rhs[idx] + ctx.one
        lhs = Tensor(conformal4, (0, 4), components)
        assert not solve_linear_combination(lhs, [rhs]).consistent


class TestSemisymmetric:
    def test_flat_semisymmetric(self, flat4):
        assert check_semisymmetric(flat4, "R")

    def test_conformal_not(self, conformal4):
        assert not check_semisymmetric(conformal4, "R")

    def test_weyl_acting_on_ricci(self):
        chart = builtin("ex5_5").to_chart()
        assert check_semisymmetric(chart, "S", acting="C")


class TestChaki:
    def test_exponential5_unique_constant_form(self, exp5):
        out = solve_chaki(exp5, "R")
        assert out.consistent and not out.degenerate
        assert out.space.is_unique
        ctx = exp5.ctx
        assert out.space.particular == \
            [ctx.parse("-1/2")] + [ctx.zero] * 4

    def test_exponential4_form(self, exp4):
        out = solve_chaki(exp4, "R")
        assert out.space.is_unique
        ctx = exp4.ctx
        assert out.space.particular[0] == \
            ctx.parse("-exp(x1)/(2*(exp(x1)+1))")
        assert all(e.is_zero for e in out.space.particular[1:])

    def test_conformal_not_chaki(self, conformal4):
        out = solve_chaki(conformal4, "R")
        assert not out.consistent and not out.degenerate

    def test_flat_degenerate(self, flat4):
        out = solve_chaki(flat4, "R")
        assert out.degenerate and out.degenerate_set == "U_L"


class TestDeszcz:
    def test_conformal_chart(self, conformal4):
        ctx = conformal4.ctx
        v = classify_deszcz(conformal4, "R", "g")
        assert v.outcome and v.witness == ctx.parse("-1/(2*x1^3)")
        v = classify_deszcz(conformal4, "R", "S")
        assert v.outcome and v.witness == ctx.one

    def test_exponential5_negative(self, exp5):
        assert classify_deszcz(exp5, "R", "g").outcome is False
        assert classify_deszcz(exp5, "R", "S").outcome is False

    def test_weyl_pseudosymmetry(self, exp5):
        v = classify_deszcz(exp5, "C", "g", acting="C")
        assert v.outcome
        assert v.witness == exp5.ctx.parse("-1/24 * exp(-x1)")

    def test_projective_acting_on_ricci(self):
        chart = builtin("ex5_5").to_chart()
        kappa = scalar_curvature(chart)
        v = classify_deszcz(chart, "S", "g", acting="P")
        assert v.outcome and v.witness == -kappa * Fraction(1, 4)

    def test_flat_degenerate(self, flat4):
        assert classify_deszcz(flat4, "R", "g").outcome is None

    @pytest.mark.parametrize("name", list_builtins())
    def test_matches_componentwise_proportionality(self, name):
        chart = builtin(name).to_chart()
        cases = [(t, w, "R", "") for t in ALL_TENSORS for w in ("g", "S")]
        if chart.n >= 4:
            cases.append(("C", "g", "C", "weyl_pseudosymmetric"))
        for T, W, acting, label in cases:
            v = classify_deszcz(chart, T, W, acting=acting, name=label)
            expected = componentwise_proportionality(
                dot_named(chart, acting, T), tachibana_named(chart, W, T))
            assert (v.outcome, v.witness) == expected, (T, W, acting)

    def test_tensor_operands_match_names_uncached(self):
        # Tensor operands take the same path as names but are not cached.
        chart = builtin("ex5_5").to_chart()
        named = classify_deszcz(chart, "S", "g", acting="P")
        S, g = ricci(chart), chart.metric_tensor()
        P, C = projective(chart), weyl_conformal(chart)
        cached = set(chart._cache)
        v = classify_deszcz(chart, S, g, acting=P)
        assert (v.name, v.outcome, v.witness) == (
            "deszcz[T;W]", named.outcome, named.witness)
        v = classify_deszcz(chart, S, "g", acting="P")
        assert (v.name, v.outcome, v.witness) == (
            "deszcz[T;g]", named.outcome, named.witness)
        assert check_semisymmetric(chart, S, acting=C)
        assert set(chart._cache) == cached


class TestFamilyInclusions:
    """Chaki and recurrence solutions are weak-symmetry (R) and weak-Z (S)
    solutions: (2 phi, phi, .., phi) and (pi, 0, .., 0)."""

    @pytest.mark.parametrize("name", list_builtins())
    @pytest.mark.parametrize("tname", ["R", "S"])
    def test_chaki_and_recurrence_solve_the_weak_rows(self, name, tname):
        chart = builtin(name).to_chart()
        n, zero = chart.n, chart.ctx.zero
        weak = (solve_weak_symmetry_04(chart, tname) if tname == "R"
                else solve_weak_Z(chart, tname).outcome)
        blocks = 5 if tname == "R" else 3
        chaki = solve_chaki(chart, tname)
        if chaki.consistent:
            phi = chaki.space.particular
            assert satisfies(weak.rows, [2 * p for p in phi]
                             + phi * (blocks - 1))
        rec = solve_recurrence(chart, tname)
        if rec.consistent:
            pi = rec.space.particular
            assert satisfies(weak.rows, pi + [zero] * (n * (blocks - 1)))

    def test_rows_follow_the_componentwise_conditions(self):
        # Distinct constant components on a flat chart: nabla T = 0, so
        # every row is consumed.  Each row, applied to distinct values of
        # the unknowns, must give the right side of its condition.
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        n, ctx = 3, chart.ctx

        def constant_tensor(k):
            indices = itertools.product(range(n), repeat=k)
            return Tensor(chart, (0, k), {
                idx: ctx.integer(v) for v, idx in enumerate(indices, start=1)})

        T, Z = constant_tensor(4), constant_tensor(2)
        u = list(range(2, 2 + 5 * n))
        a, b1, b2, b3, b4 = (u[m * n:(m + 1) * n] for m in range(5))
        cases = [
            (solve_chaki(chart, T).rows, 5, lambda x, i, j, k, l: (
                2 * a[x] * T[i, j, k, l] + a[i] * T[x, j, k, l]
                + a[j] * T[i, x, k, l] + a[k] * T[i, j, x, l]
                + a[l] * T[i, j, k, x])),
            (solve_weak_symmetry_04(chart, T).rows, 5, lambda x, i, j, k, l: (
                a[x] * T[i, j, k, l] + b1[i] * T[x, j, k, l]
                + b2[j] * T[i, x, k, l] + b3[k] * T[i, j, x, l]
                + b4[l] * T[i, j, k, x])),
            (solve_weak_Z(chart, Z).outcome.rows, 3, lambda x, i, j: (
                a[x] * Z[i, j] + b1[i] * Z[x, j] + b2[j] * Z[i, x])),
            (solve_recurrence(chart, Z).rows, 3,
             lambda x, i, j: a[x] * Z[i, j])]
        for rows, rank, condition in cases:
            indices = list(itertools.product(range(n), repeat=rank))
            assert len(rows) == len(indices)
            for (coeffs, rhs), idx in zip(rows, indices):
                assert rhs.is_zero
                assert sum((c * u[j] for j, c in coeffs.items()),
                           ctx.zero) == condition(*idx)


class TestWeakSymmetry:
    def test_exponential5_contains_chaki_point(self, exp5):
        ctx = exp5.ctx
        out = solve_weak_symmetry_04(exp5, "R")
        assert out.consistent and not out.degenerate
        phi = [ctx.parse("-1/2")] + [ctx.zero] * 4
        point = [2 * p for p in phi] + phi * 4
        assert out.space.contains(point)

    def test_normalization_reaches_chaki(self, exp5):
        ctx = exp5.ctx
        out = solve_weak_symmetry_04(exp5, "R")
        norm = normalize_weak_solution(exp5, out, "R")
        assert norm.pair_equalities_hold
        assert norm.chaki is not None
        eps = norm.chaki[1]
        assert list(eps) == [ctx.parse("-1/2")] + [ctx.zero] * 4
        # alpha block of the Chaki representative is 2 eps
        assert list(norm.chaki[0]) == [ctx.parse("-1")] + [ctx.zero] * 4

    def test_flat_degenerate(self, flat4):
        out = solve_weak_symmetry_04(flat4, "R")
        assert out.degenerate and out.degenerate_set == "U_J"

    def test_recurrent_tensor_is_degenerate_but_solvable(self, conformal4):
        # conh(R) is recurrent on the conformally flat chart: outside U_J,
        # yet the affine family exists and contains the recurrent point.
        ctx = conformal4.ctx
        out = solve_weak_symmetry_04(conformal4, "conh")
        assert out.degenerate and out.degenerate_set == "U_J"
        point = [ctx.parse("-3/x1")] + [ctx.zero] * 19
        assert out.space.contains(point)


class TestRecurrence:
    def test_flat_rescaled_metric_tensor(self, flat4):
        ctx = flat4.ctx
        e = ctx.parse("exp(x1)")
        Z = Tensor(flat4, (0, 2), {(i, i): e for i in range(4)})
        out = solve_recurrence(flat4, Z)
        assert out.consistent and not out.degenerate
        assert out.space.is_unique
        assert out.space.particular == [ctx.one] + [ctx.zero] * 3

    def test_exponential5_not_recurrent(self, exp5):
        out = solve_recurrence(exp5, "R")
        assert not out.consistent

    def test_parallel_outside_domain(self, flat4):
        out = solve_recurrence(flat4, "R")
        assert out.degenerate and out.degenerate_set == "U_L"


class TestWeakZ:
    def test_flat_rescaled_recurrent_point(self, flat4):
        ctx = flat4.ctx
        e = ctx.parse("exp(x1)")
        Z = Tensor(flat4, (0, 2), {(i, i): e for i in range(4)})
        wz = solve_weak_Z(flat4, Z)
        # Z-recurrent, hence outside U_Q, but the space must contain the
        # recurrent point (dx1, 0, 0).
        assert wz.outcome.degenerate and wz.outcome.degenerate_set == "U_Q"
        point = [ctx.one] + [ctx.zero] * 11
        assert wz.outcome.space.contains(point)

    def test_heisenberg_type_ricci(self):
        chart = builtin("ex5_5").to_chart()
        wz = solve_weak_Z(chart, "S")
        assert wz.cyclic_parallel
        assert not wz.codazzi
        # cyclic parallel, not parallel; Codazzi would force parallel.
        from curvzoo.classifiers import nabla_cached
        assert not nabla_cached(chart, "S").is_zero()

    def test_weakly_ricci_symmetric_reductions(self, exp4):
        wz = solve_weak_Z(exp4, "S")
        assert wz.outcome.consistent
        assert wz.reductions["averaged_point_solves"]
        assert wz.reductions["eta_equals_lambda"]


class TestFormRecurrence:
    def test_second_bianchi_gives_b1(self, conformal4, exp5):
        for chart in (conformal4, exp5):
            assert form_recurrence_checks(chart, "R")["b1"].outcome

    def test_conformal_witnesses(self, conformal4):
        ctx = conformal4.ctx
        expected = {"P": "-3/(2*x1)", "K": "-1/x1", "conh": "-3/x1"}
        for T, alpha in expected.items():
            bcs = form_recurrence_checks(conformal4, T)
            assert bcs["b1"].outcome is False
            assert bcs["b2"].outcome is False
            assert bcs["b3"].outcome is True
            space = bcs["b3"].witness
            assert space.is_unique
            assert space.particular[0] == ctx.parse(alpha)
            assert all(e.is_zero for e in space.particular[1:])

    def test_b4_witness(self, exp5):
        ctx = exp5.ctx
        v = form_recurrence_b4(exp5, "S")
        assert v.outcome and v.witness.is_unique
        assert v.witness.particular == [ctx.parse("-1/2")] + [ctx.zero] * 4

    def test_b4_fails_on_conformal(self, conformal4):
        assert form_recurrence_b4(conformal4, "S").outcome is False


class TestLinearCombination:
    def test_roter_family_conformal(self, conformal4):
        ctx = conformal4.ctx
        g = conformal4.metric_tensor()
        S = ricci(conformal4)
        gens = [kulkarni_nomizu(g, g), kulkarni_nomizu(g, S),
                kulkarni_nomizu(S, S)]
        space = solve_linear_combination(riemann(conformal4), gens,
                                         names=("N1", "N2", "N3"))
        assert space.consistent
        kappa = scalar_curvature(conformal4)
        point = [-kappa * Fraction(1, 12), ctx.parse("1/2"), ctx.zero]
        assert space.contains(point)

    def test_inconsistent(self, exp5):
        g = exp5.metric_tensor()
        S = ricci(exp5)
        gens = [kulkarni_nomizu(g, g), kulkarni_nomizu(g, S),
                kulkarni_nomizu(S, S)]
        space = solve_linear_combination(riemann(exp5), gens)
        assert not space.consistent

    def test_names_must_match_the_generators(self, conformal4):
        # A short names list would drop columns from the solve.
        gens, names = roter_generators(conformal4)
        R = riemann(conformal4)
        for wrong in (names[:1], names + ["N4"]):
            with pytest.raises(ValueError):
                solve_linear_combination(R, gens, names=wrong)
        space = solve_linear_combination(R, gens)
        assert space.names == ("u0", "u1", "u2")
        assert space.consistent


class TestQuasiEinstein:
    def test_rank_one_ricci(self):
        chart = builtin("ex5_3").to_chart()
        result = solve_quasi_einstein(chart)
        assert result.found and not result.einstein
        assert result.alpha.is_zero  # rank(S) = 1 directly
        n = chart.n
        S = ricci(chart)
        for i in range(n):
            for j in range(n):
                got = result.alpha * chart.g[i, j] \
                    + result.beta * result.eta[i] * result.eta[j]
                assert got == S[i, j]

    def test_heisenberg_type(self):
        chart = builtin("ex5_5").to_chart()
        kappa = scalar_curvature(chart)
        result = solve_quasi_einstein(chart)
        assert result.found
        assert result.alpha == kappa * Fraction(1, 2)

    def test_einstein_degenerate_branch(self, flat4):
        result = solve_quasi_einstein(flat4)
        assert result.found and result.einstein
        assert result.beta.is_zero

    def test_generic_not_quasi_einstein(self, exp5):
        # The 5-dim exponential chart has rank(S) = 3 > 1 off any a g shift.
        result = solve_quasi_einstein(exp5)
        assert not result.found


class TestCommonRoots:
    """Common roots of minor quadratics [c0, c1, c2] = c0 + c1 a + c2 a^2,
    through one linear solve in (u, v) = (a, a^2)."""

    @pytest.fixture
    def x(self, conformal4):
        return conformal4.ctx.parse("x1"), conformal4.ctx.parse("x2")

    def test_proportional_square_root_not_in_field(self, x):
        # a^2 - x1 three times over: a one-dimensional family, no root.
        x1, x2 = x
        one, zero = x1.ctx.one, x1.ctx.zero
        family = [[-x1, zero, one], [-2 * x1, zero, 2 * one],
                  [-x1 * x2, zero, x2]]
        assert _common_roots(family) == []

    def test_proportional_product_gives_both_roots(self, x):
        # (a - x1)(a - x2), scaled by 1, -3 and exp(x1).
        x1, x2 = x
        base = [x1 * x2, -(x1 + x2), x1.ctx.one]
        t = x1.ctx.exponential("x1")
        family = [base, [-3 * c for c in base], [t * c for c in base]]
        roots = _common_roots(family)
        assert len(roots) == 2 and set(roots) == {x1, x2}

    def test_two_quadratics_share_one_root(self, x):
        # (a - x1)(a - x2) and (a - x1)(a + 1): a unique solution, v = u^2.
        x1, x2 = x
        one = x1.ctx.one
        family = [[x1 * x2, -(x1 + x2), one], [-x1, one - x1, one]]
        assert _common_roots(family) == [x1]

    def test_linear_factors_without_common_root(self, x):
        # a - x1 and a - x2: u = x1 and u = x2 are inconsistent.
        x1, x2 = x
        one, zero = x1.ctx.one, x1.ctx.zero
        assert _common_roots([[-x1, one, zero], [-x2, one, zero]]) is None

    def test_unique_solution_off_the_parabola(self, x):
        # a^2 - x1 and a - x2: u = x2, v = x1, and x1 != x2^2.
        x1, x2 = x
        one, zero = x1.ctx.one, x1.ctx.zero
        assert _common_roots([[-x1, zero, one], [-x2, one, zero]]) is None

    def test_vanishing_family(self, x):
        zero = x[0].ctx.zero
        assert _common_roots([[zero] * 3] * 2) is None

    @pytest.mark.parametrize("name", list_builtins())
    def test_symmetric_half_of_the_minors(self, name):
        # The minors with row pair <= column pair keep every distinct
        # quadratic of all of them, the first nonzero one, and the roots.
        chart = builtin(name).to_chart()
        S, g, n = ricci(chart), chart.g, chart.n
        pairs = list(itertools.combinations(range(n), 2))
        every = [[S[i, j] * S[k, l] - S[i, l] * S[k, j],
                  -(S[i, j] * g[k, l] + g[i, j] * S[k, l]
                    - S[i, l] * g[k, j] - g[i, l] * S[k, j]),
                  g[i, j] * g[k, l] - g[i, l] * g[k, j]]
                 for i, k in pairs for j, l in pairs]
        half = list(_minor_quadratics(chart, S))
        assert len(half) == len(pairs) * (len(pairs) + 1) // 2
        assert {tuple(q) for q in half} == {tuple(q) for q in every}

        def nonzero(qs):
            return [q for q in qs if not all(c.is_zero for c in q)]

        assert nonzero(half)[:1] == nonzero(every)[:1]
        assert _common_roots(half) == _common_roots(every)


class TestExprSqrt:
    def test_square_detection(self, conformal4):
        ctx = conformal4.ctx
        e = ctx.parse("(x1+1)^2/(4*exp(2*x2))")
        root = e.sqrt()
        assert root is not None and root * root == e

    def test_non_square(self, conformal4):
        assert conformal4.ctx.parse("x1").sqrt() is None
        assert conformal4.ctx.parse("2").sqrt() is None

    def test_rational_square(self, conformal4):
        ctx = conformal4.ctx
        assert ctx.parse("9/4").sqrt() == ctx.parse("3/2")


class TestTorseforming:
    def test_flat_position_field(self, flat4):
        result = check_torseforming(flat4, ["x1", "x2", "x3", "x4"])
        assert result.found
        assert result.a.is_one and result.tau.is_zero()
        assert result.concircular and result.convergent
        assert not result.recurrent

    def test_parallel_field(self, flat4):
        result = check_torseforming(flat4, ["1", "0", "0", "0"])
        assert result.found and result.recurrent
        assert result.tau.is_zero()

    def test_conformal_radial_field(self, conformal4):
        # Oracle: direct Christoffel expansion for g = x1 delta gives
        # nabla_i (x1 d1)^k = (1/2) delta_i^k + (1/x1) delta_i^1 (x1 d1)^k.
        ctx = conformal4.ctx
        result = check_torseforming(conformal4, ["x1", "0", "0", "0"])
        assert result.found
        assert result.a == ctx.parse("1/2")
        assert list(result.tau) == [ctx.parse("1/x1")] + [ctx.zero] * 3
        assert result.proper_concircular
        assert not result.isotropic

    def test_not_torseforming(self, flat4):
        result = check_torseforming(flat4, ["x2", "x1", "0", "0"])
        assert not result.found

    def test_zero_rejected(self, flat4):
        with pytest.raises(ValueError):
            check_torseforming(flat4, ["0", "0", "0", "0"])


class TestTheoremResidual:
    def test_chaki_solutions_annihilate(self, exp5, exp4):
        for chart in (exp5, exp4):
            out = solve_chaki(chart, "R")
            phi = oneform(chart, out.space.particular)
            alpha = oneform(chart, [2 * p for p in phi])
            assert theorem_residual(chart, "R", alpha, phi).is_zero()

    def test_flat_trivial(self, flat4):
        ctx = flat4.ctx
        alpha = oneform(flat4, ["x1", "0", "0", "0"])  # closed
        pi = oneform(flat4, ["0", "0", "0", "0"])
        assert theorem_residual(flat4, "R", alpha, pi).is_zero()

    def test_recurrent_tensor_is_type_III(self, conformal4):
        # A recurrent tensor solves the general weak-symmetry form with
        # pi = 0 and alpha the recurrence 1-form, so the curvature identity
        # must hold for that pair too (not only for Chaki solutions).
        out = solve_recurrence(conformal4, "conh")
        assert out.consistent
        alpha = oneform(conformal4, out.space.particular)
        pi = oneform(conformal4, ["0"] * 4)
        assert theorem_residual(conformal4, "conh", alpha, pi).is_zero()

    def test_J_values(self, exp4):
        ctx = exp4.ctx
        out = solve_chaki(exp4, "R")
        phi = oneform(exp4, out.space.particular)
        H = compute_J(exp4, phi)
        assert H[0, 0] == ctx.parse("exp(x1)/(2*(1+exp(x1))^2)")
        for i in (1, 2, 3):
            assert H[i, i] == ctx.parse("exp(2*x1)/(4*(1+exp(x1))^2)")
        offdiag = [(i, j) for i in range(4) for j in range(4) if i != j]
        assert all(H[i, j].is_zero for i, j in offdiag)


class TestCorollaryDecomposition:
    def test_metric_shift_factorization(self, exp4):
        ctx = exp4.ctx
        out = solve_chaki(exp4, "R")
        phi = oneform(exp4, out.space.particular)
        H = compute_J(exp4, phi)
        dec = corollary_decomposition(exp4, riemann(exp4), H)
        assert dec.found
        assert dec.L1 == ctx.parse("2*(exp(x1)+1)^3/(exp(x1)-1)^2")
        assert dec.L2 == ctx.parse("1/(4*(1+exp(x1))^2)")

    def test_ricci_shift_factorization(self, exp4):
        ctx = exp4.ctx
        out = solve_chaki(exp4, "R")
        phi = oneform(exp4, out.space.particular)
        H = compute_J(exp4, phi)
        D2 = ricci(exp4) - H
        space = solve_linear_combination(riemann(exp4),
                                         [kulkarni_nomizu(D2, D2)])
        assert space.is_unique
        assert space.particular == [ctx.parse(
            "2*(exp(x1)+1)^3/(3+exp(x1))^2")]

    def test_flat_degenerate(self, flat4):
        H = flat4.metric_tensor()
        dec = corollary_decomposition(flat4, riemann(flat4), H)
        assert dec.found and dec.L1.is_zero


class TestNormalizationGuard:
    def test_doctored_space_rejected(self, exp5):
        out = solve_weak_symmetry_04(exp5, "R")
        out.space.particular[0] = out.space.particular[0] + 1
        with pytest.raises(InternalInconsistencyError):
            normalize_weak_solution(exp5, out, "R")


class TestCorollaryDegenerateFamily:
    def test_rank_one_H_gives_one_dim_family(self, flat4):
        # H of rank one has H^H = 0, so the linear solve for (u, v, w) is a
        # one-dimensional family and the rank-one quadric picks the point.
        ctx = flat4.ctx
        H = Tensor(flat4, (0, 2), {(0, 0): ctx.one})
        g = flat4.metric_tensor()
        x1 = ctx.parse("x1")
        D = g.scaled(x1) - H
        B = kulkarni_nomizu(D, D)
        dec = corollary_decomposition(flat4, B, H)
        assert dec.found
        assert dec.L1.is_one and dec.L2 == x1


class TestConvergentSubcase:
    def test_exponentially_weighted_field(self, flat4):
        # V = e^{x1} d1 in a flat chart: nabla_i V^k = e^{x1} d_i1 d^k1, so
        # a = 0, tau = dx1: recurrent, with potential h = x1 in the field.
        ctx = flat4.ctx
        result = check_torseforming(flat4, ["exp(x1)", "0", "0", "0"])
        assert result.found and result.recurrent
        assert list(result.tau) == [ctx.one] + [ctx.zero] * 3
        assert result.concircular and result.potential == ctx.parse("x1")
        # a = 0 = 0 * e^h, so the convergent test is decidable and positive.
        assert result.convergent is True


class TestGradientPotential:
    def test_polynomial_and_exponential_components(self, flat4):
        from curvzoo.classifiers import gradient_potential
        ctx = flat4.ctx
        tau = oneform(flat4, ["x1^2", "exp(2*x2)", "0", "0"])
        h = gradient_potential(flat4, tau)
        assert h is not None
        for i in range(4):
            assert h.diff(i) == tau[i]

    def test_undecided_outside_field(self, flat4):
        from curvzoo.classifiers import gradient_potential
        # 1/x1 integrates to a logarithm, which is outside the field.
        tau = oneform(flat4, ["1/x1", "0", "0", "0"])
        assert gradient_potential(flat4, tau) is None


class TestCodazziCyclic:
    def test_metric_is_codazzi_and_cyclic(self, conformal4):
        g = conformal4.metric_tensor()
        assert is_codazzi(conformal4, g)
        assert is_cyclic_parallel(conformal4, g)

    def test_heisenberg_ricci(self):
        chart = builtin("ex5_5").to_chart()
        assert is_cyclic_parallel(chart, "S")
        assert not is_codazzi(chart, "S")

    def test_hessian_is_codazzi_not_cyclic(self, flat4):
        # Z = Hess(x1^3 / 6) on a flat chart: nabla Z = d^3 f is totally
        # symmetric and nonzero, so its cyclic sum is 3 d^3 f.
        ctx = flat4.ctx
        Z = Tensor(flat4, (0, 2), {(0, 0): ctx.parse("x1")})
        assert is_codazzi(flat4, Z)
        assert not is_cyclic_parallel(flat4, Z)

    def test_conformal_ricci_neither(self, conformal4):
        assert not is_codazzi(conformal4, "S")
        assert not is_cyclic_parallel(conformal4, "S")


# ---------------------------------------------------------------------------
# Solves at orbit representatives against the whole systems.
# ---------------------------------------------------------------------------


def plain(T):
    """A copy of T that declares no symmetries."""
    return Tensor.from_terms(T.chart, T.valence, T.nonzero_items())


def full_combination_rows(target, generators):
    """Every row of target = sum_i c_i generator_i where some operand is
    nonzero, in index order, with no symmetry group."""
    support = sorted({idx for T in (target, *generators)
                      for idx, _ in T.nonzero_items()})
    return [({i: g[idx] for i, g in enumerate(generators)
              if not g[idx].is_zero}, target[idx]) for idx in support]


def full_slot_rows(chart, T, nablaT, first, blocks):
    """Every row of nabla_x T_I = first a_x T_I + sum_m b_{blocks[m]}(I_m)
    T_{I[m->x]} where a term is nonzero, in index order, with no symmetry
    group; the columns whose terms cancel are dropped."""
    n, rows = chart.n, []
    for idx in itertools.product(range(n), repeat=T.rank + 1):
        x, I = idx[0], idx[1:]
        coeffs = {}
        for col, v in [(x, first * T[I])] + [
                (b * n + I[m], T[I[:m] + (x,) + I[m + 1:]])
                for m, b in enumerate(blocks)]:
            coeffs[col] = coeffs[col] + v if col in coeffs else v
        coeffs = {col: c for col, c in coeffs.items() if not c.is_zero}
        live = [T[I]] + [T[I[:m] + (x,) + I[m + 1:]]
                         for m in range(len(blocks))] + [nablaT[idx]]
        if not all(v.is_zero for v in live):
            rows.append((coeffs, nablaT[idx]))
    return rows


def full_cyclic3_rows(chart, T, nablaT):
    """Every row of alpha_h T_ijkl + alpha_i T_jhkl + alpha_j T_hikl =
    nabla_h T_ijkl + nabla_i T_jhkl + nabla_j T_hikl where a term or the
    rhs is nonzero, in index order, with no symmetry group; the columns
    whose terms cancel are dropped."""
    rows = []
    for h, i, j, k, l in itertools.product(range(chart.n), repeat=5):
        terms = [(h, T[i, j, k, l]), (i, T[j, h, k, l]), (j, T[h, i, k, l])]
        rhs = (nablaT[h, i, j, k, l] + nablaT[i, j, h, k, l]
               + nablaT[j, h, i, k, l])
        coeffs = {}
        for col, v in terms:
            coeffs[col] = coeffs[col] + v if col in coeffs else v
        coeffs = {col: c for col, c in coeffs.items() if not c.is_zero}
        if not all(v.is_zero for _, v in terms) or not rhs.is_zero:
            rows.append((coeffs, rhs))
    return rows


def kept_rows(rows):
    """The first MAX_IDENTITY_COMPONENTS of rows with a coefficient or a
    nonzero rhs: the rows an identity of a solve over every row keeps."""
    return [row for row in rows
            if row[0] or not row[1].is_zero][:MAX_IDENTITY_COMPONENTS]


def spy_solves(monkeypatch):
    """Record each _solve as (group, {index: row read}, outcome), reading
    every row through a wrapper that fails on a second read."""
    solves, solve = [], classifiers._solve

    def spied(chart, system, names, outside=""):
        group, indices, row_at = system
        reads = {}

        def counted(idx):
            assert idx not in reads, idx
            row = reads[idx] = row_at(idx)
            return row

        out = solve(chart, (group, indices, counted), names, outside)
        solves.append((group, reads, out))
        return out

    monkeypatch.setattr(classifiers, "_solve", spied)
    return solves


def same_space(a, b):
    return (a.consistent == b.consistent and a.particular == b.particular
            and a.basis == b.basis and a.free_columns == b.free_columns)


def combination_systems(chart):
    """(target, generators) of the Deszcz, Weyl and Roter solves."""
    systems = [(dot_named(chart, "R", T), [tachibana_named(chart, W, T)])
               for T in ("R", "S", "C", "P") for W in ("g", "S")]
    systems.append((dot_named(chart, "C", "C"),
                    [tachibana_named(chart, "g", "C")]))
    for generators, _ in (roter_generators(chart),
                          generalized_roter_generators(chart)):
        systems.append((riemann(chart), generators))
    # A target outside the span: R against g^g alone; and operands that
    # declare different groups (P declares none), whose rows all stay.
    systems.append((riemann(chart), [named_tensor(chart, "g^g")]))
    systems.append((riemann(chart), [named_tensor(chart, "P")]))
    systems.append((named_tensor(chart, "P"), [riemann(chart)]))
    return systems


class TestRepresentativeRows:
    """Rows restricted to orbit representatives give the whole system's
    solution space, and the identities keep the whole system's rows."""

    @pytest.mark.parametrize("name", list_builtins())
    def test_combination_solves_match_full_solves(self, name):
        chart = builtin(name).to_chart()
        for target, generators in combination_systems(chart):
            group, indices, row_at = _combination_system(target, generators)
            full = full_combination_rows(target, generators)
            assert [row_at(idx) for idx in indices] == full
            solved = list(filter(group.is_representative, indices))
            if len({T.declared_symmetries
                    for T in (target, *generators)}) == 1:
                assert len(solved) < len(full) or not full
            else:
                assert solved == indices
            space = solve_linear_combination(target, generators)
            assert same_space(space, solve_linear_combination(
                plain(target), [plain(g) for g in generators]))
            assert same_space(space, solve_linear_system(
                full, len(generators), chart.ctx))

    def test_inconsistent_restricted_solve(self, conformal4):
        # A perturbed target, refilled by its group, leaves the span.
        R = riemann(conformal4)
        items = dict(R.representative_items())
        idx = next(iter(items))
        items[idx] = items[idx] + conformal4.ctx.one
        bent = Tensor.from_terms(conformal4, (0, 4), items.items(),
                                 R.declared_symmetries)
        generators, _ = roter_generators(conformal4)
        assert solve_linear_combination(R, generators).consistent
        space = solve_linear_combination(bent, generators)
        assert not space.consistent
        assert same_space(space, solve_linear_combination(
            plain(bent), [plain(g) for g in generators]))

    @pytest.mark.parametrize("name", list_builtins())
    def test_slot_solves_match_full_solves(self, name):
        chart = builtin(name).to_chart()
        names = tuple(f"phi_{c}" for c in chart.ctx.coords)
        for tname in ("R", "S", "C"):
            T, nablaT = named_tensor(chart, tname), nabla_cached(chart, tname)
            for first, blocks in ((2, (0,) * T.rank), (1, ())):
                system = _slot_system(chart, T, nablaT, first, blocks)
                assert len(system[0].elements) > 1
                out = _solve(chart, system, names)
                full_system = _slot_system(chart, plain(T), plain(nablaT),
                                           first, blocks)
                assert len(full_system[0].elements) == 1
                full = _solve(chart, full_system, names)
                assert same_space(out.space, full.space)
                reference = full_slot_rows(chart, T, nablaT, first, blocks)
                assert same_space(out.space, solve_linear_system(
                    reference, chart.n, chart.ctx))
                if not out.space.consistent:
                    continue  # the solver stopped at the inconsistency
                assert len(out.rows) < len(full.rows) or not full.rows
                # The kept rows are the whole system's first rows with a
                # coefficient or a nonzero rhs, in index order, also for
                # the recurrence solve, which is not certified.
                assert out.kept == kept_rows(reference)

    @pytest.mark.parametrize("name", list_builtins())
    def test_cyclic3_solves_match_full_solves(self, name):
        # The b1-b3 system of each (0,4) tensor reads the same row at every
        # index as the system of copies that declare no group, whose group
        # is the shift alone (R, C, K and conh add their shifted pair
        # skew), and b2 and b3, solved at its representatives, have the
        # spaces of the solves over every row.
        chart = builtin(name).to_chart()
        names = tuple(f"alpha_{c}" for c in chart.ctx.coords)
        zero = chart.ctx.zero
        for tname in ("R", "C", "K", "conh", "P"):
            T, nablaT = named_tensor(chart, tname), nabla_cached(chart, tname)
            group, indices, row_at = _cyclic3_system(
                chart, T, nablaT, nablaT.cyclic_sum())
            bare, bare_nabla = plain(T), plain(nablaT)
            plain_group, plain_indices, plain_row_at = _cyclic3_system(
                chart, bare, bare_nabla, bare_nabla.cyclic_sum())
            assert len(plain_group.elements) == 3
            assert len(group.elements) == (3 if tname == "P" else 6)
            assert indices == plain_indices
            for idx in itertools.product(range(chart.n), repeat=5):
                assert row_at(idx) == plain_row_at(idx), (tname, idx)
            full = full_cyclic3_rows(chart, T, nablaT)
            assert [row_at(idx) for idx in indices] == full
            if T.is_zero():
                continue
            checks = form_recurrence_checks(chart, tname)
            hom = solve_linear_system([(coeffs, zero) for coeffs, _ in full],
                                      chart.n, chart.ctx, names)
            assert checks["b2"].outcome == (hom.dimension >= 1)
            if checks["b2"].outcome:
                assert same_space(checks["b2"].witness, hom)
            space = solve_linear_system(full, chart.n, chart.ctx, names)
            assert checks["b3"].outcome == space.consistent
            if space.consistent:
                assert same_space(checks["b3"].witness, space)

    @pytest.mark.parametrize("name", [f"ex5_{k}" for k in range(1, 6)])
    def test_b2_keeps_the_full_systems_rows(self, name, monkeypatch):
        # b2's homogeneous solve is not certified, but when consistent it
        # keeps the whole system's first rows with a coefficient, some of
        # them off its group's representatives.
        chart = builtin(name).to_chart()
        zero = chart.ctx.zero
        solves = spy_solves(monkeypatch)
        off_kept = 0
        for tname in ("R", "C", "K", "conh", "P"):
            T, nablaT = named_tensor(chart, tname), nabla_cached(chart, tname)
            if T.is_zero():
                continue
            del solves[:]
            form_recurrence_checks(chart, tname)
            group, reads, hom = solves[0]  # b2 solves first, then b3
            full = full_cyclic3_rows(chart, T, nablaT)
            assert hom.consistent
            assert hom.kept == kept_rows([(coeffs, zero)
                                          for coeffs, _ in full])
            at = {id(row): idx for idx, row in reads.items()}
            off_kept += sum(not group.is_representative(at[id(row)])
                            for row in hom.kept)
        assert off_kept

    @pytest.mark.parametrize("name", list_builtins())
    def test_identities_keep_the_full_systems_rows(self, name):
        # Each identity is the first rows of the whole system, in index
        # order, as when every row was built and solved.
        chart = builtin(name).to_chart()
        report = classify(chart, tensors=ALL_TENSORS, run_oracle=False)
        checked = 0
        for identity in report.identities:
            label, _, args = identity.name.partition("[")
            args = args.rstrip("]").split(";")
            if label == "deszcz":
                T, W = args
                rows = full_combination_rows(
                    dot_named(chart, "R", T), [tachibana_named(chart, W, T)])
            elif label == "weyl_pseudosymmetric":
                rows = full_combination_rows(
                    dot_named(chart, "C", "C"),
                    [tachibana_named(chart, "g", "C")])
            elif label in ("roter", "generalized_roter"):
                generators, _ = (roter_generators if label == "roter"
                                 else generalized_roter_generators)(chart)
                rows = full_combination_rows(riemann(chart), generators)
            elif label == "chaki":
                T = named_tensor(chart, args[0])
                rows = full_slot_rows(chart, T, nabla_cached(chart, args[0]),
                                      2, (0,) * T.rank)
            elif label == "b3":
                rows = full_cyclic3_rows(chart, named_tensor(chart, args[0]),
                                         nabla_cached(chart, args[0]))
            else:
                continue
            n_unknowns = len(identity.values)
            space = solve_linear_system(rows, n_unknowns, chart.ctx)
            expected = certify(identity.name, rows, space.particular)
            assert identity.rows == expected.rows, identity.name
            assert identity.values == expected.values, identity.name
            checked += 1
        assert checked >= 1

    def test_kept_rows_reuse_the_solved_rows_in_index_order(self, flat4):
        # (0, 1) represents the orbit {(0, 1), (1, 0)} under "sym:0,1".  The
        # solve builds the representatives' rows, then walks every index in
        # order for the kept rows, reusing those rows and building the row
        # at (1, 0) once.  rows hold every row built, the solved ones
        # first.  Each read gives a fresh row.
        ctx = flat4.ctx
        x1 = ctx.coordinate(0)
        group = Tensor.from_terms(flat4, (0, 2), (),
                                  ("sym:0,1",)).symmetry_group
        rows = {(0, 0): ({0: ctx.one}, ctx.one), (0, 1): ({0: x1}, x1),
                (1, 0): ({0: x1}, x1), (1, 1): ({0: ctx.one}, ctx.one)}
        read = []

        def row_at(idx):
            read.append(idx)
            coeffs, rhs = rows[idx]
            return dict(coeffs), rhs

        system = (group, list(rows), row_at)
        out = _solve(flat4, system, ("u",))
        assert read == [(0, 0), (0, 1), (1, 1), (1, 0)]
        assert out.kept == list(rows.values())
        assert all(kept is built for kept, built in
                   zip(out.kept, [out.rows[k] for k in (0, 1, 3, 2)]))
        # The guard back-substitutes into the kept row off the
        # representatives.
        rows[1, 0] = ({0: x1}, x1 + 1)
        with pytest.raises(InternalInconsistencyError,
                           match="^toy: particular solution fails"):
            classifiers._outcome_verdict("toy", _solve(flat4, system,
                                                       ("u",)))

    @pytest.mark.parametrize("name", list_builtins())
    def test_few_rows_built_off_the_representatives(self, name,
                                                    monkeypatch):
        # A system builds each row at most once, b2 and b3 sharing theirs,
        # and rows off its group's representatives in index order.  Each
        # solve reads each row at most once, and each row off the
        # representatives only for its kept rows: none past its last kept
        # row once it keeps MAX_IDENTITY_COMPONENTS rows.
        built = []

        def counting(builder):
            def counted_builder(*args):
                group, indices, row_at = builder(*args)
                reads = []
                built.append((builder.__name__, group, reads))

                def counted(idx):
                    reads.append(idx)
                    return row_at(idx)

                return group, indices, counted
            return counted_builder

        for builder in ("_combination_system", "_slot_system",
                        "_cyclic3_system"):
            monkeypatch.setattr(classifiers, builder,
                                counting(getattr(classifiers, builder)))
        solves = spy_solves(monkeypatch)
        chart = builtin(name).to_chart()
        classify(chart, tensors=ALL_TENSORS, run_oracle=False)
        for _, group, reads in built:
            assert len(set(reads)) == len(reads)
            off = [idx for idx in reads if not group.is_representative(idx)]
            assert off == sorted(off)
        off_any = False
        for group, reads, out in solves:
            off = [idx for idx in reads if not group.is_representative(idx)]
            assert off == sorted(off)
            if not off:
                continue
            off_any = True
            at = {id(row): idx for idx, row in reads.items()}
            if len(out.kept) == MAX_IDENTITY_COMPONENTS:
                assert off[-1] <= at[id(out.kept[-1])]
        assert off_any
        # b1-b3 build one system for each nonzero (0,4) tensor.
        cyclic = [reads for builder, _, reads in built
                  if builder == "_cyclic3_system"]
        assert len(cyclic) == sum(not named_tensor(chart, t).is_zero()
                                  for t in ("R", "C", "K", "conh", "P"))
        assert all(cyclic)
