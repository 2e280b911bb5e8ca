"""Kulkarni-Nomizu products, derived tensors and the curvature actions."""

import itertools
import random
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvzoo import exprs, operators
from curvzoo.charts import (CURVATURE_SYMMETRIES, Tensor, build_chart,
                            christoffel, covariant_derivative,
                            lowered_to_operator, nabla_riemann, oneform,
                            ricci, riemann, scalar_curvature)
from curvzoo.metrics import BUILTINS, builtin, load_metric_file
from curvzoo.operators import (check_gct, check_second_bianchi,
                               dot_action, gaussian_tensor,
                               is_gct, kulkarni_nomizu, named_tensor,
                               oneform_dot, projective, tachibana,
                               walker_cyclic_check, weyl_conformal)
from curvzoo.zoo import classify


def delta_entries(n):
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


def g_inv(chart, i, j):
    """(g^-1)[i, j], read from the chart's row index of nonzero entries."""
    return chart.g_inv_rows[i].get(j, chart.ctx.zero)


def skew_in_trailing_pair(T):
    """T[.., i, j] == -T[.., j, i] at every index, zeros included."""
    return all(v == -T[idx[:-2] + (idx[-1], idx[-2])] for idx, v in T.items())


@pytest.fixture(scope="module")
def flat4():
    return build_chart(["x1", "x2", "x3", "x4"], delta_entries(4), name="flat4")


@pytest.fixture(scope="module")
def conformal4():
    entries = [[("x1" if i == j else "0") for j in range(4)] for i in range(4)]
    return build_chart(["x1", "x2", "x3", "x4"], entries, name="conformal4")


@pytest.fixture(scope="module")
def godel():
    return build_chart(
        ["x1", "x2", "x3", "x4"],
        [["-a^2", "0", "0", "0"],
         ["0", "1/2*a^2*exp(2*x1)", "0", "a^2*exp(x1)"],
         ["0", "0", "-a^2", "0"],
         ["0", "a^2*exp(x1)", "0", "a^2"]],
        params=["a"], name="godel")


def outer(A, D):
    """(A (x) D)[i, j, k, l] = A[i, j] D[k, l]."""
    return Tensor(A.chart, (0, 4), {
        (i, j, k, l): a * d
        for (i, j), a in A.nonzero_items() for (k, l), d in D.nonzero_items()})


def with_entries(T, added):
    """T with the given integers added at the given indices."""
    components = dict(T.nonzero_items())
    for idx, v in added.items():
        components[idx] = T[idx] + T.chart.ctx.integer(v)
    return Tensor(T.chart, T.valence, components)


#: One chart per generated template, as committed metric files.
GENERATED = Path(__file__).resolve().parent / "generated"
TEMPLATE_FILES = ("conformal_0.json", "warped_0.json", "off_diagonal_0.json")


def scatter_kulkarni_nomizu(A, D):
    """The Kulkarni-Nomizu product with no symmetry group: each product of
    nonzero entries A[p,q] D[r,s] scattered, signed, to the four
    components it feeds."""
    def terms():
        for (p, q), a in A.nonzero_items():
            for (r, s), d in D.nonzero_items():
                ad = a * d
                yield (p, r, s, q), ad
                yield (r, p, q, s), ad
                yield (p, r, q, s), -ad
                yield (r, p, s, q), -ad

    return Tensor.from_terms(A.chart, (0, 4), terms())


def random_symmetric(chart, rng):
    n = chart.n
    pool = ["0", "1", "x1", "exp(x1)", "2", "x2", "x3", "-1"]
    components = {}
    for i in range(n):
        for j in range(i, n):
            components[i, j] = components[j, i] = chart.ctx.parse(
                rng.choice(pool))
    return Tensor(chart, (0, 2), components)


class TestKulkarniNomizu:
    def test_flat_orthonormal_value(self, flat4):
        g = flat4.metric_tensor()
        gg = kulkarni_nomizu(g, g)
        assert gg[0, 1, 0, 1] == -2

    def test_symmetric_in_factors(self, conformal4):
        rng = random.Random(1)
        A = random_symmetric(conformal4, rng)
        D = random_symmetric(conformal4, rng)
        assert kulkarni_nomizu(A, D) == kulkarni_nomizu(D, A)

    def test_produces_gct_symmetries(self, conformal4):
        rng = random.Random(2)
        A = random_symmetric(conformal4, rng)
        D = random_symmetric(conformal4, rng)
        assert is_gct(kulkarni_nomizu(A, D))

    def test_factors_must_be_symmetric(self, conformal4):
        A = random_symmetric(conformal4, random.Random(4))
        skewed = with_entries(A, {(0, 1): 1})
        for X, Y in ((A, skewed), (skewed, A), (skewed, skewed)):
            with pytest.raises(ValueError, match="must be symmetric"):
                kulkarni_nomizu(X, Y)


class TestKulkarniNomizuDualRoute:
    """The product at representatives, filled by CURVATURE_SYMMETRIES,
    equals the group-free scatter product, and declares the group."""

    @staticmethod
    def assert_matches_scatter(chart):
        for name in ("g^g", "g^S", "S^S", "S^S2", "g^S2", "S2^S2"):
            A, _, D = name.partition("^")
            A, D = named_tensor(chart, A), named_tensor(chart, D)
            product = kulkarni_nomizu(A, D)
            assert product == scatter_kulkarni_nomizu(A, D), name
            assert product.declared_symmetries == CURVATURE_SYMMETRIES
            assert named_tensor(chart, name) == product

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtins(self, name):
        self.assert_matches_scatter(builtin(name).to_chart())

    @pytest.mark.parametrize("filename", TEMPLATE_FILES)
    def test_generated_templates(self, filename):
        self.assert_matches_scatter(
            load_metric_file(GENERATED / filename).to_chart())


#: Entries drawn for symmetric (0,2) tensors on a curved chart.
ENTRY_POOL = ("0", "1", "-2", "x1", "x2*x3", "exp(x1)", "1/x2", "x1 + x3")


@pytest.fixture(scope="module")
def curved3():
    return build_chart(["x1", "x2", "x3"],
                       [["x1", "1", "0"],
                        ["1", "x1", "0"],
                        ["0", "0", "exp(x1)"]], name="curved3")


def symmetric_from(chart, picks):
    """The symmetric (0,2) tensor with ENTRY_POOL[picks[.]] on and above
    the diagonal, row by row."""
    n = chart.n
    components = {}
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for (i, j), pick in zip(upper, picks):
        components[i, j] = components[j, i] = chart.ctx.parse(
            ENTRY_POOL[pick])
    return Tensor(chart, (0, 2), components)


class TestKulkarniNomizuProperties:
    PICKS = st.lists(st.integers(0, len(ENTRY_POOL) - 1), min_size=6,
                     max_size=6)

    @settings(max_examples=25, deadline=timedelta(seconds=10),
              derandomize=True, database=None)
    @given(PICKS, PICKS)
    def test_gct_and_symmetric_in_factors(self, curved3, a, d):
        A, D = symmetric_from(curved3, a), symmetric_from(curved3, d)
        AD = kulkarni_nomizu(A, D)
        assert all(check_gct(AD).values())
        assert AD == kulkarni_nomizu(D, A)

    @settings(max_examples=25, deadline=timedelta(seconds=10),
              derandomize=True, database=None)
    @given(PICKS, PICKS)
    def test_representatives_match_the_scatter(self, curved3, a, d):
        A, D = symmetric_from(curved3, a), symmetric_from(curved3, d)
        for X, Y in ((A, D), (A, A)):
            assert kulkarni_nomizu(X, Y) == scatter_kulkarni_nomizu(X, Y)


class TestKernelWork:
    """Each product of two nonzero entries is formed once."""

    @pytest.fixture
    def mul_calls(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        original = exprs._mul
        monkeypatch.setattr(exprs, "_mul", counting)
        return calls

    @staticmethod
    def support_size(T):
        return len(T.nonzero_items())

    def test_kulkarni_nomizu_multiplies_each_pair_once(self, godel,
                                                       mul_calls):
        # One product per term of the four-term sum at each curvature
        # representative i < j, k < l, (i, j) <= (k, l) whose two entries
        # are nonzero: fewer than the |A| |D| products of the scatter.
        pairs = itertools.combinations(range(godel.n), 2)
        reps = list(itertools.combinations_with_replacement(pairs, 2))
        for A, D in ((godel.metric_tensor(), ricci(godel)),
                     (ricci(godel), ricci(godel)),
                     (random_symmetric(godel, random.Random(8)),
                      godel.metric_tensor())):
            expected = sum(
                1 for (i, j), (k, l) in reps
                for p, q in (((i, l), (j, k)), ((j, k), (i, l)),
                             ((i, k), (j, l)), ((j, l), (i, k)))
                if not A[p].is_zero and not D[q].is_zero)
            del mul_calls[:]
            kulkarni_nomizu(A, D)
            assert len(mul_calls) == expected
            assert expected < self.support_size(A) * self.support_size(D)

    @staticmethod
    def lands(T, J, m, i):
        """Whether J with i at slot m is a representative for T."""
        return T.symmetry_group.is_representative(J[:m] + (i,) + J[m + 1:])

    def test_tachibana_multiplies_each_pair_once(self, godel, mul_calls):
        # A product A[c,i] T[J] is formed once, and only when some slot m
        # with J[m] != c puts i on a representative of T's symmetries.
        g, R, S = godel.metric_tensor(), riemann(godel), ricci(godel)
        for A, T in ((g, R), (S, R), (g, S),
                     (random_symmetric(godel, random.Random(9)), S)):
            expected = sum(
                1 for J, _ in T.nonzero_items()
                for (c, i), _ in A.nonzero_items()
                if any(J[m] != c and self.lands(T, J, m, i)
                       for m in range(T.rank)))
            del mul_calls[:]
            tachibana(A, T)
            assert len(mul_calls) == expected
        assert expected < self.support_size(A) * self.support_size(T)

    def test_covariant_derivative_multiplies_each_pair_once(self, godel,
                                                            mul_calls):
        # A product Gamma^a_{xj} T[J] is formed once per distinct a in J,
        # and only when some slot m with J[m] = a puts j on a representative.
        n, gamma = godel.n, christoffel(godel)
        for T in (riemann(godel), ricci(godel)):
            expected = sum(
                1 for J, _ in T.nonzero_items() for a in set(J)
                for x in range(n) for j in range(n)
                if not gamma[a, x, j].is_zero
                and any(J[m] == a and self.lands(T, J, m, j)
                        for m in range(T.rank)))
            del mul_calls[:]
            covariant_derivative(godel, T)
            assert len(mul_calls) == expected

    def test_dot_action_multiplies_each_pair_once(self, godel, mul_calls):
        # The fourth-slot lift forms R[i,j,k,b] g^{ba} once per nonzero
        # g^{ba}; the action forms Rhat[a,h,l,i] T[J] (h < l) once per
        # distinct a in J, when some slot m with J[m] = a puts i on a
        # representative.
        R = riemann(godel)
        lift = lowered_to_operator(R).nonzero_items()
        lift_products = sum(1 for (i, j, k, b), _ in R.nonzero_items()
                            for a in range(godel.n)
                            if not g_inv(godel, b, a).is_zero)
        for T in (R, ricci(godel)):
            expected = lift_products + sum(
                1 for J, _ in T.nonzero_items() for a in set(J)
                for (a2, h, l, i), _ in lift
                if a2 == a and h < l
                and any(J[m] == a and self.lands(T, J, m, i)
                        for m in range(T.rank)))
            del mul_calls[:]
            dot_action(R, T)
            assert len(mul_calls) == expected

    def test_oneform_dot_multiplies_each_pair_once(self, godel, mul_calls):
        # A product mu_i T[J] is formed once, and only when some slot m
        # puts i on a representative of T's symmetries.
        mu = oneform(godel, ["x1", "0", "exp(x1)", "a"])
        nonzero_mu = [i for i, mv in enumerate(mu) if not mv.is_zero]
        for T in (riemann(godel), ricci(godel), godel.metric_tensor()):
            expected = sum(
                1 for J, _ in T.nonzero_items() for i in nonzero_mu
                if any(self.lands(T, J, m, i) for m in range(T.rank)))
            del mul_calls[:]
            oneform_dot(mu, T)
            assert len(mul_calls) == expected
            if T.declared_symmetries:
                assert expected < len(nonzero_mu) * self.support_size(T)


class TestSymmetricKernels:
    """Kernels fill inherited symmetries; the filled tensors equal the same
    kernels run on a copy of the operand that declares no symmetries."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtins_filled_equals_group_free(self, name):
        chart = builtin(name).to_chart()
        g, R, S = chart.metric_tensor(), riemann(chart), ricci(chart)
        assert R.declared_symmetries == CURVATURE_SYMMETRIES
        for T in (R, S):
            k = T.rank
            plain = Tensor.from_terms(chart, T.valence, T.nonzero_items())
            assert plain == T and not plain.declared_symmetries
            nabla, nabla_plain = (covariant_derivative(chart, T),
                                  covariant_derivative(chart, plain))
            assert nabla == nabla_plain
            assert len(nabla.declared_symmetries) == len(
                T.declared_symmetries)
            assert not nabla_plain.declared_symmetries
            skew = (f"skew:{k},{k + 1}",)
            for action in (lambda X: dot_action(R, X),
                           lambda X: tachibana(g, X)):
                filled, full = action(T), action(plain)
                assert filled == full
                assert filled.declared_symmetries == (
                    T.declared_symmetries + skew)
                assert full.declared_symmetries == skew

    def test_sums_of_curvature_tensors_keep_the_group(self, godel):
        # C, K, conh and G are sums and scalings of R and of the declared
        # Kulkarni-Nomizu products, so they carry R's symmetries; P does not.
        for name in ("g^g", "g^S", "S^S2", "C", "K", "conh", "G"):
            T = named_tensor(godel, name)
            assert T.declared_symmetries == CURVATURE_SYMMETRIES
            assert is_gct(T)
        assert not projective(godel).declared_symmetries
        C, plain = weyl_conformal(godel), Tensor.from_terms(
            godel, (0, 4), riemann(godel).nonzero_items())
        n = godel.n
        gS = Tensor.from_terms(godel, (0, 4), kulkarni_nomizu(
            godel.metric_tensor(), ricci(godel)).nonzero_items())
        gg = Tensor.from_terms(godel, (0, 4), kulkarni_nomizu(
            godel.metric_tensor(), godel.metric_tensor()).nonzero_items())
        kappa = scalar_curvature(godel)
        assert C == (plain - gS.scaled(Fraction(1, n - 2))
                     + gg.scaled(kappa * Fraction(1, 2 * (n - 1) * (n - 2))))


class TestDerivedTensors:
    def test_flat_all_vanish(self, flat4):
        for name in ("C", "K", "conh", "P"):
            assert named_tensor(flat4, name).is_zero()
        G = gaussian_tensor(flat4)
        g = flat4.metric_tensor()
        assert G == kulkarni_nomizu(g, g).scaled(Fraction(1, 2))

    def test_weyl_traceless(self, conformal4, godel):
        # Weyl is fully trace-free in its first and fourth slots.
        for chart in (conformal4, godel):
            C = weyl_conformal(chart)
            n, ctx = chart.n, chart.ctx
            for j in range(n):
                for k in range(n):
                    acc = ctx.zero
                    for a in range(n):
                        for b in range(n):
                            if not g_inv(chart, a, b).is_zero:
                                acc = acc + g_inv(chart, a, b) * C[a, j, k, b]
                    assert acc.is_zero

    def test_conformally_flat_weyl_zero(self, conformal4):
        assert weyl_conformal(conformal4).is_zero()

    def test_godel_weyl_nonzero(self, godel):
        assert not weyl_conformal(godel).is_zero()

    def test_gct_axioms(self, conformal4, godel):
        for chart in (conformal4, godel):
            for name in ("C", "K", "conh"):
                assert is_gct(named_tensor(chart, name))
            axioms = check_gct(projective(chart))
            assert not axioms["block_interchange"]

    def test_unknown_name(self, flat4):
        with pytest.raises(ValueError):
            named_tensor(flat4, "W")


class TestNamedTensors:
    FACTORS = ("g", "S", "S2")

    def test_products_are_kulkarni_nomizu(self, godel):
        for A in self.FACTORS:
            for B in self.FACTORS:
                assert named_tensor(godel, f"{A}^{B}") == kulkarni_nomizu(
                    named_tensor(godel, A), named_tensor(godel, B))

    def test_second_lookup_is_the_same_object(self, godel):
        for name in ("R", "S", "S2", "g", "G", "C", "K", "conh", "P",
                     "g^g", "S^S2"):
            assert named_tensor(godel, name) is named_tensor(godel, name)

    def test_tensor_returned_unchanged(self, conformal4):
        T = random_symmetric(conformal4, random.Random(3))
        assert named_tensor(conformal4, T) is T

    @pytest.mark.parametrize("name", ["S^R", "x^g", "g^", "W"])
    def test_unknown_names(self, flat4, name):
        with pytest.raises(ValueError):
            named_tensor(flat4, name)

    def test_default_classify_builds_each_product_once(self, monkeypatch):
        # ex5_5 needs g^g, g^S (Weyl, Roter), S^S, S^S2, g^S2 and S2^S2
        # (generalized Roter): six distinct products.
        calls = []

        def counting(A, D):
            calls.append((A, D))
            return kulkarni_nomizu(A, D)

        monkeypatch.setattr(operators, "kulkarni_nomizu", counting)
        classify(builtin("ex5_5"), run_oracle=False)
        assert len(calls) == 6

    def test_second_bianchi_reuses_nabla_R(self, monkeypatch):
        entries = [[("x2" if i == j else "0") for j in range(3)]
                   for i in range(3)]
        chart = build_chart(["x1", "x2", "x3"], entries)
        nabla_riemann(chart)
        computed = []

        def counting(chart, T, original=operators.covariant_derivative):
            computed.append(T)
            return original(chart, T)

        monkeypatch.setattr(operators, "covariant_derivative", counting)
        assert check_second_bianchi(chart, "R")
        assert computed == []
        # A Tensor operand, R itself included, is computed afresh.
        assert check_second_bianchi(chart, riemann(chart))
        assert computed == [riemann(chart)]

    def test_default_classify_builds_R_dot_R_once(self, monkeypatch):
        # ex5_5 needs R.R (semisymmetry and Deszcz of R, and Walker's
        # identity), C.C (Weyl pseudosymmetry) and R.S.
        calls = []

        def counting(B, T):
            calls.append((B, T))
            return dot_action(B, T)

        monkeypatch.setattr(operators, "dot_action", counting)
        classify(builtin("ex5_5"), run_oracle=False)
        assert len(calls) == 3


class TestDotAction:
    def test_flat_everything_zero(self, flat4):
        rng = random.Random(4)
        T = random_symmetric(flat4, rng)
        assert dot_action(riemann(flat4), T).is_zero()

    def test_skew_in_trailing_pair(self, conformal4):
        RR = dot_action(riemann(conformal4), ricci(conformal4))
        assert skew_in_trailing_pair(RR)

    def test_conformal_proportionality(self, conformal4):
        # R.R = -1/(2 x1^3) Q(g,R) = Q(S,R) on the conformal chart.
        R = riemann(conformal4)
        g = conformal4.metric_tensor()
        S = ricci(conformal4)
        RR = dot_action(R, R)
        QgR = tachibana(g, R)
        L = conformal4.ctx.parse("-1/(2*x1^3)")
        for idx, v in RR.items():
            assert (v - L * QgR[idx]).is_zero
        assert RR == tachibana(S, R)

    def test_linearity(self, conformal4):
        R = riemann(conformal4)
        S = ricci(conformal4)
        g = conformal4.metric_tensor()
        f = conformal4.ctx.parse("x1^2 + 1")
        lhs = dot_action(R, S.scaled(f) + g)
        rhs = dot_action(R, S).scaled(f) + dot_action(R, g)
        assert lhs == rhs


class TestTachibana:
    def test_g_wedge_derivation_property(self, conformal4, godel):
        # X wedge_g Y annihilates g, so acting on g ^ D hits only the D
        # factor: Q(g, g^D) agrees with g wedged against the (h,m)-slices of
        # Q(g, D).  In particular Q(g, g^D) = 0 iff Q(g, D) = 0, e.g. D = f g.
        rng = random.Random(6)
        for chart in (conformal4, godel):
            n = chart.n
            g = chart.metric_tensor()
            D = random_symmetric(chart, rng)
            QgD = tachibana(g, D)
            QgKN = tachibana(g, kulkarni_nomizu(g, D))
            for h in range(n):
                for m in range(n):
                    sl = {(i, j): QgD[i, j, h, m]
                          for i in range(n) for j in range(n)}
                    wedge = kulkarni_nomizu(g, Tensor(chart, (0, 2), sl))
                    for idx in itertools.product(range(n), repeat=4):
                        assert QgKN[idx + (h, m)] == wedge[idx]

    def test_g_wedge_kernel_scalar_multiples(self, conformal4):
        # D proportional to g does lie in the kernel.
        g = conformal4.metric_tensor()
        D = g.scaled(conformal4.ctx.parse("exp(x1) + x2"))
        assert tachibana(g, kulkarni_nomizu(g, D)).is_zero()

    def test_q_g_gg_zero(self, conformal4):
        g = conformal4.metric_tensor()
        assert tachibana(g, kulkarni_nomizu(g, g)).is_zero()

    def test_self_wedge_kernel(self, conformal4):
        # Q(A, A ^ A) = 0: the identity behind the rank-one decompositions.
        rng = random.Random(9)
        A = random_symmetric(conformal4, rng)
        assert tachibana(A, kulkarni_nomizu(A, A)).is_zero()

    def test_bilinearity(self, conformal4):
        g = conformal4.metric_tensor()
        S = ricci(conformal4)
        R = riemann(conformal4)
        f = conformal4.ctx.parse("exp(x1)")
        lhs = tachibana(g.scaled(f) + S, R)
        rhs = tachibana(g, R).scaled(f) + tachibana(S, R)
        assert lhs == rhs

    def test_skew_in_trailing_pair(self, godel):
        Q = tachibana(ricci(godel), riemann(godel))
        assert skew_in_trailing_pair(Q)


class TestOneFormDot:
    def test_zero_form(self, flat4):
        mu = oneform(flat4, ["0", "0", "0", "0"])
        assert oneform_dot(mu, flat4.metric_tensor()).is_zero()

    def test_metric_expansion(self, conformal4):
        # (mu . g)(X1,X2;X) = -mu(X1) g(X,X2) - mu(X2) g(X1,X).
        mu = oneform(conformal4, ["x2", "1", "0", "exp(x1)"])
        g = conformal4.metric_tensor()
        out = oneform_dot(mu, g)
        n = conformal4.n
        for i in range(n):
            for j in range(n):
                for x in range(n):
                    expected = -(mu[i] * g[x, j]) - mu[j] * g[i, x]
                    assert out[i, j, x] == expected

    def test_chaki_residual_via_action(self):
        # On the 5-dim exponential chart the constant form phi = (-1/2, 0...)
        # satisfies nabla R - 2 phi (x) R + phi . R = 0 componentwise, with
        # the action slot carrying the derivative direction.
        from curvzoo.charts import covariant_derivative
        from curvzoo.classifiers import chaki_residual_zero
        from curvzoo.metrics import builtin
        chart = builtin("ex5_1").to_chart()
        phi = oneform(chart, ["-1/2", "0", "0", "0", "0"])
        assert chaki_residual_zero(chart, riemann(chart), phi)
        # and a wrong 1-form does not:
        bad = oneform(chart, ["-1/2", "1", "0", "0", "0"])
        assert not chaki_residual_zero(chart, riemann(chart), bad)


class TestStructuralChecks:
    def test_walker_identity(self, conformal4, godel):
        for chart in (conformal4, godel):
            assert walker_cyclic_check(chart, riemann(chart))

    def test_walker_fails_for_generic_tensor(self, conformal4):
        # A generic Kulkarni-Nomizu product is a GCT with no reason to
        # satisfy the cyclic identity of the action.
        B = kulkarni_nomizu(random_symmetric(conformal4, random.Random(12)),
                            conformal4.metric_tensor())
        assert is_gct(B)
        assert not walker_cyclic_check(conformal4, B)

    def test_second_bianchi_fails_for_generic_gct(self, conformal4):
        B = kulkarni_nomizu(random_symmetric(conformal4, random.Random(12)),
                            conformal4.metric_tensor())
        assert not check_second_bianchi(conformal4, B)

    def test_each_gct_axiom_can_fail_alone(self, flat4):
        # g (x) g: symmetric, not skew, in the first pair; block symmetric;
        # its cyclic sum at (i, i, i, i) is 3.
        g = flat4.metric_tensor()
        gg = outer(g, g)
        assert check_gct(gg) == {"first_bianchi": False,
                                 "skew_first_pair": False,
                                 "block_interchange": True}
        # g^g satisfies all three; adding 1 at (0,1,2,3) and -1 at its skew
        # partner (1,0,2,3) breaks the cyclic sum and the block interchange.
        T = with_entries(named_tensor(flat4, "g^g"),
                         {(0, 1, 2, 3): 1, (1, 0, 2, 3): -1})
        assert check_gct(T) == {"first_bianchi": False,
                                "skew_first_pair": True,
                                "block_interchange": False}
        # Adding 1 at (0,1,2,3) alone breaks the skew pair as well.
        T = with_entries(named_tensor(flat4, "g^g"), {(0, 1, 2, 3): 1})
        assert not any(check_gct(T).values())

    def test_second_bianchi_derived(self, conformal4):
        assert check_second_bianchi(conformal4, riemann(conformal4))
