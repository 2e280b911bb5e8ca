"""Chart construction and the curvature pipeline."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from curvzoo.charts import (CURVATURE_SYMMETRIES, Chart, ChartError,
                            Tensor, _cyclic_group, build_chart,
                            christoffel, covariant_derivative,
                            covariant_derivative_oneform, determinant,
                            exterior_derivative_oneform, generic_rank,
                            is_closed, nabla_riemann, oneform, rank_at_most,
                            ricci, ricci_square, riemann, scalar_curvature)
from curvzoo.classifiers import solve_quasi_einstein
from curvzoo.exprs import Context
from curvzoo.metrics import builtin, list_builtins
from curvzoo.operators import dot_named, nabla_cached, tachibana_named


def delta_entries(n):
    return [[str(int(i == j)) for j in range(n)] for i in range(n)]


def g_inv(chart, i, j):
    """(g^-1)[i, j], read from the chart's row index of nonzero entries."""
    return chart.g_inv_rows[i].get(j, chart.ctx.zero)


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


class TestBuildChart:
    def test_flat_inverse(self, flat4):
        assert flat4.det_g == flat4.ctx.one
        for i in range(4):
            for j in range(4):
                assert g_inv(flat4, i, j) == int(i == j)

    def test_diagonal_inverse(self, conformal4):
        ctx = conformal4.ctx
        assert conformal4.det_g == ctx.parse("x1^4")
        inv = ctx.parse("1/x1")
        for i in range(4):
            for j in range(4):
                assert g_inv(conformal4, i, j) == (inv if i == j
                                                   else ctx.zero)

    def test_lorentzian_cross_terms_invertible(self, godel):
        assert not godel.det_g.is_zero
        # g_inv . g = identity, entrywise.
        n = godel.n
        for i in range(n):
            for j in range(n):
                acc = godel.ctx.zero
                for k in range(n):
                    acc = acc + g_inv(godel, i, k) * godel.g[k, j]
                assert acc == int(i == j)

    def test_asymmetric_rejected(self):
        entries = delta_entries(3)
        entries[0][1] = "x1"
        with pytest.raises(ChartError, match="not symmetric"):
            build_chart(["x1", "x2", "x3"], entries)

    def test_singular_rejected(self):
        entries = delta_entries(3)
        entries[2][2] = "0"
        with pytest.raises(ChartError, match="singular"):
            build_chart(["x1", "x2", "x3"], entries)

    def test_low_dimension_rejected(self):
        with pytest.raises(ChartError, match="at least 3"):
            build_chart(["x1", "x2"], delta_entries(2))

    @pytest.mark.parametrize("entries", [
        [["1", "0", "0", "x1"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
         ["x1", "0", "0", "1"]],                      # too many rows
        [row + ["0"] for row in delta_entries(3)],    # rows too long
    ])
    def test_wrong_shape_rejected(self, entries):
        # An oversized matrix is an error, not cut down to n by n.
        with pytest.raises(ChartError, match="metric must be an n by n"):
            build_chart(["x1", "x2", "x3"], entries)


class TestChristoffel:
    def test_flat_vanishes(self, flat4):
        assert christoffel(flat4).is_zero()

    def test_conformal_factor_values(self, conformal4):
        # Hand evaluation of the coordinate formula for g = x1 * delta.
        ctx = conformal4.ctx
        gamma = christoffel(conformal4)
        half_inv = ctx.parse("1/(2*x1)")
        assert gamma[0, 0, 0] == half_inv          # Gamma^1_11
        assert gamma[1, 0, 1] == half_inv          # Gamma^2_12
        assert gamma[0, 1, 1] == -half_inv         # Gamma^1_22

    def test_lower_index_symmetry(self, godel):
        gamma = christoffel(godel)
        n = godel.n
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert gamma[k, i, j] == gamma[k, j, i]


class TestCurvature:
    def test_flat_riemann_zero(self, flat4):
        assert riemann(flat4).is_zero()

    def test_known_scalar_curvatures(self, conformal4, godel):
        assert scalar_curvature(conformal4) == conformal4.ctx.parse(
            "-3/(2*x1^3)")
        # Scaling a metric by a^2 scales kappa by a^-2; the Godel chart's
        # kappa must be a nonzero multiple of 1/a^2.
        kappa = scalar_curvature(godel)
        assert not kappa.is_zero
        assert (kappa * godel.ctx.parse("a^2")).is_constant()

    def test_ricci_symmetric(self, conformal4, godel):
        for chart in (conformal4, godel):
            S = ricci(chart)
            for i in range(chart.n):
                for j in range(chart.n):
                    assert S[i, j] == S[j, i]

    def test_ricci_square_definition(self, godel):
        # S2(X,Y) = S(SX, Y) where g(SX, Y) = S(X,Y).
        S, S2 = ricci(godel), ricci_square(godel)
        n, ctx = godel.n, godel.ctx
        for i in range(n):
            for j in range(n):
                acc = ctx.zero
                for a in range(n):
                    for b in range(n):
                        acc = acc + S[i, a] * g_inv(godel, a, b) * S[b, j]
                assert acc == S2[i, j]

    def test_first_pair_skew(self, conformal4):
        R = riemann(conformal4)
        n = conformal4.n
        for i, j, k, l in itertools.product(range(n), repeat=4):
            assert R[i, j, k, l] == -R[j, i, k, l]


class TestCovariantDerivative:
    def test_metric_compatibility(self, conformal4, godel):
        for chart in (conformal4, godel):
            assert covariant_derivative(chart, chart.metric_tensor()).is_zero()

    def test_flat_partial_derivative(self, flat4):
        # Z = exp(x1) * delta in a flat chart: nabla_i Z_jk = delta_i1 e^x1 d_jk.
        ctx = flat4.ctx
        e = ctx.parse("exp(x1)")
        Z = Tensor(flat4, (0, 2), {(i, i): e for i in range(4)})
        nablaZ = covariant_derivative(flat4, Z)
        for x in range(4):
            for j in range(4):
                for k in range(4):
                    expected = e if (x == 0 and j == k) else ctx.zero
                    assert nablaZ[x, j, k] == expected

    def test_second_bianchi_for_riemann(self, conformal4):
        D = nabla_riemann(conformal4)
        n = conformal4.n
        for h in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            acc = (D[h, i, j, k, l] + D[i, j, h, k, l]
                                   + D[j, h, i, k, l])
                            assert acc.is_zero


class TestExteriorDerivative:
    def test_constant_form_closed(self, flat4):
        alpha = oneform(flat4, ["-1/2", "0", "0", "0"])
        assert is_closed(flat4, alpha)

    def test_linear_form(self, flat4):
        from curvzoo.charts import DALPHA_COEFF
        alpha = oneform(flat4, ["0", "x1", "0", "0"])
        da = exterior_derivative_oneform(flat4, alpha)
        c = DALPHA_COEFF * flat4.ctx.one
        assert da[0, 1] == c
        assert da[1, 0] == -c
        assert sum(1 for _, e in da.items() if not e.is_zero) == 2

    def test_single_variable_form_closed(self):
        chart = build_chart(["x1", "x2", "x3", "x4"],
                            [["exp(x1)+1", "0", "0", "0"],
                             ["0", "exp(x1)", "0", "0"],
                             ["0", "0", "exp(x1)", "0"],
                             ["0", "0", "0", "exp(x1)"]])
        phi = oneform(chart, ["-exp(x1)/(2*(exp(x1)+1))", "0", "0", "0"])
        assert is_closed(chart, phi)

    def test_nabla_oneform(self, flat4):
        alpha = oneform(flat4, ["x2", "0", "0", "0"])
        grad = covariant_derivative_oneform(flat4, alpha)
        assert grad[1, 0] == flat4.ctx.one
        assert grad[0, 1] == flat4.ctx.zero


class TestRank:
    def test_flat_ricci_rank_zero(self, flat4):
        assert rank_at_most(ricci(flat4), 0)

    def test_godel_ricci_rank_one(self, godel):
        S = ricci(godel)
        assert rank_at_most(S, 1)
        assert not rank_at_most(S, 0)
        assert generic_rank(S) == 1

    def test_monotone_and_full(self, godel):
        S = ricci(godel)
        results = [rank_at_most(S, r) for r in range(godel.n + 1)]
        assert results[-1] is True
        assert results == sorted(results)  # monotone in r

    def test_metric_full_rank(self, conformal4):
        g = conformal4.metric_tensor()
        assert not rank_at_most(g, conformal4.n - 1)

    @staticmethod
    def assert_rank_matches_minors(Z):
        expected = minors_rank(Z)
        assert generic_rank(Z) == expected
        assert [rank_at_most(Z, r) for r in range(Z.chart.n + 1)] == [
            expected <= r for r in range(Z.chart.n + 1)]

    @pytest.mark.parametrize("name", list_builtins())
    def test_builtin_ranks_match_minors(self, name):
        chart = builtin(name).to_chart()
        S = ricci(chart)
        for Z in (chart.g, S, ricci_square(chart)):
            self.assert_rank_matches_minors(Z)
        for a in solve_quasi_einstein(chart).roots:
            self.assert_rank_matches_minors(S - chart.g.scaled(a))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_outer_product_sums_match_minors(self, n):
        chart = build_chart([f"x{i + 1}" for i in range(n)],
                            delta_entries(n))
        ctx, rng = chart.ctx, random.Random(n)
        for terms in range(4):
            for _ in range(3):
                Z = Tensor(chart, (0, 2), {})
                for _ in range(terms):
                    u, v = ([rng.randint(-2, 2) for _ in range(n)]
                            for _ in range(2))
                    Z = Z + Tensor(chart, (0, 2), {
                        (i, j): ctx.integer(u[i] * v[j])
                        for i in range(n) for j in range(n)})
                assert generic_rank(Z) <= terms
                self.assert_rank_matches_minors(Z)

    def test_rank_needs_rank_two_tensor(self, conformal4):
        R = riemann(conformal4)
        with pytest.raises(ValueError, match="rank-2"):
            generic_rank(R)
        with pytest.raises(ValueError, match="rank-2"):
            rank_at_most(R, 1)
        with pytest.raises(ValueError, match="out of range"):
            rank_at_most(ricci(conformal4), conformal4.n + 1)


def minors_rank(Z):
    """The rank of Z[i, j] as the size of its largest nonzero minor, each
    minor by cofactor expansion (the reference for generic_rank)."""
    n, ctx = Z.chart.n, Z.chart.ctx
    for size in range(n, 0, -1):
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(n), size):
                minor = [[Z[i, j] for j in cols] for i in rows]
                if not determinant(minor, ctx).is_zero:
                    return size
    return 0


class TestDeclaredSymmetries:
    def test_violations_raise(self, flat4):
        ctx = flat4.ctx
        components = {(0, 1): ctx.one}  # not symmetric
        with pytest.raises(ValueError, match="declared symmetry"):
            Tensor(flat4, (0, 2), components,
                   declared_symmetries=("sym:0,1",))
        components[1, 0] = ctx.one
        Tensor(flat4, (0, 2), components, declared_symmetries=("sym:0,1",))

    def test_skew_and_block(self, conformal4):
        R = riemann(conformal4)
        Tensor(conformal4, (0, 4), dict(R.nonzero_items()),
               declared_symmetries=("skew:0,1", "skew:2,3", "block:0,1,2,3"))

    @pytest.mark.parametrize("sym", ["skew:0,1", "skew:2,3",
                                     "block:0,1,2,3"])
    def test_four_slot_violations_raise(self, conformal4, sym):
        # R satisfies all three; adding 1 at (0,1,2,3) breaks each of them.
        R = riemann(conformal4)
        components = dict(R.nonzero_items())
        components[0, 1, 2, 3] = R[0, 1, 2, 3] + conformal4.ctx.one
        with pytest.raises(ValueError, match="declared symmetry"):
            Tensor(conformal4, (0, 4), components, declared_symmetries=(sym,))

    def test_unknown_spec_raises(self, flat4):
        with pytest.raises(ValueError, match="unknown symmetry"):
            Tensor(flat4, (0, 2), dict(flat4.g.nonzero_items()),
                   declared_symmetries=("hermitian:0,1",))


class TestSlotSymmetries:
    """The slot-symmetry group of a tensor, its orbit representatives and
    the fill from representatives."""

    def test_constructor_checks_declared_groups(self, monkeypatch):
        # R, S, S2 and the exterior derivative declare their symmetries
        # through the constructor, which checks each on the components.
        checked = []
        original = Tensor._symmetry_holds

        def recording(T, sym):
            checked.append((T.rank, sym))
            return original(T, sym)

        monkeypatch.setattr(Tensor, "_symmetry_holds", recording)
        chart = build_chart(["x1", "x2", "x3"], [["x1", "1", "0"],
                                                 ["1", "x1", "0"],
                                                 ["0", "0", "exp(x1)"]])
        R = riemann(chart)
        ricci_square(chart)
        exterior_derivative_oneform(chart, oneform(chart, ["x2", "0", "0"]))
        assert checked == [(4, sym) for sym in CURVATURE_SYMMETRIES] + [
            (2, "sym:0,1"), (2, "sym:0,1"), (2, "skew:0,1")]
        assert R.declared_symmetries == CURVATURE_SYMMETRIES
        assert len(R.symmetry_group.elements) == 8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_curvature_representatives(self, n):
        # One representative per unordered pair of ordered pairs i < j:
        # N(N+1)/2 with N = n(n-1)/2; orbits with i = j are forced to zero.
        chart = build_chart([f"x{i + 1}" for i in range(n)], delta_entries(n))
        T = Tensor.from_terms(chart, (0, 4), (), CURVATURE_SYMMETRIES)
        reps = [idx for idx in itertools.product(range(n), repeat=4)
                if T.symmetry_group.is_representative(idx)]
        pairs = n * (n - 1) // 2
        assert len(reps) == pairs * (pairs + 1) // 2
        for i, j, k, l in reps:
            assert i < j and k < l and (i, j) <= (k, l)

    def test_trivial_group_keeps_no_memo(self, flat4):
        # Every index represents its own orbit, answered without a memo
        # entry.
        group = Tensor.from_terms(flat4, (0, 3), ()).symmetry_group
        assert len(group.elements) == 1
        assert all(group.is_representative(idx)
                   for idx in itertools.product(range(4), repeat=3))
        assert not group._representative

    def test_fill_matches_a_full_computation(self, godel):
        R = riemann(godel)
        filled = Tensor.from_terms(godel, (0, 4), R.representative_items(),
                                   CURVATURE_SYMMETRIES)
        assert filled == R
        assert list(filled.nonzero_items()) == [
            (idx, v) for idx, v in R.items() if not v.is_zero]
        assert filled.declared_symmetries == CURVATURE_SYMMETRIES

    def test_fill_sums_terms_and_rejects_non_representatives(self, flat4):
        ctx = flat4.ctx
        x1 = ctx.parse("x1")
        T = Tensor.from_terms(
            flat4, (0, 2),
            [((0, 1), x1), ((0, 1), x1), ((1, 2), x1), ((1, 2), -x1)],
            ("skew:0,1",))
        assert list(T.nonzero_items()) == [((0, 1), ctx.parse("2*x1")),
                                           ((1, 0), ctx.parse("-2*x1"))]
        for idx in ((1, 0), (2, 2)):
            with pytest.raises(ValueError, match="not a representative"):
                Tensor.from_terms(flat4, (0, 2), [(idx, x1)], ("skew:0,1",))

    def test_contradictory_specs_raise(self, flat4):
        with pytest.raises(ValueError, match="force every component"):
            Tensor.from_terms(flat4, (0, 2), (), ("skew:0,1", "sym:0,1"))

    def test_operations_keep_or_drop_the_group(self, godel):
        R, S = riemann(godel), ricci(godel)
        f = godel.ctx.parse("x1 - 1")
        for T in (R + R, R - R.scaled(f), -R, R.scaled(Fraction(1, 3))):
            assert T.declared_symmetries == CURVATURE_SYMMETRIES
        plain = Tensor.from_terms(godel, (0, 4), R.nonzero_items())
        for T in (R + plain, plain - R, R.permuted((1, 0, 2, 3)),
                  R.cyclic_sum()):
            assert not T.declared_symmetries
        assert R + plain == plain + plain
        assert (S - S.scaled(f)).declared_symmetries == ("sym:0,1",)

    def test_with_symmetries_checks(self, godel):
        R = riemann(godel)
        plain = Tensor.from_terms(godel, (0, 4), R.nonzero_items())
        assert plain.with_symmetries(CURVATURE_SYMMETRIES) == R
        with pytest.raises(ValueError, match="declared symmetry"):
            plain.with_symmetries(("sym:0,1",))

    @pytest.mark.parametrize("spec, order", [("skew:0,1", (1, 0, 2, 3)),
                                             ("skew:2,3", (0, 1, 3, 2)),
                                             ("block:0,1,2,3", (2, 3, 0, 1))])
    def test_constructor_rejects_a_single_broken_entry(self, godel, spec,
                                                       order):
        # R with one entry changed breaks the spec: a support entry moved
        # off its image, one zeroed (its image now maps onto a zero), a
        # zero entry made nonzero where its image stays zero and, for a
        # skew spec, a nonzero entry that the swap fixes.
        R = riemann(godel)
        x1 = godel.ctx.parse("x1")
        image = lambda idx: tuple(idx[a] for a in order)     # noqa: E731
        moved = next(idx for idx, _ in R.nonzero_items()
                     if image(idx) != idx)
        lone = next(idx for idx, v in R.items() if v.is_zero
                    and image(idx) != idx and R[image(idx)].is_zero)
        cases = [(moved, R[moved] + x1), (moved, 0 * x1), (lone, x1)]
        if spec.startswith("skew"):
            cases.append(((0, 0, 0, 0), x1))
        Tensor(godel, (0, 4), dict(R.nonzero_items()), (spec,))
        for idx, value in cases:
            broken = dict(R.nonzero_items())
            broken[idx] = value
            with pytest.raises(ValueError, match="declared symmetry"):
                Tensor(godel, (0, 4), broken, (spec,))


def random_tensor(chart, rank, rng):
    pool = ["0", "1", "x1", "exp(x2)", "-2", "x3", "x1*x2"]
    return Tensor(chart, (0, rank), {
        idx: chart.ctx.parse(rng.choice(pool))
        for idx in itertools.product(range(chart.n), repeat=rank)})


class TestPermutedAndCyclic:
    """Tensor.permuted(order)[i] == T[i[order[0]], ..., i[order[k-1]]]."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_permuted_convention(self, seed, rank):
        # Every order, the 3-cycles among them, on a random tensor.
        rng = random.Random(seed)
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        T = random_tensor(chart, rank, rng)
        for order in itertools.permutations(range(rank)):
            for i, val in T.permuted(order).items():
                assert val == T[tuple(i[o] for o in order)]

    def test_three_cycle_is_not_its_inverse(self):
        # A 3-cycle and its reverse give different tensors in general; only
        # the cyclic sum cannot tell them apart.
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        T = random_tensor(chart, 3, random.Random(1))
        assert T.permuted((1, 2, 0)) != T.permuted((2, 0, 1))
        assert T.permuted((1, 2, 0))[0, 1, 2] == T[1, 2, 0]

    @pytest.mark.parametrize("width", [1, 2])
    def test_cyclic_sum(self, width):
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        T = random_tensor(chart, 3 * width + 1, random.Random(width))
        C = T.cyclic_sum(width)
        w = width
        for i, val in C.items():
            a, b, c, rest = i[:w], i[w:2 * w], i[2 * w:3 * w], i[3 * w:]
            assert val == T[a + b + c + rest] + T[b + c + a + rest] \
                + T[c + a + b + rest]

    @staticmethod
    def three_copies(T, width):
        """T plus its two cyclic shifts as three full permuted copies of a
        copy of T that declares no symmetries."""
        plain = Tensor.from_terms(T.chart, T.valence, T.nonzero_items())
        slots, w = tuple(range(T.rank)), width
        shift = slots[w:3 * w] + slots[:w] + slots[3 * w:]
        return (plain + plain.permuted(shift)
                + plain.permuted(tuple(shift[m] for m in shift)))

    @staticmethod
    def cyclic_operands(chart):
        """(T, width) for every cyclic sum the battery takes, and more."""
        return [(riemann(chart), 1), (nabla_cached(chart, "R"), 1),
                (nabla_cached(chart, "S"), 1), (nabla_cached(chart, "C"), 1),
                (dot_named(chart, "R", "R"), 2),
                (tachibana_named(chart, "g", "R"), 2),
                (dot_named(chart, "R", "S"), 1)]

    @pytest.mark.parametrize("name", list_builtins())
    def test_representatives_match_three_copies(self, name):
        chart = builtin(name).to_chart()
        for T, width in self.cyclic_operands(chart):
            C = T.cyclic_sum(width)
            assert C == self.three_copies(T, width)
            assert not C.declared_symmetries

    @pytest.mark.parametrize("name", ["ex5_2", "ex5_4", "ex5_5"])
    def test_perturbed_representatives_match_three_copies(self, name):
        # One representative changed and the tensor refilled keeps its
        # group but breaks the cyclic identities, so a group derived with
        # an element too many shows in the sum.
        chart = builtin(name).to_chart()
        one = chart.ctx.one
        rng = random.Random(name)
        for T, width in self.cyclic_operands(chart):
            reps = [idx for idx, _ in T.representative_items()]
            group = T.symmetry_group
            reps += [idx for idx in itertools.product(
                range(chart.n), repeat=T.rank)
                if group.is_representative(idx) and T[idx].is_zero][:3]
            for idx in rng.sample(reps, min(6, len(reps))):
                items = dict(T.representative_items())
                items[idx] = T[idx] + one
                P = Tensor.from_terms(chart, T.valence, items.items(),
                                      T.declared_symmetries)
                assert P.cyclic_sum(width) == self.three_copies(P, width)

    def test_derived_groups(self):
        # R: the cycle and the three double transpositions, all of sign 1
        # and normalized by the cycle (the alternating group A4); nabla R:
        # the cycle and the skew last pair; R.R with its pairs cycled: the
        # cycle and the three pair skews.
        nabla = ("skew:1,2", "skew:3,4", "block:1,2,3,4")
        for rank, specs, shift, size in (
                (4, CURVATURE_SYMMETRIES, (1, 2, 0, 3), 12),
                (5, nabla, (1, 2, 0, 3, 4), 6),
                (6, CURVATURE_SYMMETRIES + ("skew:4,5",),
                 (2, 3, 4, 5, 0, 1), 24),
                (3, ("sym:1,2",), (1, 2, 0), 3),
                (3, (), (1, 2, 0), 3),
                # The transposition of slots 1 and 3 conjugates to that of
                # 0 and 3 under the shift, which is in the group, and to
                # that of 2 and 3 under its square, which is not.
                (4, ("skew:0,1", "skew:0,3"), (1, 2, 0, 3), 3)):
            group = _cyclic_group(rank, specs, shift)
            assert len(group.elements) == size
            assert dict(group.elements)[shift] == 1

    @pytest.mark.parametrize("specs", [("skew:0,1", "skew:0,3"),
                                       ("sym:0,1", "sym:0,3"),
                                       ("skew:0,1", "sym:2,3"),
                                       ("sym:0,1", "sym:1,2")])
    def test_filled_random_tensors_match_three_copies(self, specs):
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        for seed in range(3):
            T = random_tensor(chart, 4, random.Random(seed))
            group = Tensor.from_terms(chart, (0, 4), (), specs).symmetry_group
            T = Tensor.from_terms(chart, (0, 4), [
                (idx, v) for idx, v in T.nonzero_items()
                if group.is_representative(idx)], specs)
            assert T.cyclic_sum() == self.three_copies(T, 1)

    def test_items_in_index_order(self, godel):
        S = ricci(godel)
        items = list(S.items())
        assert [idx for idx, _ in items] == list(
            itertools.product(range(4), repeat=2))
        assert all(val == S[idx] for idx, val in items)
        assert list(S.nonzero_items()) == [(idx, val) for idx, val in items
                                           if not val.is_zero]


class TestSupport:
    """nonzero_items() is the cached support, and every operation keeps it
    equal to a scan of the components."""

    @staticmethod
    def scan(T):
        return [(idx, val) for idx, val in T.items() if not val.is_zero]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_difference_with_itself_is_zero(self, rank):
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        T = random_tensor(chart, rank, random.Random(rank))
        assert T.nonzero_items()
        zero = T - T
        assert zero.is_zero()
        assert list(zero.nonzero_items()) == []
        assert T.scaled(0).is_zero()
        assert T.scaled(chart.ctx.zero).is_zero()

    def test_components_are_read_only(self, godel):
        # Neither the tensor nor its dense array view can be written into.
        T = random_tensor(godel, 2, random.Random(5))
        for tensor in (T, riemann(godel), T + T, T.permuted((1, 0)),
                       godel.metric_tensor()):
            with pytest.raises(TypeError):
                tensor[0, 0] = godel.ctx.one
            view = tensor.array
            assert view.shape == (godel.n,) * tensor.rank
            assert list(view.flat) == [e for _, e in tensor.items()]
            with pytest.raises(ValueError):
                view[0, 0] = godel.ctx.one

    @pytest.mark.parametrize("name, idx", [
        ("R", (9, 9, 9, 9)), ("R", (0, 4, 0, 0)),  # out of range
        ("S", (-1, 0)), ("R", (0, 1, -3, 2)),       # negative
        ("R", (0, 1)), ("S", (0,)),                 # too short
        ("S", (0, 1, 2)), ("R", (0, 1, 0, 1, 0)),   # too long
    ])
    def test_index_that_does_not_fit_raises(self, conformal4, name, idx):
        T = {"R": riemann, "S": ricci}[name](conformal4)
        with pytest.raises(IndexError, match=re.escape(repr(idx))):
            T[idx]
        # An index that fits but is off the support still reads zero.
        assert T[(0, 1) + (0,) * (T.rank - 2)].is_zero

    def test_unhashable_index_raises_index_error(self, conformal4):
        # A list misses the component dict like any index that does not
        # fit, and the fit check names it.
        R = riemann(conformal4)
        with pytest.raises(IndexError, match=re.escape("[0, 1, 0, 1]")):
            R[[0, 1, 0, 1]]

    def test_construction_freezes_only_on_success(self, flat4):
        # A failed construction leaves the caller's mapping usable, and a
        # tensor keeps its own copy: later writes into the mapping do not
        # reach it.
        one = flat4.ctx.one
        components = {(0, 1): one}
        with pytest.raises(ValueError, match="declared symmetry"):
            Tensor(flat4, (0, 2), components,
                   declared_symmetries=("sym:0,1",))
        components[1, 0] = one
        T = Tensor(flat4, (0, 2), components,
                   declared_symmetries=("sym:0,1",))
        components[2, 2] = one
        assert T[2, 2].is_zero
        assert list(T.nonzero_items()) == [((0, 1), one), ((1, 0), one)]
        assert list(T.nonzero_items()) == self.scan(T)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_operations_keep_support_equal_to_a_scan(self, rank):
        rng = random.Random(10 + rank)
        chart = build_chart(["x1", "x2", "x3"], delta_entries(3))
        T, U = random_tensor(chart, rank, rng), random_tensor(chart, rank, rng)
        f = chart.ctx.parse("x1 - 1")
        results = [T + U, T - U, -T, T.scaled(f), T.scaled(Fraction(1, 3)),
                   T.cyclic_sum() if rank >= 3 else T]
        results += [T.permuted(order)
                    for order in itertools.permutations(range(rank))]
        for R in results:
            support = list(R.nonzero_items())
            assert support == self.scan(R)
            assert [idx for idx, _ in support] == sorted(
                idx for idx, _ in support)

    def test_constructor_drops_zero_components(self, flat4):
        ctx = flat4.ctx
        x1 = ctx.parse("x1")
        T = Tensor(flat4, (0, 2), {(2, 0): x1, (0, 3): ctx.zero,
                                   (1, 1): x1 - x1, (0, 2): -x1})
        assert list(T.nonzero_items()) == [((0, 2), -x1), ((2, 0), x1)]
        assert T[0, 3] == ctx.zero
        assert Tensor(flat4, (0, 2), {(0, 0): ctx.zero}).is_zero()

    @pytest.mark.parametrize("idx", [(0,), (0, 1, 2), (), (0, 4), (-1, 0),
                                     (4, 4), (0, 1.0), 3])
    def test_constructor_rejects_bad_indices(self, flat4, idx):
        # Wrong length for the valence, or an entry outside range(n); the
        # index is named, and a zero component at it is rejected as well.
        for value in (flat4.ctx.one, flat4.ctx.zero):
            with pytest.raises(ValueError, match=re.escape(repr(idx))):
                Tensor(flat4, (0, 2), {(0, 0): flat4.ctx.one, idx: value})

    def test_pipeline_never_enumerates_zero_entries(self, monkeypatch):
        # R, S, S2 and d alpha declare their symmetries through the checking
        # constructor, which reads only the components it is given.
        def enumerating(T):
            raise AssertionError(f"items() of a rank-{T.rank} tensor")

        monkeypatch.setattr(Tensor, "items", enumerating)
        chart = builtin("ex5_1").to_chart()
        riemann(chart)
        ricci(chart)
        ricci_square(chart)
        alpha = oneform(chart, [f"x{i + 1}^2" for i in range(chart.n)][::-1])
        assert not exterior_derivative_oneform(chart, alpha).is_zero()

    def test_from_terms_sums_and_drops_cancelled_terms(self, flat4):
        ctx = flat4.ctx
        x1 = ctx.parse("x1")
        T = Tensor.from_terms(flat4, (0, 2), [
            ((1, 0), x1), ((0, 1), ctx.one), ((1, 0), x1), ((2, 2), x1),
            ((2, 2), -x1)])
        assert list(T.nonzero_items()) == [((0, 1), ctx.one),
                                           ((1, 0), ctx.parse("2*x1"))]
        assert list(T.nonzero_items()) == self.scan(T)


class TestOracleReproduction:
    def test_pipeline_outputs_at_200_points(self, conformal4):
        # Reproduce curvature-pipeline identities under randomized rational
        # evaluation: pieces are evaluated separately and combined at the
        # point, so a canonicalization bug anywhere upstream would show up
        # as a disagreement.  200 samples, zero tolerance.
        from curvzoo.exprs import EvaluationError, evaluate_rational
        rng = random.Random(99)
        ctx = conformal4.ctx
        R = riemann(conformal4)
        S = ricci(conformal4)
        kappa = scalar_curvature(conformal4)
        checks = []
        # first Bianchi at a few component triples
        for idx in ((0, 1, 2, 3), (0, 1, 1, 0), (1, 2, 3, 1)):
            i, j, k, l = idx
            checks.append([R[i, j, k, l], R[j, k, i, l], R[k, i, j, l]])
        # trace of Ricci against the inverse metric reproduces kappa
        trace = [g_inv(conformal4, i, j) * S[i, j]
                 for i in range(4) for j in range(4)]
        checks.append(trace + [-kappa])
        # g . g_inv = identity on one off-diagonal entry
        checks.append([conformal4.g[0, k] * g_inv(conformal4, k, 1)
                       for k in range(4)])
        done = 0
        while done < 200:
            point = {a: Fraction(rng.randint(1, 10 ** 6),
                                 rng.randint(1, 10 ** 6))
                     for a in ctx.atoms}
            try:
                for parts in checks:
                    total = sum(evaluate_rational(p, point) for p in parts)
                    assert total == 0
            except EvaluationError:
                continue
            done += 1


class TestDeterminant:
    def test_random_vs_numeric(self):
        ctx = Context(["x1", "x2", "x3"])
        rng = random.Random(3)
        for _ in range(15):
            ints = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            mat = [[ctx.integer(v) for v in row] for row in ints]
            expected = (ints[0][0] * (ints[1][1] * ints[2][2] - ints[1][2] * ints[2][1])
                        - ints[0][1] * (ints[1][0] * ints[2][2] - ints[1][2] * ints[2][0])
                        + ints[0][2] * (ints[1][0] * ints[2][1] - ints[1][1] * ints[2][0]))
            assert determinant(mat, ctx) == ctx.integer(expected)
