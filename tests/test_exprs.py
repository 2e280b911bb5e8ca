"""Expression kernel: parsing, canonical arithmetic, derivatives, evaluation."""

import ast
import gc
import random
import subprocess
import sys
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import ring

from curvzoo import exprs
from curvzoo.charts import riemann
from curvzoo.exprs import (CANCEL_MEMO_TERMS, GCD_PACKED_BITS,
                           MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING,
                           MAX_TERMS, Context, EvaluationError,
                           ExpressionError, ModularExpr, ParseError, _cancel,
                           _kronecker_cofactors, _memo_key,
                           _modular_cofactors, _normalized, _poly_sqrt,
                           _primitive, _quotient, _Rational, _rational_form,
                           differentiate, evaluate_rational, gcd_cofactors,
                           residue, residue_powers)
from curvzoo.metrics import builtin
from curvzoo.zoo import ORACLE_PRIME

MERSENNE_61 = 2 ** 61 - 1


@pytest.fixture(scope="module")
def ctx():
    return Context(["x1", "x2", "x3", "x4"], ["a"])


@pytest.fixture(scope="module")
def ctx5():
    return Context(["x1", "x2", "x3", "x4", "x5"])


def atom(ctx, kind, index):
    for a in ctx.atoms:
        if a.kind == kind and a.index == index:
            return a
    raise AssertionError


def modular_value(e, point, p):
    """e at a point, rationals or residues, modulo p by the oracle's path:
    compiled once, then read at the point's power tables."""
    compiled = ModularExpr(e, p)
    num, den = compiled.at(residue_powers(e.ctx, point, p, compiled.degrees))
    return num * pow(den, -1, p) % p


class TestParsing:
    def test_exp_fraction(self, ctx):
        e = ctx.parse("exp(2*x1)/(1+exp(x1))")
        t1 = ctx.exponential("x1")
        assert e.num == (t1 * t1).num
        assert e.den == (1 + t1).num

    def test_nesting_limit(self, ctx):
        ok = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert ctx.parse(ok) == ctx.parse("x1")
        deep = "(" * 3000 + "x1" + ")" * 3000
        with pytest.raises(ParseError) as err:
            ctx.parse(deep)
        assert err.value.position == MAX_NESTING

    def test_size_limits(self, ctx):
        assert ctx.parse(f"(1+x1)^{MAX_DEGREE}") == (
            ctx.parse(f"(1+x1)^{MAX_DEGREE - 1}") * ctx.parse("1 + x1"))
        # Numerator and denominator degrees add separately.
        assert ctx.parse("x1^20/x2^20") == ctx.parse("x1^20 * x2^-20")
        assert ctx.parse(f"exp(-{MAX_DEGREE}*x1)").den == (
            ctx.exponential("x1", MAX_DEGREE).num)
        # C(4 + 19, 4) = 8,855 monomials of degree <= 19 in 4 atoms; at
        # degree 20 there are 10,626.
        assert MAX_TERMS == 10_000
        assert len(ctx.parse("(1+x1+x2+x3+x4)^19").num) == 8855
        # Equal denominators add without multiplying.
        s8 = "(1+x1+x2+x3+x4+exp(x1)+exp(x2)+exp(x3)+exp(x4))"
        t8 = "(2+x1+x2+x3+x4+exp(x1)+exp(x2)+exp(x3)+exp(x4))"
        assert ctx.parse(f"a/{s8}^4 + 1/{s8}^4") == ctx.parse(f"(a+1)/{s8}^4")
        assert MAX_COEFF_BITS == 1024
        widest = 2 ** MAX_COEFF_BITS - 1
        assert ctx.parse(str(widest)) == ctx.integer(widest)
        assert ctx.parse("0" * 5000 + "7") == ctx.integer(7)
        # Each case is rejected before its operator runs, or a literal
        # before it is converted.  In the 8 atoms of the chart, degree 16
        # passes MAX_DEGREE, but the power could have C(8 + 16, 8) = 735,471
        # terms.
        rejected = [("(1+x1+x2+x3+x4)^200", 15, "degree"),
                    ("((x1)^32)^32", 9, "degree"),
                    ("x1^20*x2^20", 5, "degree"),
                    ("x1/x2^20/x2^20", 8, "degree"),
                    (f"x1^-{MAX_DEGREE + 1}", 2, "degree"),
                    (f"1 + exp({MAX_DEGREE + 1}*x1)", 4, "degree"),
                    ("(1+x1+x2+x3+x4)^20", 15, "terms"),
                    (f"{s8}^16", 47, "terms"), (f"{s8}^32", 47, "terms"),
                    (f"{s8}^4 * {s8}^4", 50, "terms"),
                    (f"1/{s8}^4 + 1/{t8}^4", 52, "terms"),
                    (f"1/{s8}^4 - a/{t8}^4", 52, "terms"),
                    ("((2^32)^32)^32 * x1", 7, "bits"),
                    ("x1 + " + "1" * 5000, 5, "bits"),
                    (str(widest + 1), 0, "bits"),
                    ("2^512 * 2^512", 6, "bits"),
                    ("x1 / (2^512 * x2 + 1) / (2^512 * x2 + 3)", 22, "bits"),
                    (" + ".join(f"1/(2^500*x1 + {i})" for i in range(1, 31)),
                     36, "bits"),
                    # A sum's denominator bound, then its numerator bound,
                    # each rejecting a case the other passes.
                    ("1/(x1 + 2^400) + 1/(x1 + 2^400 + 1)"
                     " + 1/(x1 + 2^400 + 2)", 36, "bits"),
                    ("2^512*2^510*x1/(x1 + 1) + 1/(x1 + 3)", 24, "bits")]
        for src, position, reason in rejected:
            with pytest.raises(ParseError, match=reason) as err:
                ctx.parse(src)
            assert err.value.position == position

    def test_long_unary_minus_chain(self, ctx):
        assert ctx.parse("-" * 3000 + "x1") == ctx.parse("x1")
        assert ctx.parse("-" * 3001 + "x1^2") == -ctx.parse("x1^2")

    def test_polynomial_identity_collapses(self, ctx):
        e = ctx.parse("(x1+1)^2 - x1^2 - 2*x1 - 1")
        assert e.is_zero

    def test_negative_exponential(self, ctx):
        e = ctx.parse("7/2 * exp(-1*x1)")
        assert e == ctx.rational(7, 2) * ctx.exponential("x1", -1)
        # numerator/denominator split: 7/2 over the exponential atom
        assert e.den == ctx.exponential("x1").num
        assert e == ctx.parse("7/2 * exp(-x1)")

    def test_sugar_and_precedence(self, ctx):
        assert ctx.parse("exp(x1)") == ctx.parse("exp(1*x1)")
        assert ctx.parse("-x1^2") == -(ctx.coordinate("x1") ** 2)
        assert ctx.parse("2*x1+3*x2") == 2 * ctx.coordinate("x1") + 3 * ctx.coordinate("x2")
        assert ctx.parse("1 - 2 - 3") == ctx.integer(-4)
        assert ctx.parse("12/3/2") == ctx.integer(2)
        assert ctx.parse("x1^-2") == ctx.coordinate("x1") ** (-2)

    def test_parameter(self, ctx):
        assert ctx.parse("a^2") == ctx.parameter("a") ** 2

    def test_syntax_error_position(self, ctx):
        with pytest.raises(ParseError) as err:
            ctx.parse("x1 + + x2")
        assert err.value.position == 5

    @pytest.mark.parametrize("src, position", [("2\u2075*x1", 1),
                                               ("\u0663", 0)])
    def test_only_ascii_digits_make_integer_literals(self, ctx, src,
                                                     position):
        # A superscript five is a digit to str.isdigit, but not to int();
        # an Arabic-Indic three is one to both.
        with pytest.raises(ParseError, match="unexpected character") as err:
            ctx.parse(src)
        assert err.value.position == position

    def test_unknown_identifier(self, ctx):
        with pytest.raises(ParseError, match="unknown identifier"):
            ctx.parse("x1 + y7")

    def test_non_integer_exponent(self, ctx):
        with pytest.raises(ParseError, match="integer literal exponent"):
            ctx.parse("x1^x2")
        with pytest.raises(ParseError, match="integer literal exponent"):
            ctx.parse("x1^(2)")

    def test_exp_argument_restrictions(self, ctx):
        with pytest.raises(ParseError, match="integer \\* coordinate"):
            ctx.parse("exp(x1+x2)")
        with pytest.raises(ParseError, match="integer \\* coordinate"):
            ctx.parse("exp(a)")
        with pytest.raises(ParseError, match="integer \\* coordinate"):
            ctx.parse("exp(2*a)")

    def test_trailing_input(self, ctx):
        with pytest.raises(ParseError, match="trailing"):
            ctx.parse("x1 x2")


class TestCombine:
    """Values combine through the arithmetic operators, canonically."""

    def test_additive_inverse(self, ctx):
        x1 = ctx.coordinate("x1")
        assert (x1 + -x1).is_zero

    def test_multiplicative_inverse(self, ctx):
        t1 = ctx.exponential("x1")
        assert (t1 * (ctx.one / t1)).is_one

    def test_division_matches_closed_form(self, ctx):
        # 3 / (2*(1+t)^2) times (2+t) equals 3*(2+exp(x1)) / (2*(1+exp(x1))^2)
        t = ctx.exponential("x1")
        lhs = ctx.integer(3) / (2 * (1 + t) ** 2) * (2 + t)
        rhs = ctx.parse("3*(2+exp(x1)) / (2*(1+exp(x1))^2)")
        assert lhs == rhs

    def test_div_by_zero(self, ctx):
        with pytest.raises(ExpressionError):
            ctx.one / ctx.zero

    def test_int_pow(self, ctx):
        x1 = ctx.coordinate("x1")
        assert (x1 + 1) ** 2 == ctx.parse("x1^2 + 2*x1 + 1")
        assert x1 ** -1 == 1 / x1
        with pytest.raises(ExpressionError):
            ctx.zero ** 0

    def test_commutativity_structural(self, ctx):
        rng = random.Random(7)
        pool = [ctx.parse(s) for s in
                ("x1", "exp(x1)", "1 + x2", "a*x1 - 3", "x3/(1+exp(x2))",
                 "7/2 * exp(-x1)", "x4^2 - a")]
        for _ in range(60):
            u, v = rng.choice(pool), rng.choice(pool)
            assert u + v == v + u
            assert u * v == v * u

    def test_associativity_structural(self, ctx):
        rng = random.Random(8)
        pool = [ctx.parse(s) for s in
                ("x1", "exp(x1)+1", "x2/(x3+2)", "a - x4", "5/3")]
        for _ in range(40):
            u, v, w = (rng.choice(pool) for _ in range(3))
            assert (u + v) + w == u + (v + w)
            assert (u * v) * w == u * (v * w)


def cancel_context():
    """A context with CANCEL_CTX's atoms and an empty cancellation memo."""
    return Context(["x1", "x2"], ["a"])


# Ring positions of CANCEL_CTX's generators: x1, x2, exp(x1), exp(x2), a.
CANCEL_CTX = cancel_context()
#: CANCEL_CTX's generators over Z in grevlex order: a sympy ring in which
#: the tests build operands with arithmetic, handing the kernel plain
#: dicts (dict(p)).
TEST_RING = ring(CANCEL_CTX.gens, ZZ, order="grevlex")[0]
#: CANCEL_CTX's generators over Q, in grevlex order: the ring of the
#: reference, built here rather than taken from the kernel.
REFERENCE_RING = ring(CANCEL_CTX.gens, QQ, order="grevlex")[0]
ALL_GENERATORS = (0, 1, 2, 3, 4)
GENERATOR_FAMILIES = [(2,), (0, 2), (1, 4), ALL_GENERATORS]
#: Numerator and denominator generators with none in common.
DISJOINT_FAMILIES = [((0,), (2,)), ((0, 2), (1, 3)), ((4,), (0, 1, 2, 3))]


@st.composite
def polynomials(draw, positions):
    """A nonzero integer polynomial of 1 to 3 terms in the given generators;
    one term is a monomial.  Over every generator, each one occurs.  The
    coefficients need not be coprime, and any of them may be negative.
    An element of TEST_RING."""
    terms = {}
    for t in range(draw(st.integers(1, 3))):
        monom = [0] * TEST_RING.ngens
        for pos in positions:
            low = 1 if positions == ALL_GENERATORS and t == 0 else 0
            monom[pos] = draw(st.integers(low, 2))
        terms[tuple(monom)] = draw(st.sampled_from([1, 2, 3, 4, 6, 12])) \
            * draw(st.integers(-5, 5).filter(bool))
    return TEST_RING.from_dict(terms)


@st.composite
def fractions_with_common_factor(draw):
    """(f*h, g*h) as dicts for polynomials f, g, h in one of the families
    of generators."""
    positions = draw(st.sampled_from(GENERATOR_FAMILIES))
    f, g, h = (draw(polynomials(positions)) for _ in range(3))
    return dict(f * h), dict(g * h)


@st.composite
def fractions_without_common_generator(draw):
    """(f, g) as dicts for polynomials f, g in disjoint families of
    generators."""
    num_positions, den_positions = draw(st.sampled_from(DISJOINT_FAMILIES))
    return (dict(draw(polynomials(num_positions))),
            dict(draw(polynomials(den_positions))))


FRACTIONS = st.one_of(fractions_with_common_factor(),
                      fractions_without_common_generator())


def over_q(p):
    """A kernel polynomial, a rational form's dict or a sympy polynomial,
    in REFERENCE_RING."""
    return REFERENCE_RING.from_dict({m: QQ(c.numerator, c.denominator)
                                     for m, c in dict(p).items()})


def as_fractions(p) -> dict:
    """A polynomial's coefficients as Fractions, whatever their rational
    type."""
    return {m: Fraction(c.numerator, c.denominator)
            for m, c in dict(p).items()}


@lru_cache(maxsize=None)
def lex_ring(gens: tuple):
    """A context's generators over Z in lex order: the sympy ring that
    checks the kernel's canonical form."""
    return ring(gens, ZZ, order=lex)[0]


def reference_canonical(num, den):
    """Cancel with PolyElement.gcd and quo in the full ring over Q, then make
    the denominator monic: num and den may be kernel or REFERENCE_RING
    polynomials."""
    num, den = over_q(num), over_q(den)
    if not num:
        return REFERENCE_RING.zero, REFERENCE_RING.one
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    lc = den.LC
    return num.quo_ground(lc), den.quo_ground(lc)


def assert_invariants(e):
    """e is stored as content * num / den: content a rational in lowest
    terms, num and den dicts from exponent tuples of the context's length
    to nonzero ints, primitive, coprime and with positive coefficients at
    their lex-largest exponent tuples; zero is 0 * 0 / 1.  The polynomial
    properties are checked by sympy in the context's lex ring."""
    ctx = e.ctx
    content = e.content
    assert type(content) is _Rational
    assert content.denominator > 0
    assert Fraction(content.numerator, content.denominator) == content
    assert type(e.num) is dict and type(e.den) is dict
    if not e.num:
        assert (content, e.den) == (0, ctx.unit)
        return
    assert content
    lex_gens = lex_ring(ctx.gens)
    num, den = (lex_gens.from_dict(p) for p in (e.num, e.den))
    for p, stored in ((num, e.num), (den, e.den)):
        assert all(type(c) is int and c for c in stored.values())
        assert all(len(m) == len(ctx.gens) for m in stored)
        assert p.content() == 1                        # primitive
        assert p.LC > 0                                # lex-leading > 0
    assert num.gcd(den) == lex_gens.one                # coprime over Z


def assert_canonical(e, num, den):
    """e satisfies the kernel's invariants, and its rational form (den monic
    under grevlex) is (num, den)."""
    assert_invariants(e)
    form = _rational_form(e)
    assert tuple(map(as_fractions, form)) == (as_fractions(num),
                                              as_fractions(den))
    assert over_q(form[1]).LC == QQ.one


CANCEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


@contextmanager
def calls_to(name):
    """The argument tuples of every call of curvzoo.exprs.<name> made inside
    the block; the kernel looks the function up by name, so the spy sees
    every call."""
    calls = []
    original = getattr(exprs, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exprs, name, spy)
        yield calls


def cofactors_in_subprocess(f, g, env):
    """gcd_cofactors(f, g), computed in a child interpreter with the
    environment env, which must answer within 30 s."""
    code = ("import ast, sys; from curvzoo.exprs import gcd_cofactors; "
            "print(gcd_cofactors(*ast.literal_eval(sys.stdin.read())))")
    proc = subprocess.run([sys.executable, "-c", code], input=repr((f, g)),
                          env=env, capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def on_gcd_path(f, g):
    """Whether _cancel(ctx, f, g) reaches gcd_cofactors: neither side is a
    monomial and the two share a generator."""
    shared = [any(a) and any(b) for a, b in zip(zip(*f), zip(*g))]
    return len(f) > 1 and len(g) > 1 and any(shared)


#: Canonical values of FRACTIONS times rational constants, and points for
#: CANCEL_CTX's atoms.
CANCEL_EXPRS = st.builds(
    lambda fraction, p, q: _normalized(CANCEL_CTX, *fraction) * Fraction(p, q),
    FRACTIONS, st.integers(-6, 6).filter(bool), st.integers(1, 6))
CANCEL_POINTS = st.tuples(*[st.builds(Fraction, st.integers(-30, 30),
                                      st.integers(1, 12))
                            for _ in CANCEL_CTX.atoms]).map(
    lambda values: dict(zip(CANCEL_CTX.atoms, values)))
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True, database=None)


class TestCancellation:
    """Cancellation of common factors against a full-ring reference: by
    monomials, over some generators and over every generator."""

    @CANCEL_SETTINGS
    @given(FRACTIONS)
    def test_normalized_matches_reference(self, fraction):
        num, den = fraction
        assert_canonical(_normalized(CANCEL_CTX, num, den),
                         *reference_canonical(num, den))

    @CANCEL_SETTINGS
    @given(CANCEL_EXPRS, CANCEL_EXPRS)
    def test_arithmetic_matches_reference(self, a, b):
        an, ad = map(over_q, _rational_form(a))
        bn, bd = map(over_q, _rational_form(b))
        assert_canonical(a + b, *reference_canonical(an * bd + bn * ad,
                                                     ad * bd))
        assert_canonical(a - b, *reference_canonical(an * bd - bn * ad,
                                                     ad * bd))
        assert_canonical(a * b, *reference_canonical(an * bn, ad * bd))
        assert_canonical(a / b, *reference_canonical(an * bd, ad * bn))

    @PROPERTY_SETTINGS
    @given(CANCEL_EXPRS, CANCEL_EXPRS, st.integers(-3, 3))
    def test_every_operation_returns_canonical_values(self, a, b, k):
        ctx = CANCEL_CTX
        results = [a + b, a - b, b - a, a * b, a / b, b / a, -a, a ** k,
                   a + ctx.rational(3, 7), a * Fraction(-5, 2), 2 - a,
                   (a * a).sqrt(), a.sqrt() or ctx.zero]
        results += [differentiate(a, i) for i in range(ctx.n)]
        for e in results:
            assert_invariants(e)
        assert (a * a).sqrt() in (a, -a)

    def test_disjoint_operands_skip_gcd(self, ctx):
        # 2 and 495 terms in 9 generators with none in common: coprime
        # without a gcd.
        with calls_to("gcd_cofactors") as calls:
            s8 = "(1+x1+x2+x3+x4+exp(x1)+exp(x2)+exp(x3)+exp(x4))"
            e = ctx.parse(f"(a+1)/{s8}^4")
        assert calls == []
        assert (len(e.num), len(e.den)) == (2, 495)


#: CANCEL_CTX's generators over the integers in lex order: the ring of the
#: gcd reference, where a polynomial's leading coefficient is its
#: lex-leading one, which the kernel makes positive.
LEX_RING = lex_ring(CANCEL_CTX.gens)


def reference_cofactors(f, g, h):
    """(h, f/h, g/h) as dicts, once sympy has confirmed in LEX_RING that h
    is the gcd of f and g with a positive lex-leading coefficient: h is
    primitive and divides both, and the two quotients are coprime.  A gcd
    of the quotients costs sympy far less than one of f and g: its
    heuristic gcd took 50 s on a drawn pair of 720 and 12 terms."""
    F, G, H = (LEX_RING.from_dict(p) for p in (f, g, h))
    A, B = F.exquo(H), G.exquo(H)
    assert H.content() == 1 and H.LC > 0
    assert A.gcd(B) == LEX_RING.one
    return dict(H), dict(A), dict(B)


def geometric(m, n):
    """1 + m + ... + m^(n-1), in TEST_RING."""
    return sum((m ** i for i in range(n)), TEST_RING.zero)


@st.composite
def gcd_operands(draw):
    """(f, g): f and g, as dicts, are the primitive parts of h a and
    h b for polynomials h, a and b in one family of generators, h with two
    terms or more, so that neither f nor g is a monomial; f is negated in
    some draws.  Some draws multiply h by (m - 1)(m^n - 1) and a by
    (1 + m + ... + m^(n-1))^2, for one generator m of the family: then h a
    has the factor (m^n - 1)^2 (1 + m + ... + m^(n-1)), with coefficients
    of at most 2, while the cofactor's reach n."""
    positions = draw(st.sampled_from(GENERATOR_FAMILIES))
    h = draw(polynomials(positions).filter(lambda p: len(p) > 1))
    a, b = draw(polynomials(positions)), draw(polynomials(positions))
    n = draw(st.sampled_from([0, 0, 8, 40]))
    if n:
        m = TEST_RING.gens[draw(st.sampled_from(positions))]
        h = h * (m - 1) * (m ** n - 1)
        a = a * geometric(m, n) ** 2
    f, g = _primitive(dict(h * a))[1], _primitive(dict(h * b))[1]
    if draw(st.booleans()):
        f = {m: -c for m, c in f.items()}
    return f, g


def as_test_ring(*polys):
    """Kernel polynomials as elements of TEST_RING."""
    return tuple(TEST_RING.from_dict(p) for p in polys)


def as_dicts(*polys):
    """TEST_RING polynomials as the kernel's dicts."""
    return tuple(map(dict, polys))


class TestGcdCofactors:
    """gcd_cofactors checked in sympy (reference_cofactors): the Kronecker
    heuristic gcd, its retries, the sparse pairs it packs up to its one
    bound, the pairs it leaves to the modular link, and the sign of the
    answer."""

    @PROPERTY_SETTINGS
    @given(gcd_operands())
    def test_matches_sympy_cofactors(self, operands):
        f, g = operands
        h, a, b = gcd_cofactors(f, g)
        assert (h, a, b) == reference_cofactors(f, g, h)
        H, A, B, F, G = as_test_ring(h, a, b, f, g)
        assert H * A == F and H * B == G
        # The Kronecker link answers right or not at all; it may leave even
        # a dense pair to the next link (see the test of a shared factor).
        assert _kronecker_cofactors(f, g) in (None, (h, a, b))

    def test_a_failed_candidate_doubles_the_field_width(self):
        x2, e1 = TEST_RING.gens[1:3]
        # f = (e1^70 - 1)^2 (1 + ... + e1^69) has coefficients of at most 2
        # and g of at most 3, so the first fields are 8 bits wide; the
        # cofactor (1 + ... + e1^69)^2 has coefficients up to 70, and
        # |h|_1 = 4 times 70 is past 2^7.
        h = (e1 - 1) * (e1 ** 70 - 1)
        f, g = as_dicts(h * geometric(e1, 70) ** 2, h * (x2 + 3))
        expected = as_dicts(h, geometric(e1, 70) ** 2, x2 + 3)
        with calls_to("_balanced_digits") as decoded:
            assert _kronecker_cofactors(f, g) == expected
        assert sorted({k for _, k in decoded}) == [8, 16]

    def test_operands_past_the_packing_cap_take_the_fallback(self):
        x1, x2 = TEST_RING.gens[:2]
        h = geometric(x1 + x2 + 2, 6)
        f, g = as_dicts(h * (x1 - 3 * x2), h * (x1 * x2 + 1))
        expected = as_dicts(h, x1 - 3 * x2, x1 * x2 + 1)
        assert _kronecker_cofactors(f, g) == expected
        # Radix 7 for x1 and for x2, and fields of at least 8 bits.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exprs, "GCD_PACKED_BITS", 7 * 7 * 8 - 1)
            assert _kronecker_cofactors(f, g) is None
            with calls_to("_modular_cofactors") as modular:
                assert gcd_cofactors(f, g) == expected
        assert modular == [(f, g)]
        assert expected == reference_cofactors(f, g, expected[0])

    def test_sparse_operands_pack(self):
        x1, x2, e1, e2, a = TEST_RING.gens
        h = x1 ** 12 * x2 + e1 ** 12 * e2 * a ** 12 - 3
        f, g = as_dicts(h * (x1 * e2 + 2), h * (x2 * a - 5))
        expected = as_dicts(h, x1 * e2 + 2, x2 * a - 5)
        # 14 * 3 * 13 * 3 * 14 fields for 12 terms, packed into fewer than
        # GCD_PACKED_BITS bits, so the Kronecker link answers.
        assert 14 * 3 * 13 * 3 * 14 * 8 < GCD_PACKED_BITS
        assert _kronecker_cofactors(f, g) == expected
        with calls_to("_modular_cofactors") as modular:
            assert gcd_cofactors(f, g) == expected
        assert modular == []
        assert expected == reference_cofactors(f, g, expected[0])
        assert _modular_cofactors(f, g) == expected

    def test_a_sparse_pair_at_the_packing_bound_answers_within_its_bound(
            self, src_env):
        # 8 * 9 * 5 * 7 * 13 fields of 8 bits: the first packing takes
        # 262,080 bits, just under GCD_PACKED_BITS, for 12 terms.  The
        # Kronecker link answers at that width in about 0.07 s on one core
        # of an Intel Xeon server, where the modular gcd takes 0.8 s.  A
        # subprocess with a timeout turns a regression into a failure, not
        # a hang.
        x1, x2, e1, e2, a = TEST_RING.gens
        h = x1 ** 6 * x2 ** 7 + e1 ** 4 * e2 ** 6 * a ** 12 - 3
        f, g = as_dicts(h * (x1 * x2 + 2), h * (x1 - 5))
        fields = 8 * 9 * 5 * 7 * 13
        assert GCD_PACKED_BITS - 64 <= fields * 8 <= GCD_PACKED_BITS
        result = cofactors_in_subprocess(f, g, src_env)
        assert result == as_dicts(h, x1 * x2 + 2, x1 - 5)
        assert result == reference_cofactors(f, g, result[0])
        with calls_to("_balanced_digits") as decoded:
            assert _kronecker_cofactors(f, g) == result
        assert {k for _, k in decoded} == {8}

    def test_substitution_may_share_a_factor_the_operands_do_not(self):
        x1, e1 = TEST_RING.gens[0], TEST_RING.gens[2]
        # Packing maps x1 to y^5 and e1 to y: b(y) = y^2 + 1 divides
        # a(y) = (1 + y^5 + ... + y^35)^2, since y^4 = 1 modulo y^2 + 1.
        # Every candidate then fails its certificate, at every width, so
        # the first one ends the link after a single packing, and the
        # modular link answers.
        h = (e1 ** 2 + 1) * (x1 - 1) * (x1 ** 8 - 1)
        a, b = geometric(x1, 8) ** 2, e1 ** 2 + 1
        f, g = as_dicts(h * a, h * b)
        with calls_to("_balanced_digits") as decoded:
            assert _kronecker_cofactors(f, g) is None
        assert len({k for _, k in decoded}) == 1
        with calls_to("_modular_cofactors") as modular:
            assert gcd_cofactors(f, g) == as_dicts(h, a, b)
        assert modular == [(f, g)]

    def test_fallback_makes_the_lex_leading_coefficient_positive(self):
        x1, x2 = TEST_RING.gens[:2]
        # x1 - x2^2 leads with x2^2 under grevlex and with x1 under lex:
        # sympy's grevlex ring makes the other sign positive.
        h = x1 - x2 ** 2
        f, g = h * (x1 + 1), h * (x2 + 3)
        assert f.cofactors(g) == (-h, -(x1 + 1), -(x2 + 3))
        # k leads with 2 x1^2 under lex and with -3 x2 under grevlex.
        k = 2 * x1 ** 2 - 3 * x2 + 3
        pairs = [(as_dicts(f, g), as_dicts(h, x1 + 1, x2 + 3)),
                 (as_dicts(x1 ** 2 * k, k * (2 * x1 ** 2 + x2)),
                  as_dicts(k, x1 ** 2, 2 * x1 ** 2 + x2))]
        # The modular link signs its answer as the Kronecker link does.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exprs, "_kronecker_cofactors", lambda f, g: None)
            for operands, expected in pairs:
                assert gcd_cofactors(*operands) == expected

    def test_coprime_operands_come_back_unchanged(self):
        x1, x2, e1 = TEST_RING.gens[:3]
        f, g = as_dicts(x1 * e1 + 2, x1 + x2)
        one, a, b = gcd_cofactors(f, g)
        assert one == CANCEL_CTX.unit and a is f and b is g


class TestGcdChain:
    """The modular link of gcd_cofactors' chain, called on its own and
    checked in sympy (reference_cofactors); a pair that sympy's heuristic
    gcd rejects, which the Kronecker link packs; its error past the last
    prime; and a pair large enough to stall a link whose work the degrees
    do not bound."""

    @PROPERTY_SETTINGS
    @given(gcd_operands())
    def test_modular_gcd_matches_sympy_cofactors(self, operands):
        f, g = operands
        result = _modular_cofactors(f, g)
        assert result == reference_cofactors(f, g, result[0])

    def test_a_pair_sympys_heuristic_rejects_packs(self):
        x1, x2, e1, _, a = TEST_RING.gens
        # g h has coefficients of 1, so sympy's recursive heuristic gcd
        # evaluates x1 at these six points, each a root of f: every image
        # of f h is 0.
        roots = [31, 169, 1385, 22702, 744261, 58966268]
        f = TEST_RING.one
        for r in roots:
            f *= x1 - r
        g, h = x1 * x2 + e1 ** 12 + 1, x2 + a + 1
        F, G = as_dicts(f * h, g * h)
        with pytest.raises(HeuristicGCDFailed):
            LEX_RING.from_dict(F).cofactors(LEX_RING.from_dict(G))
        # 7 * 3 * 13 * 2 fields for 30 terms: sparse, but within
        # GCD_PACKED_BITS, so the Kronecker link answers.
        result = _kronecker_cofactors(F, G)
        assert result == as_dicts(h, f, g)
        with calls_to("_modular_cofactors") as modular:
            assert gcd_cofactors(F, G) == result
        assert modular == []
        assert _modular_cofactors(F, G) == result
        # sympy's dense gcd falls back to its own remainder sequence.
        gens = symbols(CANCEL_CTX.gens)
        dense = Poly.from_dict(F, gens).cofactors(Poly.from_dict(G, gens))
        assert result == tuple(p.as_dict() for p in dense)

    def test_a_leading_coefficient_past_every_prime_is_an_error(self):
        # The lifted gcd needs a prime above twice the gcd of the
        # lex-leading coefficients, here past the last one, 2^44497 - 1.
        x1, x2 = TEST_RING.gens[:2]
        f, g = as_dicts(2 ** 44497 * x1 + x2, 2 ** 44497 * x1 - x2)
        with pytest.raises(ExpressionError):
            _modular_cofactors(f, g)

    def test_a_large_dense_pair_answers_within_its_bound(self, src_env):
        # A seeded pair in four generators: a planted gcd of 8 terms times
        # cofactors of 24 terms, each of degree up to 8 in every generator
        # with 68-bit coefficients, so about 190 terms of 136 bits a side.
        # The modular gcd answers it in about 1 s on one core of an Intel
        # Xeon server, where the recursive heuristic and the remainder
        # sequence it replaced each ran for more than 180 s.  A subprocess
        # with a timeout turns a regression into a failure, not a hang.
        rng = random.Random(7)

        def draw(terms):
            p = {}
            while len(p) < terms:
                monom = tuple(rng.randint(0, 8) for _ in range(4)) + (0,)
                p[monom] = rng.choice([-1, 1]) * rng.getrandbits(68)
            return TEST_RING.from_dict(p)

        h, a, b = draw(8), draw(24), draw(24)
        f, g = (_primitive(dict(h * c))[1] for c in (a, b))
        assert 180 < min(len(f), len(g)) and max(len(f), len(g)) <= 192
        assert max(map(abs, f.values())).bit_length() >= 136
        result = cofactors_in_subprocess(f, g, src_env)
        assert result[0] == _primitive(dict(h))[1]
        assert result == reference_cofactors(f, g, result[0])


class TestExactQuotient:
    def test_quotients_and_non_divisors(self):
        x1, x2, e1, _, a = TEST_RING.gens
        for q, g in ((x1 - 2, x1 + 1), (3 * x2 * a - e1, 2 * x1 * e1 - 5),
                     (x1 * x2 + 7, TEST_RING(4)), (x1 ** 3 - a, 6 * x1 * e1)):
            f, g, q = as_dicts(q * g, g, q)
            assert _quotient(f, g) == q
        # A remainder, a coefficient that does not divide, an exponent
        # below the divisor's, each by a polynomial and by a monomial.
        for f, g in ((x1 ** 2 + 1, x1 + 1), (3 * x1 + 2, 2 * x1 + 2),
                     (x1 * x2 + 1, x2 ** 2 + x1), (2 * x1 ** 2, 3 * x1),
                     (x1 + x2, x1), (x1 ** 2 * e1, x1 ** 3)):
            assert _quotient(*as_dicts(f, g)) is None


class TestSquareRoot:
    def test_squares_and_non_squares(self):
        x1, x2, e1, _, a = TEST_RING.gens
        madd = CANCEL_CTX._madd
        for root in (x1 - x2, 3 * x1 * e1 ** 2 + a - 7, x1 ** 3 + x2 ** 3
                     + 2 * e1 * a + 1, TEST_RING.one):
            (p,) = as_dicts(root * root)
            assert _poly_sqrt(p, madd) == dict(root)
        # Leading terms that are squares, with a remainder whose leading
        # term leaves the root's box or is not divisible by twice the
        # root's leading coefficient.
        for p in (x1 ** 2 + x2, x1 ** 2 + 2 * x1 + 2, 4 * x1 ** 2 + x1 + 1,
                  (x1 + 1) ** 2 * (x2 + 1), x1 ** 2 * x2 + 1,
                  9 * x1 ** 2 - a ** 4):
            assert _poly_sqrt(dict(p), madd) is None


class TestRational:
    """The content type against Fraction."""

    RATIONALS = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                          st.integers(1, 10 ** 12))

    @PROPERTY_SETTINGS
    @given(RATIONALS, RATIONALS, st.integers(-50, 50), st.integers(-4, 4))
    def test_operations_match_fraction(self, x, y, k, e):
        a, b = (_Rational(v.numerator, v.denominator) for v in (x, y))
        results = [(a * b, x * y), (a + b, x + y), (-a, -x), (a * k, x * k),
                   (k * a, k * x), (a + k, x + k), (k + a, k + x)]
        if x:
            results += [(1 / a, 1 / x), (k / a, k / x), (a ** e, x ** e)]
        for got, want in results:
            assert type(got) is _Rational
            assert (got.numerator, got.denominator) == (want.numerator,
                                                        want.denominator)
            assert got == want and hash(got) == hash(want)
        assert (a == b) == (x == y) and (a < b) == (x < y)
        assert (a == k) == (x == k) and (a < k) == (x < k)
        assert str(a) == str(x) and bool(a) == bool(x)

    def test_hash_matches_fraction_at_the_modulus(self):
        modulus = 2 ** 61 - 1
        for p, q in ((1, modulus), (-3, modulus), (modulus, 1), (-1, 1),
                     (-1, 2)):
            assert hash(_Rational(p, q)) == hash(Fraction(p, q))
        with pytest.raises(ZeroDivisionError):
            _Rational(1, 0)


class TestCancellationMemo:
    """Each context memoizes the polynomial-path cancellations of operand
    pairs with at most CANCEL_MEMO_TERMS terms together."""

    def test_repeated_pair_runs_one_gcd(self):
        ctx = cancel_context()
        x1, x2, e1, _, a = TEST_RING.gens
        f, g = as_dicts((x1 + a) * (x2 + 1), (x1 + a) * (e1 - 2))
        with calls_to("gcd_cofactors") as calls:
            first = _cancel(ctx, f, g)
            second = _cancel(ctx, dict(f), dict(g))  # equal, not identical
        assert len(calls) == 1
        assert second == first == as_dicts(x1 + a, x2 + 1, e1 - 2)

    @CANCEL_SETTINGS
    @given(FRACTIONS)
    def test_memo_hit_matches_reference_and_fresh_context(self, fraction):
        num, den = fraction
        ctx = cancel_context()
        # _normalized cancels the primitive parts.
        key = _primitive(num)[1], _primitive(den)[1]
        _cancel(ctx, *key)
        with calls_to("gcd_cofactors") as calls:
            hit = _normalized(ctx, num, den)
        assert calls == []
        assert (_memo_key(*key) in ctx._cancelled) == on_gcd_path(num, den)
        fresh = _normalized(cancel_context(), num, den)
        assert (hit.num, hit.den) == (fresh.num, fresh.den)
        assert_canonical(hit, *reference_canonical(num, den))

    def test_memo_bound(self):
        # (x1 + 1) * (1 + x2 + ... + x2^(m-1)) has 2m terms; against x1 + 1
        # the pair has 2m + 2.  Stored up to CANCEL_MEMO_TERMS terms.
        ctx = cancel_context()
        x1, x2 = TEST_RING.gens[:2]

        def pair(total):
            m = (total - 2) // 2
            f = (x1 + 1) * geometric(x2, m)
            assert len(f) + 2 == total
            return as_dicts(f, x1 + 1)

        within = pair(CANCEL_MEMO_TERMS)
        _cancel(ctx, *within)
        assert list(ctx._cancelled) == [_memo_key(*within)]
        h, _, unit = _cancel(ctx, *pair(CANCEL_MEMO_TERMS + 2))
        assert (h, unit) == (dict(x1 + 1), ctx.unit)
        assert list(ctx._cancelled) == [_memo_key(*within)]

    def test_memo_dies_with_its_chart(self):
        chart = builtin("ex5_4").to_chart()
        riemann(chart)
        assert chart.ctx._cancelled
        ref = weakref.ref(chart.ctx)
        del chart
        gc.collect()
        assert ref() is None


class TestZeroTest:
    def test_zero(self, ctx):
        assert ctx.zero.is_zero

    def test_independent_atoms(self, ctx):
        assert not (ctx.exponential("x1") - ctx.coordinate("x1")).is_zero

    def test_expansion(self, ctx):
        t1 = ctx.exponential("x1")
        assert ((1 + t1) ** 2 - 1 - 2 * t1 - t1 ** 2).is_zero


class TestDifferentiate:
    @PROPERTY_SETTINGS
    @given(CANCEL_EXPRS, CANCEL_EXPRS)
    def test_product_and_quotient_rules(self, a, b):
        for i in range(CANCEL_CTX.n):
            da, db = differentiate(a, i), differentiate(b, i)
            assert differentiate(a * b, i) == da * b + a * db
            assert differentiate(a / b, i) == (da * b - a * db) / (b * b)

    def test_exponential_rule(self, ctx):
        t1 = ctx.exponential("x1")
        assert differentiate(t1, 0) == t1

    def test_product_rule(self, ctx):
        x1, t1 = ctx.coordinate("x1"), ctx.exponential("x1")
        assert differentiate(x1 * t1, 0) == t1 + x1 * t1

    def test_quotient_rule_frozen(self, ctx):
        # Hand quotient rule: d/dx1 (-3/(2 x1^3)) = 9/(2 x1^4).
        e = ctx.parse("-3/(2*x1^3)")
        assert differentiate(e, 0) == ctx.parse("9/(2*x1^4)")

    def test_parameters_are_constant(self, ctx):
        assert differentiate(ctx.parameter("a") ** 3, 0).is_zero

    @pytest.mark.parametrize("name", ["a", "zz"])
    def test_non_coordinate_name_rejected(self, ctx, name):
        with pytest.raises(ExpressionError,
                           match=f"^'{name}' is not a coordinate"):
            ctx.parse("a*x1").diff(name)

    def test_mixed_partials_commute(self, ctx):
        rng = random.Random(5)
        pool = [ctx.parse(s) for s in
                ("x1*x2*exp(x1)", "x1/(x2+1)", "exp(2*x1)*exp(-x2) + a*x3",
                 "(x1+x2)^3/(1+exp(x1))")]
        for e in pool:
            for _ in range(4):
                i, j = rng.randrange(4), rng.randrange(4)
                assert differentiate(differentiate(e, i), j) == \
                    differentiate(differentiate(e, j), i)


class TestEvaluate:
    @PROPERTY_SETTINGS
    @given(CANCEL_EXPRS, CANCEL_EXPRS, CANCEL_POINTS)
    def test_exact_evaluation_is_a_homomorphism(self, a, b, point):
        # Where a and b are defined, so are a + b, a * b and, unless b
        # vanishes, a / b: their denominators divide a.den * b.den and
        # a.den * b.num.
        try:
            va, vb = (evaluate_rational(e, point) for e in (a, b))
        except EvaluationError:
            reject()
        assert evaluate_rational(a + b, point) == va + vb
        assert evaluate_rational(a * b, point) == va * vb
        if vb:
            assert evaluate_rational(a / b, point) == va / vb

    @PROPERTY_SETTINGS
    @given(CANCEL_EXPRS, CANCEL_EXPRS, CANCEL_POINTS)
    def test_modular_evaluation_is_a_homomorphism(self, a, b, point):
        p = ORACLE_PRIME
        try:
            ra, rb = (modular_value(e, point, p) for e in (a, b))
        except EvaluationError:
            reject()
        assert modular_value(a + b, point, p) == (ra + rb) % p
        assert modular_value(a * b, point, p) == ra * rb % p
        if rb:
            assert modular_value(a / b, point, p) == ra * pow(rb, -1, p) % p

    def test_direct_substitution(self, ctx):
        e = ctx.parse("exp(x1)/(1+x1)")
        point = {atom(ctx, "coord", 0): Fraction(1),
                 atom(ctx, "exp", 0): Fraction(3)}
        assert evaluate_rational(e, point) == Fraction(3, 2)

    def test_zero_everywhere(self, ctx):
        e = ctx.parse("(x1+1)^2 - x1^2 - 2*x1 - 1")
        assert evaluate_rational(e, {}) == 0

    def test_frozen_exponential_point(self, ctx):
        # Hand substitution: (7/2) * t^-1 at t = 2 gives 7/4.
        e = ctx.parse("7/2 * exp(-x1)")
        assert evaluate_rational(e, {atom(ctx, "exp", 0): 2}) == Fraction(7, 4)

    def test_denominator_hit(self, ctx):
        e = ctx.parse("1/(x1-1)")
        with pytest.raises(EvaluationError):
            evaluate_rational(e, {atom(ctx, "coord", 0): 1})

    def test_missing_atom(self, ctx):
        with pytest.raises(ExpressionError, match="no value"):
            evaluate_rational(ctx.parse("x2"), {})

    @pytest.mark.parametrize("modulus", [None, MERSENNE_61])
    def test_foreign_atoms_have_no_position(self, modulus):
        # Atoms of a larger context are not atoms of a smaller one: the exp
        # of x4 must not stand in for parameter a, which sits at the same
        # ring position, and a second parameter must not read past the end.
        small = Context(["x1", "x2", "x3"], ["a"])
        large = Context(["x1", "x2", "x3", "x4"], ["a", "b"])
        point = {atom(small, "coord", 0): 2}
        evaluate = (evaluate_rational if modulus is None
                    else partial(modular_value, p=modulus))
        for foreign in (atom(large, "exp", 3), atom(large, "param", 1)):
            with pytest.raises(ExpressionError,
                               match="^no value assigned to atom a$"):
                evaluate(small.parse("a + x1"), {**point, foreign: 9})

    def test_respects_arithmetic(self, ctx):
        rng = random.Random(11)
        pool = [ctx.parse(s) for s in
                ("x1 + exp(x2)", "a/(x3+1)", "x4^2 - 2", "exp(-x1) * x2")]
        for _ in range(50):
            u, v = rng.choice(pool), rng.choice(pool)
            point = {a: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                     for a in ctx.atoms}
            try:
                lhs = evaluate_rational(u * v, point)
                rhs = evaluate_rational(u, point) * evaluate_rational(v, point)
                assert lhs == rhs
                lhs = evaluate_rational(u + v, point)
                rhs = evaluate_rational(u, point) + evaluate_rational(v, point)
                assert lhs == rhs
            except EvaluationError:
                continue

    def test_modular_matches_exact(self, ctx):
        # Reduction mod p commutes with evaluation, including non-unit
        # rational coefficients, negative exp powers and parameters.
        p = MERSENNE_61
        rng = random.Random(23)
        pool = [ctx.parse(s) for s in
                ("7/2*exp(-x1)", "a/(x3+1) - 5/3*x2^2",
                 "exp(-2*x2) * a^3 / (x1 - 2/7)",
                 "(x4*exp(x3) + 11/13) / (a*x1 + exp(-x4))")]
        checked = 0
        for _ in range(60):
            e = rng.choice(pool) * rng.choice(pool) - rng.choice(pool)
            point = {a: Fraction(rng.randint(1, 10 ** 6),
                                 rng.randint(1, 10 ** 6))
                     for a in ctx.atoms}
            exact = evaluate_rational(e, point)
            expected = exact.numerator * pow(exact.denominator, -1, p) % p
            assert modular_value(e, point, p) == expected
            # The point drawn as residues, as the oracle draws it.
            residues = {a: residue(v, p) for a, v in point.items()}
            assert modular_value(e, residues, p) == expected
            checked += 1
        assert checked == 60

    def test_compiled_coefficients_are_residues(self, ctx):
        # The stored form is (2/3) (x1^3 + 6 x2) / (2 x1 + 7): each integer
        # coefficient is reduced when the value is compiled, the content's
        # residue folded into the numerator's.  The power tables reach each
        # atom's highest exponent and no further.
        p = MERSENNE_61
        compiled = ModularExpr(ctx.parse("(x1^3/3 + 2*x2) / (x1 + 7/2)"), p)
        assert sorted(compiled.num) == [(4, ((1, 1),)), (
            residue(Fraction(2, 3), p), ((0, 3),))]
        assert sorted(compiled.den) == [(2, ((0, 1),)), (7, ())]
        assert compiled.degrees[:2] == (3, 1)
        assert not any(compiled.degrees[2:])
        assert ModularExpr(ctx.parse("x1^2 + 1"), p).den is None

    def test_missing_atom_reported_before_no_residue(self, ctx):
        # x1 + x2/p is (1/p) (p x1 + x2): its content has no residue, so it
        # fails at every point, but a missing atom is reported first.
        p = MERSENNE_61
        x1, x2 = atom(ctx, "coord", 0), atom(ctx, "coord", 1)
        unreducible = ctx.parse("x1") + ctx.rational(1, p) * ctx.parse("x2")
        compiled = ModularExpr(unreducible, p)
        assert compiled.num is None
        with pytest.raises(EvaluationError):
            compiled.at(residue_powers(ctx, {x1: 2, x2: 3}, p,
                                       compiled.degrees))
        for e in (unreducible, ctx.parse("x1 + x2")):
            with pytest.raises(ExpressionError,
                               match="^no value assigned to atom x1$") as info:
                modular_value(e, {x2: 3}, p)
            assert not isinstance(info.value, EvaluationError)

    def test_modular_denominator_hits(self, ctx):
        # Each denominator that vanishes only mod p is a retry, not a value:
        # the expression's, a coefficient's and the point's.
        p = MERSENNE_61
        x1 = atom(ctx, "coord", 0)
        e = ctx.parse("1/(x1 - 1)")
        point = {x1: 1 + p}
        assert evaluate_rational(e, point) == Fraction(1, p)
        with pytest.raises(EvaluationError):
            modular_value(e, point, p)
        with pytest.raises(EvaluationError):
            modular_value(ctx.rational(1, p), {}, p)
        with pytest.raises(EvaluationError):
            modular_value(ctx.parse("x1"), {x1: Fraction(1, p)}, p)

    def test_leading_coefficient_divisible_by_p(self, ctx):
        # p divides the denominator's leading coefficient but not its
        # value: 1/(p x1 + 1) reads 1 mod p wherever x1 has a residue.
        p = MERSENNE_61
        x1 = atom(ctx, "coord", 0)
        e = ctx.parse(f"1/({p}*x1 + 1)")
        for value in (Fraction(3), Fraction(-5, 7), Fraction(10 ** 6, 3)):
            exact = evaluate_rational(e, {x1: value})
            expected = exact.numerator * pow(exact.denominator, -1, p) % p
            assert modular_value(e, {x1: value}, p) == expected == 1

    def test_randomized_soundness(self, ctx):
        # A canonically nonzero value must not vanish on 200 random samples;
        # disagreement between is_zero and sampling is a failure.
        rng = random.Random(42)
        nonzero = [ctx.parse(s) for s in
                   ("x1 - x2", "exp(x1) - x1", "(x1+x2)^2 - x1^2 - x2^2",
                    "a*exp(-x3) - 1")]
        for e in nonzero:
            assert not e.is_zero
            hits = 0
            for _ in range(200):
                point = {a: Fraction(rng.randint(1, 10 ** 6),
                                     rng.randint(1, 10 ** 6))
                         for a in ctx.atoms}
                try:
                    if evaluate_rational(e, point) == 0:
                        hits += 1
                except EvaluationError:
                    continue
            assert hits == 0


class TestPrinting:
    def test_target_forms(self, ctx):
        assert str(ctx.parse("7/2 * exp(-1*x1)")) == "7/2 * exp(-x1)"
        assert str(ctx.zero) == "0"
        assert str(ctx.parse("-3/(2*x1^3)")) == "-3/2 / x1^3"

    def test_roundtrip_random(self, ctx5):
        rng = random.Random(13)
        leaves = ["x1", "x5", "exp(x1)", "exp(-2*x5)", "3", "5/7", "x2", "x3"]
        ops = ["+", "-", "*", "/"]

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(leaves)
            return f"({build(depth - 1)} {rng.choice(ops)} {build(depth - 1)})"

        for _ in range(120):
            src = build(3)
            try:
                e = ctx5.parse(src)
            except ExpressionError:
                continue
            assert ctx5.parse(str(e)) == e

    def test_roundtrip_multiterm_denominator(self, ctx):
        e = ctx.parse("3*(2+exp(x1)) / (2*(1+exp(x1))^2)")
        assert ctx.parse(str(e)) == e


class TestContext:
    def test_atom_inventory(self, ctx):
        kinds = [a.kind for a in ctx.atoms]
        assert kinds.count("coord") == 4
        assert kinds.count("exp") == 4
        assert kinds.count("param") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ExpressionError):
            Context(["x", "x"])
        with pytest.raises(ExpressionError):
            Context(["x"], ["x"])
        with pytest.raises(ExpressionError):
            Context(["exp"])

    def test_equality_interoperates(self):
        c1 = Context(["u", "v", "w"])
        c2 = Context(["u", "v", "w"])
        assert c1 == c2
        assert c1.parse("u + v") == c2.parse("u + v")
        assert c1.parse("exp(u)/(1 + w)") == c2.parse("exp(u)/(1 + w)")

    def test_same_position_in_other_contexts_differs(self):
        # x1 and y1 are the first generator of their contexts, with equal
        # monomial dicts; only the contexts tell them apart.
        x1 = Context(["x1", "x2", "x3"]).parse("x1")
        y1 = Context(["y1", "y2", "y3"]).parse("y1")
        assert dict(x1.num) == dict(y1.num)
        assert x1 != y1 and not x1 == y1

    def test_values_of_other_contexts_differ(self):
        # One generator each: equal monomial dicts, equal contents.
        x1 = Context(["x1"]).parse("x1")
        y1 = Context(["y1"]).parse("y1")
        assert dict(x1.num) == dict(y1.num) and x1.content == y1.content
        assert x1 != y1 and not x1 == y1
        # Equal coordinates, other parameters: exp(x1)/(x1 + 1) has the same
        # dicts in both, and so has the parameter a against b.
        plain, with_a, with_b = (Context(["x1"], params) for params in
                                 ((), ("a",), ("b",)))
        text = "exp(x1)/(x1 + 1)"
        assert plain.parse(text) != with_a.parse(text)
        assert with_a.parse("a") != with_b.parse("b")
        assert with_a.parse(text) == Context(["x1"], ["a"]).parse(text)

    def test_one_context_compares_without_ring_check(self, ctx,
                                                     monkeypatch):
        # Values of one context compare without Context.__eq__, the check
        # that tells other contexts' values apart.
        a, b = ctx.parse("x1/(1 + x2)"), ctx.parse("x1/(1 + x2)")
        c = ctx.parse("x1/(2 + x2)")

        def context_check(*_):
            raise AssertionError("Context.__eq__ called")

        monkeypatch.setattr(Context, "__eq__", context_check)
        assert a == b and a != c and not a == ctx.parse("x1")
