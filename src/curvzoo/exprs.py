"""Exact scalar arithmetic for curvature computations.

Every scalar handled by this package is a rational function, with exact
rational coefficients, in a fixed finite set of *atoms* attached to a chart:

* one atom per coordinate ``x``,
* one exponential atom per coordinate, denoting ``exp(x)`` (integer powers
  ``exp(k*x)`` are powers of that atom),
* one atom per named constant parameter.

The atoms are algebraically independent, so an expression is canonically a
reduced fraction of multivariate polynomials.  An ``Expr`` stores it as
``content * num / den``: ``content`` is a rational (0 for zero), and ``num``
and ``den`` are polynomials with integer coefficients, primitive (the gcd of
each one's coefficients is 1), coprime, and each with a positive coefficient
at its lex-largest exponent tuple; zero is ``0 * 0 / 1``.  By Gauss's lemma
this form is unique, so structural equality of canonical forms decides
mathematical equality, which is the zero-test every classifier in this
package ultimately rests on: ``e.is_zero``.  Values are combined only
through the arithmetic operators (``+ - * /`` and integer ``**``), against
Expr, int and Fraction operands.  The same value over Q with a denominator that
is monic under grevlex (``_rational_form``) is rebuilt on demand for its two
readers, printing and the parser's coefficient-size bound; it is never
stored.

Differentiation uses d(x)/dx = 1, d(exp(x))/dx = exp(x) and kills parameters;
it is extended by linearity and the product/quotient rules.  Because atoms are
independent, substituting independent values for them (including the
exponential atoms) is a sound Schwartz-Zippel style zero test.
``evaluate_rational`` substitutes exact rationals into the stored form, and
is the reference.  ``ModularExpr`` substitutes residues modulo a prime p: it
reduces the integer coefficients of the stored form once, with the content's
residue folded into the numerator, so that the value can be evaluated at
many points, each given as per-atom power tables (``residue_powers``).
Reduction mod p is a ring homomorphism wherever the denominators it meets
are units, so an identity that holds in the field holds mod p, and a
nonzero value reads 0 only at a root of its numerator or when p divides it.

Polynomials are plain dicts from exponent tuples, indexed by ring position
(coordinates, exponential atoms, parameters), to nonzero Python ints; the
zero polynomial is the empty dict.  Terms are printed in grevlex order.
The content is a ``_Rational``, two ints in lowest terms that hash as the
equal ``Fraction``.  Rational coefficients live only in the content: a
negation flips it, a quotient swaps numerator and denominator, a product of
canonical parts multiplies contents and polynomials and needs no content
pass, and a sum scales each side by its integer cofactor of the gcd of the
two contents before it takes the content of the result.  Products add
exponent tuples with a function generated once per number of generators.
Common factors are cancelled by ``_cancel``: when either side is a
monomial the gcd is the exponent-wise minimum monomial and the cofactors
follow by subtracting exponents, with no polynomial division; otherwise
``gcd_cofactors`` computes the gcd and both cofactors at once by a chain
of three methods, composed there alone and tried in order:

1. the heuristic gcd GCDHEU (Char, Geddes and Gonnet, 1989) with one
   Kronecker substitution: each polynomial is packed into one Python int,
   so one integer gcd and two exact integer divisions, all run in C, give
   a candidate, which is accepted only with a certificate that it is the
   gcd;
2. for operands too large or too sparse to pack, and candidates that fail,
   the recursive heuristic gcd of Liao and Fateman (1995), which evaluates
   one generator at a time at an integer and checks its candidates by
   exact division;
3. when that fails too, a primitive polynomial remainder sequence (Collins,
   1967; Brown, 1971) in the lex-leading generator, with the contents in
   the other generators taken by the same sequence, which always answers;
   the cofactors then follow by exact division.

``gcd_cofactors`` then makes the gcd's lex-leading coefficient positive, so
the gcd of two primitive operands is primitive with a positive lex-leading
coefficient, and so are both quotients when the operands have positive
lex-leading coefficients.  Derivatives read each term's exponents
at the known ring positions; square roots are taken term by term from the
lex-leading one.  The grammar, canonicalization, cancellation, derivatives,
evaluation and printing all live here.

The gcd path of ``_cancel`` is memoized on the ``Context``, so there is one
memo per chart and it is freed with the chart: the key is the ordered pair
of operand polynomials, compared by value, and the value is the cancelled
triple.  Only pairs with at most ``CANCEL_MEMO_TERMS`` terms together are
kept, which bounds the memo's memory by that of the chart's small values.  A
hit shares polynomials between expressions, as ``Context.unit`` does, so
no code may mutate a polynomial in place once it is returned; every
operation here builds a new one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, product
from math import comb, gcd, isqrt, lcm
from operator import add, and_, mul, sub
from typing import Mapping, Optional, Sequence, Union


class ExpressionError(ValueError):
    """Base class for errors raised by the expression layer."""


class ParseError(ExpressionError):
    """Source text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ExpressionError):
    """A rational evaluation hit a vanishing denominator."""


@dataclass(frozen=True)
class Atom:
    """One generator of a chart's coefficient field.

    kind is "coord", "exp" (the exponential of a coordinate) or "param";
    index refers to the coordinate/parameter position in the context.
    """

    kind: str
    index: int
    name: str


Number = Union[int, Fraction]


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class _Rational:
    """An exact rational numerator/denominator in lowest terms, with a
    positive denominator: an Expr's content and the coefficients of its
    rational form.  Immutable by convention.  It adds, multiplies and
    orders with ints and with itself, compares equal with ints, Fractions
    and itself, and hashes as the equal Fraction, so sets and dicts of
    Exprs keep their order."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = gcd(numerator, denominator)
        if g != 1:
            numerator //= g
            denominator //= g
        self.numerator = numerator
        self.denominator = denominator

    def __mul__(self, other):
        if type(other) is _Rational:
            ap, aq = self.numerator, self.denominator
            bp, bq = other.numerator, other.denominator
            x1, x2 = gcd(ap, bq), gcd(bp, aq)
            return _rat((ap // x1) * (bp // x2), (aq // x2) * (bq // x1))
        if type(other) is int:
            x = gcd(other, self.denominator)
            return _rat(self.numerator * (other // x), self.denominator // x)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        ap, aq = self.numerator, self.denominator
        if type(other) is int:
            return _rat(ap + other * aq, aq)
        if type(other) is not _Rational:
            return NotImplemented
        bp, bq = other.numerator, other.denominator
        g = gcd(aq, bq)
        if g == 1:
            return _rat(ap * bq + aq * bp, aq * bq)
        q1, q2 = aq // g, bq // g
        p = ap * q2 + bp * q1
        g2 = gcd(p, g)
        return _rat(p // g2, q1 * q2 * (g // g2))

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.numerator, self.denominator)

    def __rtruediv__(self, other):
        if type(other) is not int:
            return NotImplemented
        p, q = self.numerator, self.denominator
        if not p:
            raise ZeroDivisionError("division by zero")
        x = gcd(p, other)
        if p < 0:
            return _rat(-q * (other // x), -p // x)
        return _rat(q * (other // x), p // x)

    def __pow__(self, k: int):
        if k < 0:
            return (1 / self) ** -k
        return _rat(self.numerator ** k, self.denominator ** k)

    def __eq__(self, other):
        if type(other) is _Rational or isinstance(other, Fraction):
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        if type(other) is int:
            return self.denominator == 1 and self.numerator == other
        return NotImplemented

    def __lt__(self, other):
        if type(other) is int:
            return self.numerator < other * self.denominator
        if type(other) is _Rational:
            return (self.numerator * other.denominator
                    < other.numerator * self.denominator)
        return NotImplemented

    def __hash__(self):
        p, q = self.numerator, self.denominator
        if q == 1:
            return hash(p)
        # Fraction.__hash__.
        try:
            inverse = pow(q, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(hash(abs(p)) * inverse)
        h = h if p >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return self.numerator != 0

    def __str__(self):
        p, q = self.numerator, self.denominator
        return f"{p}" if q == 1 else f"{p}/{q}"

    def __repr__(self):
        return f"_Rational({self.numerator}, {self.denominator})"


_new_object = object.__new__


def _rat(p: int, q: int) -> _Rational:
    """p/q for p and q already in lowest terms with q > 0."""
    r = _new_object(_Rational)
    r.numerator = p
    r.denominator = q
    return r


_ONE = _rat(1, 1)
_ZERO = _rat(0, 1)

#: Generated monomial operations, by (name, number of generators).
_MONOMIAL_OPS: dict = {}

_MONOMIAL_TEMPLATES = {"add": "{a} + {b}", "sub": "{a} - {b}",
                       "min": "min({a}, {b})"}


def _monomial_op(name: str, n: int):
    """The function of two exponent tuples of length n that applies the
    named operation ("add", "sub" or "min") position by position, generated
    once per (name, n) with the tuples unpacked, which is faster than a map
    over the two tuples."""
    op = _MONOMIAL_OPS.get((name, n))
    if op is None:
        a = [f"a{i}" for i in range(n)]
        b = [f"b{i}" for i in range(n)]
        body = ", ".join(_MONOMIAL_TEMPLATES[name].format(a=x, b=y)
                         for x, y in zip(a, b))
        code = (f"def op(A, B):\n    ({', '.join(a)},) = A\n"
                f"    ({', '.join(b)},) = B\n    return ({body},)\n")
        namespace: dict = {}
        exec(code, namespace)
        op = _MONOMIAL_OPS[name, n] = namespace["op"]
    return op


class Context:
    """Declared coordinate and parameter names, and the chart's generators.

    Ring generators are ordered: coordinates, exponential atoms (one per
    coordinate, in coordinate order), parameters; ``gens`` names them, and
    every exponent tuple is indexed by that order.  ``unit`` is the
    polynomial 1, shared by every value with denominator 1, so it must
    never be mutated.  Contexts with equal declarations produce
    interoperable expressions.
    """

    __slots__ = ("coords", "params", "gens", "unit", "atoms", "_atom_pos",
                 "_coord_pos", "_param_pos", "_zero", "_one", "_ints",
                 "_cancelled", "_madd", "_mgcd", "_msub", "__weakref__")

    def __init__(self, coords: Sequence[str], params: Sequence[str] = ()):
        coords = tuple(coords)
        params = tuple(params)
        seen: set[str] = set()
        for name in coords + params:
            if not name.isidentifier():
                raise ExpressionError(f"invalid atom name {name!r}")
            if name == "exp":
                raise ExpressionError("'exp' is reserved")
            if name in seen:
                raise ExpressionError(f"duplicate atom name {name!r}")
            seen.add(name)
        self.coords = coords
        self.params = params
        self.gens = (coords + tuple(f"_exp_{c}" for c in coords) + params)
        ngens = len(self.gens)
        self.unit = {(0,) * ngens: 1}
        self._madd = _monomial_op("add", ngens)
        self._mgcd = _monomial_op("min", ngens)
        self._msub = _monomial_op("sub", ngens)
        atoms = [Atom("coord", i, c) for i, c in enumerate(coords)]
        atoms += [Atom("exp", i, f"exp({c})") for i, c in enumerate(coords)]
        atoms += [Atom("param", j, p) for j, p in enumerate(params)]
        self.atoms = tuple(atoms)
        self._atom_pos = {atom: pos for pos, atom in enumerate(atoms)}
        self._coord_pos = {c: i for i, c in enumerate(coords)}
        self._param_pos = {p: j for j, p in enumerate(params)}
        self._zero = Expr(self, _ZERO, {}, self.unit)
        self._one = Expr(self, _ONE, self.unit, self.unit)
        self._ints = {0: self._zero, 1: self._one}
        # _cancel's memo: _memo_key(f, g) -> (h, f/h, g/h).
        self._cancelled: dict = {}

    @property
    def n(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (isinstance(other, Context)
                and self.coords == other.coords
                and self.params == other.params)

    def __hash__(self):
        return hash((self.coords, self.params))

    def __repr__(self):
        return f"Context(coords={self.coords}, params={self.params})"

    def _generator(self, pos: int, k: int = 1) -> dict:
        """The generator at ring position pos to the k-th power, k >= 0."""
        monom = [0] * len(self.gens)
        monom[pos] = k
        return {tuple(monom): 1}

    # -- constructors ----------------------------------------------------

    @property
    def zero(self) -> "Expr":
        return self._zero

    @property
    def one(self) -> "Expr":
        return self._one

    def integer(self, k: int) -> "Expr":
        cached = self._ints.get(k)
        if cached is None:
            cached = self._constant(_rat(k, 1))
            if -8 <= k <= 8:
                self._ints[k] = cached
        return cached

    def rational(self, p: int, q: int = 1) -> "Expr":
        if q == 0:
            raise ExpressionError("zero denominator in rational literal")
        return self._constant(_Rational(p, q))

    def _constant(self, c: _Rational) -> "Expr":
        if not c:
            return self._zero
        return Expr(self, c, self.unit, self.unit)

    def term(self, exponents: Sequence[int], coeff: Number = 1) -> "Expr":
        """coeff times the product of the atoms raised to the exponents,
        which are listed by ring position (coordinates, exponential atoms,
        parameters)."""
        return _mul(Expr(self, _ONE, {tuple(exponents): 1}, self.unit),
                    _coerce(self, coeff))

    def coordinate(self, which: Union[int, str]) -> "Expr":
        i = self._coord_pos[which] if isinstance(which, str) else which
        return Expr(self, _ONE, self._generator(i), self.unit)

    def exponential(self, which: Union[int, str], k: int = 1) -> "Expr":
        """exp(k * coordinate) as an expression; k may be negative."""
        i = self._coord_pos[which] if isinstance(which, str) else which
        t = self._generator(len(self.coords) + i, abs(k))
        if k >= 0:
            return Expr(self, _ONE, t, self.unit)
        return Expr(self, _ONE, self.unit, t)

    def parameter(self, which: Union[int, str]) -> "Expr":
        j = self._param_pos[which] if isinstance(which, str) else which
        return Expr(self, _ONE, self._generator(2 * len(self.coords) + j),
                    self.unit)

    def parse(self, src: str) -> "Expr":
        return parse_expression(src, self)


# ---------------------------------------------------------------------------
# Integer polynomials: dicts from exponent tuples to nonzero ints.
# ---------------------------------------------------------------------------


def _poly_mul(f: dict, g: dict, madd) -> dict:
    """f * g, with madd the monomial adder of their number of generators."""
    p: dict = {}
    get = p.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = madd(m1, m2)
            p[m] = get(m, 0) + c1 * c2
    if len(f) > 1 and len(g) > 1:
        p = {m: c for m, c in p.items() if c}
    return p


def _poly_pow(p: dict, k: int, madd) -> dict:
    """p^k for k >= 1, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = p if result is None else _poly_mul(result, p, madd)
        k >>= 1
        if not k:
            return result
        p = _poly_mul(p, p, madd)


def _poly_sub(f: dict, g: dict) -> dict:
    """f - g."""
    d = dict(f)
    get = d.get
    for m, c in g.items():
        c = get(m, 0) - c
        if c:
            d[m] = c
        else:
            del d[m]
    return d


def _scaled(p: dict, k: int) -> dict:
    """k * p for a nonzero int k."""
    return {m: k * c for m, c in p.items()}


def _adder_of(p: dict):
    """The monomial adder for p's number of generators."""
    return _monomial_op("add", len(next(iter(p))))


def _grevlex(monom: tuple) -> tuple:
    """The sort key of graded reverse lexicographic order."""
    return sum(monom), tuple(-e for e in reversed(monom))


def _quotient(f: dict, g: dict) -> Optional[dict]:
    """f / g for integer polynomials with g nonzero, when g divides f
    exactly; None otherwise.  Divides by g's lex-leading term, and gives
    up as soon as a quotient term leaves the box that the degrees of f and
    g leave for it, which bounds the work when g does not divide f.  A
    monomial g divides term by term."""
    if not f:
        return {}
    if len(g) == 1:
        ((lead, lc),) = g.items()
        q = {}
        for m, c in f.items():
            e = tuple(map(sub, m, lead))
            qc, rem = divmod(c, lc)
            if rem or min(e) < 0:
                return None
            q[e] = qc
        return q
    madd = _adder_of(f)
    lead = max(g)
    lc = g[lead]
    rest = [(m, c) for m, c in g.items() if m != lead]
    f_columns, g_columns = list(zip(*f)), list(zip(*g))
    low = [min(a) - min(b) for a, b in zip(f_columns, g_columns)]
    high = [max(a) - max(b) for a, b in zip(f_columns, g_columns)]
    if min(low) < 0:
        return None
    q: dict = {}
    r = dict(f)
    get = r.get
    while r:
        m = max(r)
        c = r.pop(m)
        e = tuple(map(sub, m, lead))
        qc, rem = divmod(c, lc)
        if rem or any(x < lo or x > hi for x, lo, hi in zip(e, low, high)):
            return None
        q[e] = qc
        for mg, cg in rest:
            mm = madd(e, mg)
            v = get(mm, 0) - qc * cg
            if v:
                r[mm] = v
            else:
                del r[mm]
    return q


def _poly_sqrt(p: dict, madd) -> Optional[dict]:
    """The square root of a primitive integer polynomial p with a positive
    lex-leading coefficient, with the same two properties; None when p is
    not a square.

    The root's terms are found from the lex-leading one down: the root of
    p's leading term first, then, while the remainder p - r^2 is nonzero,
    its leading term divided by twice r's.  Each new term must lie inside
    half of p's degree box (the Newton polytope of a square is twice its
    root's), so the loop ends; it ends with a root when the remainder, kept
    exact as each term is added, is zero."""
    lead = max(p)
    root_lc = isqrt(p[lead])
    if root_lc * root_lc != p[lead] or any(e % 2 for e in lead):
        return None
    columns = list(zip(*p))
    low, high = list(map(min, columns)), list(map(max, columns))
    r_lead = tuple(e // 2 for e in lead)
    r = {r_lead: root_lc}
    remainder = dict(p)
    del remainder[lead]
    twice = 2 * root_lc
    get = remainder.get
    while remainder:
        m = max(remainder)
        e = tuple(map(sub, m, r_lead))
        qc, rem = divmod(remainder[m], twice)
        if rem or any(not lo <= 2 * x <= hi
                      for x, lo, hi in zip(e, low, high)):
            return None
        # remainder -= qc x^e (2 r + qc x^e)
        for mr, cr in chain(r.items(), [(e, qc)]):
            factor = qc if mr == e else 2 * qc
            mm = madd(e, mr)
            v = get(mm, 0) - factor * cr
            if v:
                remainder[mm] = v
            else:
                del remainder[mm]
        r[e] = qc
    return r


#: Most terms that the two operands of a polynomial-path cancellation may
#: have together for _cancel to keep its result in the context's memo.
#: Larger operands occur in few repeated cancellations and would hold much
#: memory for the chart's lifetime.
CANCEL_MEMO_TERMS = 32

#: Most bits that _kronecker_cofactors packs an operand into,
#: prod(deg_v + 1) * k (see there); larger operands go on to the recursive
#: heuristic.  The largest packed operands measured were 504 bits over the
#: generated-pipeline benchmark charts and 59,160 bits in a full classify
#: with every tensor of a generated warped chart, so the cap leaves a wide
#: margin while it keeps hostile operands from packing into gigabytes.  The
#: recursive heuristic gives up on an evaluation point past the same number
#: of bits.
GCD_PACKED_BITS = 1 << 20

#: Most fields, prod(deg_v + 1), per operand term that _kronecker_cofactors
#: packs; sparser pairs go on to the recursive heuristic.  Packing lays each
#: operand out densely, one field per monomial of the degree box, so a
#: sparse pair packs into far more bits than its terms hold, and the integer
#: gcd, quadratic in the bits, then costs more than the recursive heuristic.
#: Pairs measured on the generated-pipeline charts and in full classify runs
#: of the generated templates had at most 3 fields per term; sparse pairs in
#: five generators drawn by the kernel's property tests had up to 729, and
#: ran up to 1,000 times slower packed than in the recursive heuristic.
GCD_FIELDS_PER_TERM = 16

#: Candidates _kronecker_cofactors tries, doubling the field width k after
#: each failed one, before it gives up.
GCD_ATTEMPTS = 4

#: Evaluation points the recursive heuristic gcd tries for each generator
#: before it gives up, as in Liao and Fateman's algorithm.
HEU_GCD_POINTS = 6


def gcd_cofactors(f, g):
    """(h, f/h, g/h) for primitive integer polynomials f and g of one ring,
    neither a monomial and with a generator in common, where h is their
    gcd, primitive with a positive lex-leading coefficient; h is the unit,
    with f and g themselves as the quotients, when f and g are coprime.

    The one place the chain is composed: the Kronecker heuristic
    (_kronecker_cofactors), else the recursive heuristic (_heugcd), else
    the remainder sequence (_prs_gcd) with the quotients by exact division.
    The gcd's lex-leading coefficient is made positive here, and the
    quotients' with it."""
    result = _kronecker_cofactors(f, g)
    if result is None:
        result = _heugcd(f, g)
    if result is None:
        h = _prs_gcd(f, g)
        result = h, _quotient(f, h), _quotient(g, h)
    h = result[0]
    if h[max(h)] < 0:
        return tuple(_scaled(p, -1) for p in result)
    return result


def _kronecker_cofactors(f, g):
    """gcd_cofactors' first link, or None: GCDHEU (Char, Geddes and Gonnet,
    1989) with one Kronecker substitution.
    The exponent-wise minimum monomials of f and g are divided out first,
    and their minimum is the monomial part of h.  Over the generators
    occurring in the rest, with deg_v the higher of its two degrees in
    generator v, a monomial with exponents e maps to y^K(e), where K(e) is
    the mixed-radix index of e with radix deg_v + 1 and the first generator
    in the most significant field; each side is divided by the power of y
    at its lowest term, and packed at y = 2^k, where the field width k is
    the least multiple of 8 with 2^(k-1) above twice the largest
    coefficient of f and g plus 1.  The integer gcd of the two packed ints,
    decoded in balanced base-2^k digits, gives a candidate h as its
    primitive part, and exact divisions of the packed ints give the
    cofactors a and b.  Each power y^t of a monomial dividing the lowest
    terms of both sides is then tried as the power of y that was divided
    out of h, and a candidate is accepted when both divisions leave no
    remainder, |h|_1 |a|_inf and |h|_1 |b|_inf are below 2^(k-1), and
    deg_v h plus deg_v of either cofactor is at most deg_v for every
    generator: then no field of the packed products overflows, so h a and
    h b are the two sides as polynomials, and by the GCDHEU lemma, with
    neither side divisible by a monomial, h is their gcd, with a positive
    lex-leading coefficient.  A candidate that fails only the degrees ends
    the link at once (see there); another failed candidate doubles k.  The
    answer is None after GCD_ATTEMPTS candidates, once the packed size
    prod(deg_v + 1) k exceeds GCD_PACKED_BITS, or at once when there are
    more than GCD_FIELDS_PER_TERM fields per term of f and g.
    """
    ngens = len(next(iter(f)))
    f_columns, g_columns = list(zip(*f)), list(zip(*g))
    f_low, g_low = list(map(min, f_columns)), list(map(min, g_columns))
    degrees = [max(max(a) - la, max(b) - lb) for a, la, b, lb
               in zip(f_columns, f_low, g_columns, g_low)]
    weights = [0] * ngens
    radix = []      # (ring position, field weight), most significant first
    fields = 1
    for pos in reversed(range(ngens)):
        if degrees[pos]:
            weights[pos] = fields
            radix.insert(0, (pos, fields))
            fields *= degrees[pos] + 1
    if fields > GCD_FIELDS_PER_TERM * (len(f) + len(g)):
        return None
    f_terms, f_shift = _indexed(f, f_low, weights)
    g_terms, g_shift = _indexed(g, g_low, weights)
    common = list(map(min, f_low, g_low))
    f_low = [x - y for x, y in zip(f_low, common)]
    g_low = [x - y for x, y in zip(g_low, common)]
    bound = 2 * max(map(abs, chain(f.values(), g.values()))) + 1
    k = (bound.bit_length() + 8) // 8 * 8
    for _ in range(GCD_ATTEMPTS):
        if fields * k > GCD_PACKED_BITS:
            break
        half = 1 << (k - 1)
        F = sum(c << k * index for index, c in f_terms)
        G = sum(c << k * index for index, c in g_terms)
        packed_gcd = gcd(F, G)
        if packed_gcd < half:
            # The sides without their monomials are coprime.
            if not any(common):
                return {(0,) * ngens: 1}, f, g
            below = [-x for x in common]
            return ({tuple(common): 1}, dict(_raised(f.items(), below)),
                    dict(_raised(g.items(), below)))
        digits = _balanced_digits(packed_gcd, k)
        content = gcd(*(d for _, d in digits))
        H = packed_gcd // content
        A, ra = divmod(F, H)
        B, rb = divmod(G, H)
        if not (ra or rb):
            h = [(index, d // content) for index, d in digits]
            a, b = _balanced_digits(A, k), _balanced_digits(B, k)
            if (sum(abs(d) for _, d in h)
                    * max(abs(d) for _, d in chain(a, b)) < half):
                # The indices of the monomials dividing the lowest terms of
                # both sides: the powers of y that h may have lost.
                lowest = (_unpacked([(shift, 1)], 0, radix, ngens)[0][0]
                          for shift in (f_shift, g_shift))
                for t in (sum(map(mul, e, weights)) for e in product(
                        *(range(min(x, y) + 1) for x, y in zip(*lowest)))):
                    parts = (_unpacked(h, t, radix, ngens),
                             _unpacked(a, f_shift - t, radix, ngens),
                             _unpacked(b, g_shift - t, radix, ngens))
                    if all(x + max(y, z) <= d for x, y, z, d in zip(
                            *map(_degrees, parts), degrees)):
                        return tuple(dict(_raised(p, low)) for p, low
                                     in zip(parts, (common, f_low, g_low)))
                # Proof that no wider field helps: with F(y), G(y) the
                # packed sides, h(y) a(y) and F(y) have coefficients below
                # 2^(k-1) (|h|_1 |a|_inf bounds the product's) and one value
                # at 2^k, whose balanced digits are unique, so h a = F and
                # h b = G: h(y) is a factor F(y) and G(y) share, and no y^t
                # times a common factor of the sides (that would pass the
                # degrees).  Widths only move the point, so h(2^k') divides
                # both packed ints at every k'; the next link answers.
                return None
        k *= 2
    return None


def _indexed(p, low: list, weights: list) -> tuple[list, int]:
    """(terms, shift) for a polynomial p over gcd_cofactors' mixed radix:
    shift is the Kronecker index of p's lowest term once p is divided by
    the monomial with exponents low, and terms pairs each term's index,
    less that of the lowest term, with its coefficient."""
    terms = [(sum(map(mul, monom, weights)), c) for monom, c in p.items()]
    lowest = min(index for index, _ in terms)
    if lowest:
        terms = [(index - lowest, c) for index, c in terms]
    return terms, lowest - sum(map(mul, low, weights))


def _balanced_digits(n: int, k: int) -> list:
    """The nonzero digits of n in balanced base 2^k, each in
    [-2^(k-1), 2^(k-1)), as (index, digit) pairs by increasing index; k is
    a multiple of 8."""
    sign = 1
    if n < 0:
        n, sign = -n, -1
    width = k // 8
    data = n.to_bytes(n.bit_length() // 8 + 1 + width, "little")
    half, full = 1 << (k - 1), 1 << k
    digits = []
    carry = 0
    for index, start in enumerate(range(0, len(data), width)):
        d = int.from_bytes(data[start:start + width], "little") + carry
        carry = d >= half
        if carry:
            d -= full
        if d:
            digits.append((index, sign * d))
    return digits


def _unpacked(digits: list, offset: int, radix: list, ngens: int) -> list:
    """The terms (exponents by ring position, coefficient) of Kronecker
    digits whose indices are offset, for gcd_cofactors' mixed radix."""
    terms = []
    for index, c in digits:
        index += offset
        monom = [0] * ngens
        for pos, weight in radix:
            monom[pos], index = divmod(index, weight)
        terms.append((tuple(monom), c))
    return terms


def _degrees(terms: list):
    """The highest exponent at each ring position among the terms."""
    return map(max, zip(*(monom for monom, _ in terms)))


def _raised(terms, low: list):
    """The terms, each multiplied by the monomial with exponents low (some
    may be negative, for a quotient)."""
    if not any(low):
        return terms
    return [(tuple(map(add, monom, low)), c) for monom, c in terms]


def _occurring(f: dict, g: dict) -> list:
    """The ring positions of the generators occurring in f or g."""
    return [pos for pos, column in enumerate(zip(*f, *g)) if any(column)]


def _heugcd(f: dict, g: dict) -> Optional[tuple]:
    """(h, f/h, g/h) with h a gcd of nonzero integer polynomials f and g,
    or None: the heuristic gcd of Liao and Fateman (1995).

    The integer content of both is divided out first.  The first generator
    v occurring in either is evaluated at an integer x, and the gcd h' of
    the images, with their cofactors, is taken recursively (the integer gcd
    when no generator is left).  Reading the coefficients of h' as balanced
    base-x digits gives a candidate in v, whose primitive part is h when it
    divides both f and g; otherwise f and g divided by the cofactors read
    the same way are tried.  x starts above twice the smaller norm and
    grows after each failed point; the heuristic fails after HEU_GCD_POINTS
    points, or at a point where an image would pass GCD_PACKED_BITS."""
    occurring = _occurring(f, g)
    if not occurring:
        zero = next(iter(f))
        a, b = f[zero], g[zero]
        c = gcd(a, b)
        return {zero: c}, {zero: a // c}, {zero: b // c}
    content = gcd(*f.values(), *g.values())
    if content != 1:
        f = {m: c // content for m, c in f.items()}
        g = {m: c // content for m, c in g.items()}
    v = occurring[0]
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    degree = max(m[v] for m in chain(f, g))
    for _ in range(HEU_GCD_POINTS):
        if x.bit_length() * degree > GCD_PACKED_BITS:
            return None
        images = _evaluated(f, v, x), _evaluated(g, v, x)
        result = _heugcd(*images) if all(images) else None
        if result is not None:
            for h in _candidates(f, g, result, v, x):
                a = None if h is None else _quotient(f, h)
                b = None if a is None else _quotient(g, h)
                if b is not None:
                    return (h if content == 1 else _scaled(h, content)), a, b
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _candidates(f: dict, g: dict, images: tuple, v: int, x: int):
    """_heugcd's candidate gcds at one point, from the gcd of the images
    and its cofactors: the primitive part of the interpolated gcd, then f
    and g each divided by its interpolated cofactor (None when that does
    not divide)."""
    h, a, b = images
    yield _primitive(_interpolated(h, v, x))[1]
    yield _quotient(f, _interpolated(a, v, x))
    yield _quotient(g, _interpolated(b, v, x))


def _evaluated(p: dict, v: int, x: int) -> dict:
    """p with the generator at ring position v replaced by the integer x."""
    out: dict = {}
    get = out.get
    for m, c in p.items():
        e = m[v]
        if e:
            m = m[:v] + (0,) + m[v + 1:]
            c *= x ** e
        out[m] = get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _interpolated(p: dict, v: int, x: int) -> dict:
    """The polynomial in the generator at ring position v whose value at x
    is p (which has no term in that generator): each coefficient of p
    written in balanced base-x digits, digit i the coefficient of v^i."""
    out: dict = {}
    half = x // 2
    for m, c in p.items():
        i = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            if d:
                out[m[:v] + (i,) + m[v + 1:]] = d
            c = (c - d) // x
            i += 1
    return out


def _prs_gcd(f: dict, g: dict) -> dict:
    """A gcd of nonzero integer polynomials f and g by a primitive
    polynomial remainder sequence (Collins, 1967; Brown, 1971).

    With v the first generator occurring in either, each side is split into
    its content, the gcd of its coefficients as a polynomial in v (taken by
    this function on the other generators), and its primitive part.  The
    gcd is the gcd of the contents times the last nonzero member of the
    sequence of primitive parts of pseudo-remainders in v, or times 1 when
    that member has degree 0 in v.  Two constants give their integer gcd.
    The contents are not taken by the recursive heuristic, whose images of
    the remainders' coefficients can grow to GCD_PACKED_BITS bits at each
    level of its recursion."""
    occurring = _occurring(f, g)
    if not occurring:
        zero = next(iter(f))
        return {zero: gcd(f[zero], g[zero])}
    v = occurring[0]
    f_content, f = _content_split(f, v)
    g_content, g = _content_split(g, v)
    h = _prs_gcd(f_content, g_content)
    if _degree_in(f, v) < _degree_in(g, v):
        f, g = g, f
    while _degree_in(g, v):
        r = _pseudo_remainder(f, g, v)
        if not r:
            return _poly_mul(h, g, _adder_of(g))
        f, g = g, _content_split(r, v)[1]
    return h


def _degree_in(p: dict, v: int) -> int:
    return max(m[v] for m in p)


def _content_split(p: dict, v: int) -> tuple[dict, dict]:
    """(c, p/c) with c a gcd of p's coefficients as a polynomial in the
    generator at position v."""
    coefficients: dict = {}
    for m, c in p.items():
        coefficients.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1:]] = c
    content = reduce(_prs_gcd, coefficients.values())
    return content, _quotient(p, content)


def _pseudo_remainder(f: dict, g: dict, v: int) -> dict:
    """The remainder of f by g as polynomials in the generator at position
    v, times a power of g's leading coefficient in v: the leading term in
    v is cancelled, after scaling by that coefficient, until the degree
    falls below g's."""
    madd = _adder_of(g)
    dg = _degree_in(g, v)
    lc_g = {m[:v] + (0,) + m[v + 1:]: c for m, c in g.items() if m[v] == dg}
    r = f
    while r:
        dr = _degree_in(r, v)
        if dr < dg:
            break
        shift = dr - dg
        lc_r = {m[:v] + (shift,) + m[v + 1:]: c for m, c in r.items()
                if m[v] == dr}
        r = _poly_sub(_poly_mul(lc_g, r, madd), _poly_mul(lc_r, g, madd))
    return r


def _memo_key(f: dict, g: dict) -> tuple:
    """The key of _cancel's memo for the ordered pair (f, g), compared by
    value."""
    return frozenset(f.items()), frozenset(g.items())


def _cancel(ctx: Context, f, g):
    """(h, f/h, g/h) for nonzero polynomials f, g of the chart ring, where h
    is a gcd of both; ctx.unit when f and g are coprime.

    When f and g are primitive with positive lex-leading coefficients, so
    are h and both quotients.  A monomial on either side gives the
    exponent-wise minimum monomial with coefficient 1, and the cofactors by
    subtracting exponents.  Polynomials with no generator in common are
    coprime.  Otherwise gcd_cofactors computes the gcd and both quotients.

    That last path is memoized on the context, so each pair is cancelled
    once per chart: the key is the ordered pair (f, g), compared by value
    (the swapped pair is not looked up), and the value is the returned
    triple.  Only pairs with at most CANCEL_MEMO_TERMS terms together are
    kept.  The memo lives and dies with the context.  A hit returns
    polynomials equal to those a fresh computation would return, and
    shares them with the earlier caller, which is sound because no code
    mutates a polynomial in place.
    """
    if len(f) == 1 or len(g) == 1:
        monomial, other = (f, g) if len(f) == 1 else (g, f)
        monom_gcd = ctx._mgcd
        zero = next(iter(ctx.unit))
        h = next(iter(monomial))
        for monom in other:
            h = monom_gcd(h, monom)
            if h == zero:
                return ctx.unit, f, g
        ldiv = ctx._msub
        return ({h: 1}, {ldiv(m, h): c for m, c in f.items()},
                {ldiv(m, h): c for m, c in g.items()})
    in_f = [any(column) for column in zip(*f)]
    in_g = [any(column) for column in zip(*g)]
    if not any(map(and_, in_f, in_g)):
        return ctx.unit, f, g
    key = (_memo_key(f, g) if len(f) + len(g) <= CANCEL_MEMO_TERMS
           else None)
    if key is not None:
        cached = ctx._cancelled.get(key)
        if cached is not None:
            return cached
    result = gcd_cofactors(f, g)
    if result[0] == ctx.unit:
        result = ctx.unit, f, g
    if key is not None:
        ctx._cancelled[key] = result
    return result


def _primitive(p):
    """(k, p/k) for a nonzero integer polynomial p: k is the gcd of p's
    coefficients, signed so that p/k has a positive coefficient at its
    lex-largest exponent tuple."""
    k = gcd(*p.values())
    if p[max(p)] < 0:
        k = -k
    if k == 1:
        return 1, p
    return k, {m: c // k for m, c in p.items()}


def _lincomb(ca, f, cb, g):
    """(c, P) with ca f + cb g = c P, for rationals ca, cb and integer
    polynomials f, g: P is primitive with a positive lex-leading coefficient,
    or zero.  P's terms are in the order of f's followed by g's others."""
    pa, qa, pb, qb = ca.numerator, ca.denominator, cb.numerator, \
        cb.denominator
    if qa == qb and (pa == pb or pa == -pb):
        c, ua, ub = ca, 1, (1 if pa == pb else -1)
    else:
        # Each side scaled by its integer cofactor of the gcd of the two
        # contents, n/d (coprime: a prime dividing n divides pa and pb, so
        # neither qa nor qb).
        n, d = gcd(pa, pb), lcm(qa, qb)
        c, ua, ub = _rat(n, d), pa // n * (d // qa), pb // n * (d // qb)
    s = f.copy() if ua == 1 else _scaled(f, ua)
    get = s.get
    for m, x in g.items():
        x = get(m, 0) + ub * x
        if x:
            s[m] = x
        else:
            del s[m]
    if not s:
        return c, s
    k, s = _primitive(s)
    return (c if k == 1 else c * k), s


def _times(ctx: Context, f, g):
    """f * g for polynomials of the chart ring; a unit factor is not
    multiplied out."""
    one = ctx.unit
    if g == one:
        return f
    if f == one:
        return g
    return _poly_mul(f, g, ctx._madd)


def _normalized(ctx: Context, num, den) -> "Expr":
    """num/den in canonical form, for integer polynomials num and den of the
    chart ring."""
    if not num:
        return ctx._zero
    if not den:
        raise ExpressionError("division by zero expression")
    kn, num = _primitive(num)
    kd, den = _primitive(den)
    if den != ctx.unit:
        _, num, den = _cancel(ctx, num, den)
    return Expr(ctx, _Rational(kn, kd), num, den)


def _rational_form(e: "Expr") -> tuple[dict, dict]:
    """(num, den) of e over Q as dicts from exponent tuples to rational
    coefficients, coprime, with den monic under grevlex: the form that
    printing and the parser's coefficient-size bound read.  Built on each
    call, in the term order of e's polynomials."""
    den = e.den
    lc = den[max(den, key=_grevlex)]
    scale = _Rational(e.content.numerator, e.content.denominator * lc)
    return ({m: scale * c for m, c in e.num.items()},
            {m: _Rational(c, lc) for m, c in den.items()})


class Expr:
    """A canonical rational function over a context's atoms.

    Immutable; all arithmetic returns new canonical values.  Supports the
    usual operators against Expr, int and Fraction operands, so tensor
    kernels combine components with plain arithmetic.
    """

    __slots__ = ("ctx", "content", "num", "den", "_hash")

    def __init__(self, ctx: Context, content, num, den):
        # Callers must supply a canonical (content, num, den); use
        # _normalized to build values from raw polynomials.
        self.ctx = ctx
        self.content = content
        self.num = num
        self.den = den
        self._hash = None

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        one = self.ctx.unit
        return self.content == 1 and self.num == one and self.den == one

    def is_constant(self) -> bool:
        """True when no coordinate or exponential atom occurs (parameters ok)."""
        ncoord = 2 * len(self.ctx.coords)
        for poly in (self.num, self.den):
            for monom in poly:
                if any(monom[:ncoord]):
                    return False
        return True

    def atoms(self) -> set[Atom]:
        present: set[Atom] = set()
        for poly in (self.num, self.den):
            for monom in poly:
                for pos, e in enumerate(monom):
                    if e:
                        present.add(self.ctx.atoms[pos])
        return present

    def polynomial_terms(self) -> Optional[list]:
        """The terms of a polynomial value as (exponents by ring position,
        Fraction coefficient) pairs; None when the denominator is not 1."""
        if self.den != self.ctx.unit:
            return None
        p, q = self.content.numerator, self.content.denominator
        return [(monom, Fraction(p * c, q)) for monom, c in self.num.items()]

    def sqrt(self) -> Optional["Expr"]:
        """Exact square root within the expression field, or None.

        A value is a square iff its content is the square of a rational and
        its numerator and denominator, coprime and primitive, are squares
        of integer polynomials.  The root is the one with a positive
        content."""
        if self.is_zero:
            return self
        c = self.content
        if c < 0:
            return None
        pn, pd = isqrt(c.numerator), isqrt(c.denominator)
        if pn * pn != c.numerator or pd * pd != c.denominator:
            return None
        ctx = self.ctx
        num = _poly_sqrt(self.num, ctx._madd)
        if num is None:
            return None
        den = self.den
        if den != ctx.unit:
            den = _poly_sqrt(den, ctx._madd)
            if den is None:
                return None
        return Expr(ctx, _rat(pn, pd), num, den)

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Expr):
            # Polynomials carry no ring: x1 of one chart and y1 of another
            # have equal dicts, and only their contexts tell them apart.
            return ((self.ctx is other.ctx or self.ctx == other.ctx)
                    and self.content == other.content
                    and self.num == other.num and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return self == _coerce(self.ctx, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.content, frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, _neg(other))

    def __rsub__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, _neg(self))

    def __mul__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        return _div(other, self)

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ExpressionError("exponent must be an integer")
        return _int_pow(self, k)

    def diff(self, coord: Union[int, str]) -> "Expr":
        return differentiate(self, coord)

    def __str__(self):
        return _format_expr(self)

    def __repr__(self):
        return f"Expr({_format_expr(self)})"

    def __bool__(self):
        return not self.is_zero


def _coerce(ctx: Context, value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return ctx.integer(value)
    if isinstance(value, Fraction):
        return ctx.rational(value.numerator, value.denominator)
    return NotImplemented


def _neg(a: Expr) -> Expr:
    if a.is_zero:
        return a
    return Expr(a.ctx, -a.content, a.num, a.den)


def _add(a: Expr, b: Expr) -> Expr:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    ctx = a.ctx
    one = ctx.unit
    if a.den == b.den:
        c, num = _lincomb(a.content, a.num, b.content, b.num)
        if not num:
            return ctx._zero
        den = a.den
        if den != one:
            _, num, den = _cancel(ctx, num, den)
        return Expr(ctx, c, num, den)
    # Henrici: split common denominator factor so only that factor can cancel.
    g, da, db = _cancel(ctx, a.den, b.den)
    c, num = _lincomb(a.content, _times(ctx, a.num, db),
                      b.content, _times(ctx, b.num, da))
    if not num:
        return ctx._zero
    if g == one:
        # Coprime by construction.
        return Expr(ctx, c, num, _times(ctx, a.den, b.den))
    _, num, g = _cancel(ctx, num, g)
    return Expr(ctx, c, num, _times(ctx, _times(ctx, g, da), db))


def _mul(a: Expr, b: Expr) -> Expr:
    ctx = a.ctx
    one = ctx.unit
    if a.is_zero or b.is_zero:
        return ctx._zero
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    if d2 != one:
        _, n1, d2 = _cancel(ctx, n1, d2)
    if d1 != one:
        _, n2, d1 = _cancel(ctx, n2, d1)
    return Expr(ctx, a.content * b.content, _times(ctx, n1, n2),
                _times(ctx, d1, d2))


def _div(a: Expr, b: Expr) -> Expr:
    if b.is_zero:
        raise ExpressionError("division by zero expression")
    return _mul(a, Expr(b.ctx, 1 / b.content, b.den, b.num))


def _int_pow(a: Expr, k: int) -> Expr:
    ctx = a.ctx
    if k == 0:
        if a.is_zero:
            raise ExpressionError("0^0 is undefined")
        return ctx._one
    if a.is_zero:
        if k < 0:
            raise ExpressionError("division by zero expression")
        return ctx._zero
    content, num, den = a.content, a.num, a.den
    if k < 0:
        content, num, den, k = 1 / content, den, num, -k
    madd = ctx._madd
    return Expr(ctx, content ** k, _poly_pow(num, k, madd),
                _poly_pow(den, k, madd))


def _poly_diff(ctx: Context, poly, i: int):
    """d(poly)/dx for the coordinate x at ring position i, read at the
    known positions of x and of its exponential atom t: a term c x^e t^s
    gives e c x^(e-1) t^s and, by the chain rule d(t)/dx = t, s c x^e t^s."""
    j = len(ctx.coords) + i
    d: dict = {}
    get = d.get
    for monom, c in poly.items():
        s = monom[j]
        if s:
            d[monom] = get(monom, 0) + s * c
        e = monom[i]
        if e:
            monom = monom[:i] + (e - 1,) + monom[i + 1:]
            d[monom] = get(monom, 0) + e * c
    return {monom: c for monom, c in d.items() if c}


def differentiate(e: Expr, coord: Union[int, str]) -> Expr:
    """Partial derivative with respect to a coordinate, in canonical form."""
    ctx = e.ctx
    i = ctx._coord_pos.get(coord) if isinstance(coord, str) else coord
    if i is None:
        raise ExpressionError(f"{coord!r} is not a coordinate")
    if not 0 <= i < len(ctx.coords):
        raise ExpressionError(f"coordinate index {i} out of range")
    num, den = e.num, e.den
    dnum = _poly_diff(ctx, num, i)
    if den != ctx.unit:
        madd = ctx._madd
        dnum = _poly_sub(_poly_mul(dnum, den, madd),
                         _poly_mul(num, _poly_diff(ctx, den, i), madd))
        if dnum:
            den = _poly_mul(den, den, madd)
    d = _normalized(ctx, dnum, den)
    return Expr(ctx, e.content * d.content, d.num, d.den) if d.num else d


def evaluate_rational(e: Expr, assignment: Mapping[Atom, Number]) -> Fraction:
    """Evaluate at exact rational atom values: the exact reference.

    The exponential atoms are substituted independently of their coordinates:
    atoms are algebraically independent, so this is exactly the substitution
    a randomized zero test needs.  Reads the stored form content * num / den,
    as ModularExpr does.  Raises EvaluationError when the denominator
    vanishes at the point and ExpressionError when an occurring atom has no
    value.
    """
    ctx = e.ctx
    values = [None if v is None else Fraction(v)
              for v in _atom_values(ctx, assignment)]

    def poly_value(poly):
        total = Fraction(0)
        for monom, term in poly.items():
            for pos, exp in enumerate(monom):
                if exp:
                    v = values[pos]
                    if v is None:
                        raise ExpressionError(
                            f"no value assigned to atom {ctx.atoms[pos].name}")
                    term = term * v ** exp
            total = total + term
        return total

    den_val = poly_value(e.den)
    if not den_val:
        raise EvaluationError("denominator vanishes at the given point")
    content = e.content
    return (Fraction(content.numerator, content.denominator)
            * poly_value(e.num) / den_val)


def _atom_values(ctx: Context, assignment: Mapping[Atom, Number]) -> list:
    """The assignment as a list indexed by ring position (None: no value)."""
    values: list = [None] * len(ctx.atoms)
    for atom, val in assignment.items():
        pos = ctx._atom_pos.get(atom)
        if pos is not None:
            values[pos] = val
    return values


class ModularExpr:
    """An Expr compiled for evaluation modulo a prime p.

    Reads the stored form content * num / den: numerator and denominator
    each become a tuple of (coefficient residue, ((ring position,
    exponent), ...)) terms, every integer coefficient reduced once, not at
    every point, and the residue of the content folded into the
    numerator's coefficients.  The value is then the image of the exact
    value under the ring homomorphism Z_(p) -> F_p wherever the denominator
    is a unit there, so equal expressions always give equal residues.  When
    p divides the content's denominator the value has no residue: num is
    None and at() raises EvaluationError at every point.  den is None for
    a denominator 1.  degrees holds the highest exponent of each ring
    position, the length of the power tables at() reads.
    """

    __slots__ = ("ctx", "modulus", "num", "den", "degrees")

    def __init__(self, e: Expr, modulus: int):
        ctx = self.ctx = e.ctx
        self.modulus = modulus
        self.degrees = tuple(map(max, zip(*e.num, *e.den)))
        try:
            scale = _ratio_residue(e.content.numerator,
                                   e.content.denominator, modulus)
        except EvaluationError:
            self.num = None
        else:
            self.num = _compiled_poly(e.num, scale, modulus)
        self.den = (None if e.den == ctx.unit
                    else _compiled_poly(e.den, 1, modulus))

    def at(self, powers: Sequence) -> tuple[int, int]:
        """(numerator, denominator) residues at one point, the denominator
        nonzero; powers is the point's residue_powers table.  Raises
        EvaluationError when the value has no residue or its denominator
        vanishes mod p at the point."""
        p = self.modulus
        if self.num is None:
            raise EvaluationError("the value has no residue modulo p")
        den = 1 if self.den is None else _poly_residue(self.den, powers, p)
        if not den:
            raise EvaluationError(
                "denominator vanishes modulo p at the given point")
        return _poly_residue(self.num, powers, p), den


def _compiled_poly(poly, scale: int, modulus: int) -> tuple:
    # The terms of an integer polynomial, each coefficient times scale.
    return tuple((c * scale % modulus,
                  tuple((pos, exp) for pos, exp in enumerate(monom) if exp))
                 for monom, c in poly.items())


def _poly_residue(terms: tuple, powers: Sequence, p: int) -> int:
    total = 0
    for term, factors in terms:
        for pos, exp in factors:
            term = term * powers[pos][exp] % p
        total += term
    return total % p


def residue_powers(ctx: Context, assignment: Mapping[Atom, Number],
                   modulus: int, degrees: Sequence[int]) -> list:
    """The power tables of a point modulo a prime, by ring position of ctx:
    entry pos lists the residues of v^0 .. v^degrees[pos] for the atom's
    value v (None where degrees[pos] is 0).  Every assigned value is
    reduced, so EvaluationError is raised when p divides one's
    denominator, and ExpressionError for the first atom with a positive
    degree and no value."""
    values = [None if v is None else residue(v, modulus)
              for v in _atom_values(ctx, assignment)]
    tables: list = []
    for pos, top in enumerate(degrees):
        v = values[pos]
        if not top:
            tables.append(None)
            continue
        if v is None:
            raise ExpressionError(
                f"no value assigned to atom {ctx.atoms[pos].name}")
        table = [1, v]
        for _ in range(top - 1):
            table.append(table[-1] * v % modulus)
        tables.append(table)
    return tables


def residue(value: Number, modulus: int) -> int:
    """The image of a rational in F_p, as an int in [0, p).

    Raises EvaluationError when p divides the denominator.
    """
    if isinstance(value, int):
        return value % modulus
    value = Fraction(value)
    return _ratio_residue(value.numerator, value.denominator, modulus)


def _ratio_residue(num, den, modulus: int) -> int:
    if den == 1:
        return int(num) % modulus
    den = int(den) % modulus
    if not den:
        raise EvaluationError("denominator vanishes modulo p")
    return int(num) * pow(den, -1, modulus) % modulus



# ---------------------------------------------------------------------------
# Parsing.
#
# Grammar (also used by metric files):
#   sum     := product (("+" | "-") product)*
#   product := unary (("*" | "/") unary)*
#   unary   := "-" unary | power
#   power   := atom ["^" ["-"] INT]
#   atom    := INT | IDENT | expcall | "(" sum ")"
#   expcall := "exp" "(" ["-"] [INT "*"] COORD ")"
# Precedence: ^  >  unary -  >  * /  >  + -.  Rational literals like 7/2 are
# covered by the division operator; exponents are integer literals only.
# Parentheses nest at most MAX_NESTING deep: the parser recurses once per
# level, and deeper input is rejected with a ParseError instead of exhausting
# the interpreter's stack.  Products, quotients, powers and exp(k*x) are
# checked against MAX_DEGREE, and those and sums of fractions against
# MAX_TERMS, before they are computed; integer literals, and products,
# quotients, powers and sums of fractions, against MAX_COEFF_BITS.
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")

#: Deepest parenthesis nesting the parser accepts.
MAX_NESTING = 100

#: Highest total degree, in all atoms, of a product, quotient or power the
#: parser forms, and of exp(k*x) (the atom exp(x) to the k-th power).  The
#: degree of a fraction is that of its numerator or denominator, whichever
#: is higher, and an operation's degree is taken before cancellation.
MAX_DEGREE = 32

#: Most terms the numerator or the denominator of a product, quotient, power
#: or sum of fractions may have, by a bound taken before it is computed: the
#: product of the operands' term counts, or the number of monomials of the
#: result's degree in the atoms that occur, whichever is smaller.  The degree
#: bound alone does not bound size: (1+x1+x2+x3+x4)^k has about k^4/24 terms,
#: and a power of a sum of the 8 atoms of a 4-dimensional chart about k^8/8!.
MAX_TERMS = 10_000

#: Most bits of an integer literal, and of the coefficients of a product,
#: quotient, power or sum of fractions by a bound taken before it is
#: computed.  Write a polynomial p as P/D, with D the common denominator of
#: its coefficients, and let b(p) be the bits of its largest coefficient
#: numerator plus those of D, which bounds the bits of P and of D.  A
#: product's bound is b(f) + b(g) + log2(min(len(f), len(g))), a k-th
#: power's k (b(p) + log2(len(p))), and a sum a/c + b/d is bounded as the
#: products a d and b c (plus one bit) and c d.  Degree 0 escapes
#: MAX_DEGREE, so without this bound ((2^32)^32)^32 would reach 32,769
#: bits, past the 4,300 decimal digits that Python converts to a string;
#: and without the sum bound, 30 terms 1/(2^500*x1 + i) reach b = 15,080.
MAX_COEFF_BITS = 1024


def _tokenize(src: str):
    tokens = []  # (kind, value, position)
    i, size = 0, len(src)
    while i < size:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            # ASCII only: str.isdigit also accepts superscripts and others.
            j = i
            while j < size and "0" <= src[j] <= "9":
                j += 1
            # d significant digits make at least 10^(d-1) > 2^(3(d-1)), so
            # only a literal that may be within the bound is converted.
            digits = src[i:j].lstrip("0") or "0"
            value = (int(digits) if 3 * (len(digits) - 1) < MAX_COEFF_BITS
                     else None)
            if value is None or value.bit_length() > MAX_COEFF_BITS:
                raise ParseError(f"integer literal exceeds {MAX_COEFF_BITS} "
                                 "bits", i)
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, position = self.advance()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", position)

    def parse_sum(self) -> Expr:
        value = self.parse_product()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.parse_product()
                if value.den != rhs.den:
                    an, ad = _rational_form(value)
                    bn, bd = _rational_form(rhs)
                    _check_terms(len(an) * len(bd) + len(bn) * len(ad),
                                 max(_degree(an) + _degree(bd),
                                     _degree(bn) + _degree(ad)),
                                 (an, ad, bn, bd), position)
                    _check_terms(len(ad) * len(bd),
                                 _degree(ad) + _degree(bd), (ad, bd),
                                 position)
                    _check_bits(max(_product_bits(an, bd),
                                    _product_bits(bn, ad)) + 1, position)
                    _check_bits(_product_bits(ad, bd), position)
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def parse_product(self) -> Expr:
        value = self.parse_unary()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.parse_unary()
                if op == "/" and rhs.is_zero:
                    raise ParseError("division by zero", position)
                vnum, vden = _rational_form(value)
                rnum, rden = _rational_form(rhs)
                if op == "/":
                    rnum, rden = rden, rnum
                for f, g in ((vnum, rnum), (vden, rden)):
                    degree = _degree(f) + _degree(g)
                    _check_degree(degree, position)
                    _check_terms(len(f) * len(g), degree, (f, g), position)
                    _check_bits(_product_bits(f, g), position)
                value = value / rhs if op == "/" else value * rhs
            else:
                return value

    def parse_unary(self) -> Expr:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        value = self.parse_power()
        return -value if negate else value

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, op, position = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            k = self.parse_int_literal("integer literal exponent expected")
            if base.is_zero and k <= 0:
                raise ParseError("zero base with non-positive exponent",
                                 self.tokens[self.pos - 1][2])
            for p in _rational_form(base):
                # Two or more terms have degree >= 1, so |k| <= MAX_DEGREE
                # once the degree passes.
                degree = abs(k) * _degree(p)
                _check_degree(degree, position)
                _check_terms(len(p) ** abs(k), degree, (p,), position)
                _check_bits(abs(k) * (_coeff_bits(p)
                                      + (len(p) - 1).bit_length()), position)
            return _int_pow(base, k)
        return base

    def parse_int_literal(self, message: str) -> int:
        sign = 1
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, position = self.peek()
        if kind != "int":
            raise ParseError(message, position)
        self.advance()
        return sign * value

    def parse_atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "int":
            return self.ctx.integer(value)
        if kind == "op" and value == "(":
            if self.depth >= MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", position)
            self.depth += 1
            inner = self.parse_sum()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "ident":
            if value == "exp":
                return self.parse_expcall(position)
            if value in self.ctx._coord_pos:
                return self.ctx.coordinate(value)
            if value in self.ctx._param_pos:
                return self.ctx.parameter(value)
            raise ParseError(f"unknown identifier {value!r}", position)
        raise ParseError("expected a number, name or parenthesized "
                         "subexpression", position)

    def parse_expcall(self, start: int) -> Expr:
        self.expect_op("(")
        k = 1
        kind, value, position = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            k = -1
            kind, value, position = self.peek()
        if kind == "int":
            self.advance()
            k *= value
            self.expect_op("*")
            kind, value, position = self.peek()
        if kind != "ident" or value not in self.ctx._coord_pos:
            raise ParseError("exp() argument must be integer * coordinate",
                             position)
        self.advance()
        kind, close, position = self.advance()
        if kind != "op" or close != ")":
            raise ParseError("exp() argument must be integer * coordinate",
                             position)
        _check_degree(abs(k), start)
        return self.ctx.exponential(value, k)


def _degree(p) -> int:
    return max(map(sum, p), default=0)


def _check_degree(degree: int, position: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree {degree} exceeds {MAX_DEGREE}",
                         position)


def _coeff_bits(p) -> int:
    """b(p) of MAX_COEFF_BITS, for a polynomial of a rational form: the bits
    of the largest numerator among p's coefficients plus those of their
    common denominator (0 for p = 0)."""
    den = lcm(*(c.denominator for c in p.values()))
    return (max((c.numerator.bit_length() for c in p.values()),
                default=0) + (den - 1).bit_length())


def _product_bits(f, g) -> int:
    """b(f g) <= b(f) + b(g) + log2(min(len(f), len(g)))."""
    return (_coeff_bits(f) + _coeff_bits(g)
            + (min(len(f), len(g)) - 1).bit_length())


def _check_bits(bits: int, position: int) -> None:
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficients may exceed {MAX_COEFF_BITS} bits",
                         position)


def _check_terms(products: int, degree: int, polys, position: int) -> None:
    """Raise ParseError unless a result with at most `products` terms, of
    total degree at most `degree` in the atoms occurring in `polys`, is
    sure to have at most MAX_TERMS terms."""
    if products <= MAX_TERMS:
        return
    atoms = sum(map(any, zip(*chain.from_iterable(polys))))
    if comb(atoms + degree, atoms) > MAX_TERMS:
        raise ParseError(f"result may have more than {MAX_TERMS} terms",
                         position)


def parse_expression(src: str, ctx: Context) -> Expr:
    """Parse source text into a canonical expression.

    Raises ParseError with the offending position on malformed input,
    unknown identifiers, non-integer exponents, exp() of anything other
    than an integer multiple of a declared coordinate, parentheses nested
    deeper than MAX_NESTING, a product, quotient, power or exp(k*x) of
    total degree above MAX_DEGREE, a product, quotient, power or sum that
    could have more than MAX_TERMS terms in its numerator or denominator, or
    an integer literal, product, quotient, power or sum of fractions whose
    coefficients could exceed MAX_COEFF_BITS bits.
    """
    parser = _Parser(_tokenize(src), ctx)
    value = parser.parse_sum()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", position)
    return value


# ---------------------------------------------------------------------------
# Printing.  The printer emits strings inside the grammar above, and printing
# then re-parsing reproduces the same canonical value.  It prints the rational
# form (_rational_form), whose denominator is monic.  Exponential atoms in a
# one-term denominator are folded into exp(-k*x) factors, so e.g. the value
# (7/2)/exp(x1) renders as "7/2 * exp(-x1)".
# ---------------------------------------------------------------------------


def _factor_strs(ctx: Context, monom) -> list[str]:
    factors = []
    for pos, e in enumerate(monom):
        if not e:
            continue
        atom = ctx.atoms[pos]
        if atom.kind == "exp":
            factors.append(_exp_str(ctx.coords[atom.index], e))
        else:
            name = atom.name
            factors.append(name if e == 1 else f"{name}^{e}")
    return factors


def _exp_str(coord: str, k: int) -> str:
    if k == 1:
        return f"exp({coord})"
    if k == -1:
        return f"exp(-{coord})"
    return f"exp({k}*{coord})"


def _poly_str(ctx: Context, poly) -> str:
    if not poly:
        return "0"
    parts: list[str] = []
    for monom, coeff in sorted(poly.items(), key=lambda mc: _grevlex(mc[0]),
                               reverse=True):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        factors = _factor_strs(ctx, monom)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = " * ".join(factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def _format_expr(e: Expr) -> str:
    ctx = e.ctx
    if e.is_zero:
        return "0"
    num, den = _rational_form(e)
    if e.den == ctx.unit:
        return _poly_str(ctx, num)
    if len(den) == 1:
        # Monic single-term denominator: fold exponential atoms into the
        # numerator as negative exponents, divide by the rest.
        monom = next(iter(den))
        exp_factors: list[str] = []
        plain_factors: list[str] = []
        for pos, k in enumerate(monom):
            if not k:
                continue
            atom = ctx.atoms[pos]
            if atom.kind == "exp":
                exp_factors.append(_exp_str(ctx.coords[atom.index], -k))
            else:
                plain_factors.append(atom.name if k == 1
                                     else f"{atom.name}^{k}")
        num_str = _poly_str(ctx, num)
        if len(num) > 1:
            num_str = f"({num_str})"
        if exp_factors:
            if num_str == "1":
                num_str = " * ".join(exp_factors)
            else:
                num_str = " * ".join([num_str] + exp_factors)
        if plain_factors:
            if len(plain_factors) == 1:
                num_str = f"{num_str} / {plain_factors[0]}"
            else:
                num_str = f"{num_str} / ({' * '.join(plain_factors)})"
        return num_str
    num_str = _poly_str(ctx, num)
    if len(num) > 1:
        num_str = f"({num_str})"
    return f"{num_str} / ({_poly_str(ctx, den)})"
