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
``gcd_cofactors`` computes the gcd and both cofactors at once by two
methods, composed there alone and tried in order:

1. the heuristic gcd GCDHEU (Char, Geddes and Gonnet, 1989) with one
   Kronecker substitution: each polynomial is packed into one Python int,
   so one integer gcd and two exact integer divisions, all run in C, give
   a candidate, which is accepted only with a certificate that it is the
   gcd;
2. for operands too large or too sparse to pack, and candidates that fail,
   Brown's dense modular gcd (1971), certified by exact division and a
   degree bound, whose work the degrees and a fixed list of primes bound,
   whatever the size of the coefficients.

For two primitive operands either method gives a primitive gcd with a
positive lex-leading coefficient, and so positive lex-leading quotients
when the operands have them.  Derivatives read each term's exponents
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

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, product, zip_longest
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
#: prod(deg_v + 1) * k (see there); larger operands go on to the modular
#: gcd.  The largest packed operands measured were 504 bits over the
#: generated-pipeline benchmark charts and 59,160 bits in a full classify
#: with every tensor of a generated warped chart, so the cap leaves a wide
#: margin while it keeps hostile operands from packing into gigabytes.
GCD_PACKED_BITS = 1 << 20

#: Most fields, prod(deg_v + 1), per operand term that _kronecker_cofactors
#: packs; sparser pairs go on to the modular gcd.  Packing lays each
#: operand out densely, one field per monomial of the degree box, so a
#: sparse pair packs into far more bits than its terms hold, and the integer
#: gcd is quadratic in the bits.  Pairs measured on the generated-pipeline
#: charts and in full classify runs of the generated templates had at most
#: 3 fields per term.  Pairs drawn by the kernel's tests had up to 1,911;
#: packed, they took 1/9 of the modular gcd's time in the median but up to
#: 3.8 times it, so the cap gives up speed on most such pairs to bound the
#: worst.
GCD_FIELDS_PER_TERM = 16

#: Candidates _kronecker_cofactors tries, doubling the field width k after
#: each failed one, before it gives up.
GCD_ATTEMPTS = 4


def gcd_cofactors(f, g):
    """(h, f/h, g/h) for primitive integer polynomials f and g of one ring,
    neither a monomial and with a generator in common, where h is their
    gcd, primitive with a positive lex-leading coefficient; h is the unit,
    with f and g themselves as the quotients, when f and g are coprime.

    The one place the chain is composed: the Kronecker heuristic
    (_kronecker_cofactors), else the modular gcd (_modular_cofactors),
    whose work the degrees and a fixed list of primes bound.  Both give h
    with a positive lex-leading coefficient."""
    return _kronecker_cofactors(f, g) or _modular_cofactors(f, g)


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


def _modular_cofactors(f, g):
    """gcd_cofactors' second link: Brown's dense modular gcd (J. ACM, 1971).

    f and g are reduced modulo the first Mersenne prime p above twice the
    gcd c of their lex-leading coefficients and dividing neither, and
    _gcd_mod gives their gcd over Z/p or a polynomial of larger lex-leading
    monomial: at least that of their gcd G, as p does not divide G's
    lex-leading coefficient.  Of degree 0, it makes f and g coprime; else
    the primitive part h of c times it, in balanced residues (which keep c
    as the lex-leading coefficient), signed positive there, is G if it
    divides f and g: it then divides G with a lex-leading monomial at least
    G's, so G/h is a constant, 1.  Otherwise the next prime is tried; past
    2^44497 - 1, ExpressionError.  With d_v the lower degree in generator
    v, a prime costs at most prod 2(2 d_v + 1), over the generators but
    the first, gcds in the first one, with the evaluations and
    interpolations."""
    f_lc, g_lc = f[max(f)], g[max(g)]
    lc = gcd(f_lc, g_lc)
    for e in (61, 127, 521, 1279, 2281, 4423, 9941, 19937, 44497):
        p = 2 ** e - 1
        if p <= 2 * lc or not (f_lc % p and g_lc % p):
            continue
        image = _gcd_mod(*({m: c % p for m, c in side.items() if c % p}
                           for side in (f, g)), p, random.Random(p))
        if image is None:
            continue
        if not any(max(image)):
            return image, f, g
        h = _primitive({m: (c * lc + p // 2) % p - p // 2
                        for m, c in image.items()})[1]
        a = _quotient(f, h)
        if a is not None and (b := _quotient(g, h)) is not None:
            return h, a, b
    raise ExpressionError("no prime of the modular gcd answered")


def _gcd_mod(f: dict, g: dict, p: int, rng) -> Optional[dict]:
    """The gcd over Z/p, with a lex-leading coefficient of 1, of nonzero
    polynomials f and g, or a polynomial of larger lex-leading monomial, or
    None when a level gives up (after 2(n + 1) points).

    Read over Z/p[v], v the last generator that occurs, f and g lose their
    contents in v, and gamma is the gcd of their lex-leading coefficients.
    Each x from rng with gamma(x) != 0 gives an image, gamma(x) times the
    gcd at v = x.  The images of the least lex-leading monomial L met are
    interpolated in v; after n + 1, n = deg gamma + d (Brown's bound; d is
    the lower degree in v, or the gcd's at a point of the other generators
    keeping both), the answer is the contents' gcd times the interpolant's
    primitive part, or the former after an image of degree 0.  It is the
    gcd or has a larger lex-leading monomial, by induction: gamma(x) != 0
    keeps the gcd's at v = x, so L is at least that; if equal, each image
    is gamma(x) times the gcd at x, and the interpolant, of degree at most
    n in v, is gamma times the gcd over its lex-leading coefficient."""
    zero = (0,) * len(next(iter(f)))
    if max(f) == zero or max(g) == zero:
        return {zero: 1}
    if not any(m[-1] for m in chain(f, g)):
        h = _gcd_mod(*({m[:-1]: c for m, c in side.items()}
                       for side in (f, g)), p, rng)
        return None if h is None else {m + (0,): c for m, c in h.items()}
    F, G = _in_last(f), _in_last(g)
    if len(zero) == 1:
        return _from_last({(): _ugcd(F[()], G[()], p)})
    contents = [_ucontent(F, p), _ucontent(G, p)]
    F, G = ({m: _uquo(h, c, p) for m, h in side.items()}
            for side, c in zip((F, G), contents))
    gamma = _ugcd(F[max(F)], G[max(G)], p)
    beta = [rng.randrange(p) for _ in zero[1:]]
    images = [_at_others(side, beta, p) for side in (F, G)]
    degrees = [len(image) - 1 for image in images]
    if images[0][-1] and images[1][-1]:
        degrees.append(len(_ugcd(*images, p)) - 1)
    n = len(gamma) - 1 + min(degrees)
    lead, points = None, set()
    for _ in range(2 * n + 2):
        x = rng.randrange(p)
        powers = list(accumulate([x] * max(n + 1, *degrees),
                                 lambda a, b: a * b % p, initial=1))
        scale = sum(map(mul, gamma, powers)) % p
        if not scale or x in points:
            continue
        image = _gcd_mod(*({m: v for m, h in side.items()
                            if (v := sum(map(mul, h, powers)) % p)}
                           for side in (F, G)), p, rng)
        if image is None:
            return None
        top = max(image)
        if lead is None or top < lead:
            if not any(top):
                break
            lead, points, H, q = top, set(), {}, [1]
        elif top > lead:
            continue
        # Newton's step: H += q (scale image - H(x)) / q(x).
        inv = pow(sum(map(mul, q, powers)) % p, -1, p)
        for m in H.keys() | image.keys():
            h = H.get(m, [])
            r = (scale * image.get(m, 0) - sum(map(mul, h, powers))) * inv % p
            if r:
                H[m] = [(u + r * w) % p
                        for u, w in zip_longest(h, q, fillvalue=0)]
        q = [(u - x * w) % p for u, w in zip([0] + q, q + [0])]
        points.add(x)
        if len(points) > n:
            break
    else:
        return None
    content = _from_last({zero[1:]: _ugcd(*contents, p)})
    if not any(top):
        return content
    H_content = _ucontent(H, p)
    h = _poly_mul(_from_last({m: _uquo(h, H_content, p)
                              for m, h in H.items()}), content, _adder_of(f))
    inverse = pow(H[lead][-1], -1, p)
    return {m: v for m, c in h.items() if (v := c * inverse % p)}


def _in_last(f: dict) -> dict:
    """f as a dict from exponents of the generators but the last to
    polynomials in the last, in the form of _ugcd."""
    out: dict = {}
    for m, c in f.items():
        out.setdefault(m[:-1], {})[m[-1]] = c
    return {m: [d.get(i, 0) for i in range(max(d) + 1)]
            for m, d in out.items()}


def _from_last(F: dict) -> dict:
    """The inverse of _in_last."""
    return {m + (i,): c for m, h in F.items() for i, c in enumerate(h) if c}


def _at_others(F: dict, beta: list, p: int) -> list:
    """F, in the form of _in_last, with the generators but the last at
    beta, mod p, as a list as long as F's longest value."""
    out = [0] * max(map(len, F.values()))
    for m, h in F.items():
        w = reduce(mul, map(pow, beta, m, [p] * len(m)), 1)
        out = [u + w * c for u, c in zip(out, h + [0] * len(out))]
    return [c % p for c in out]


def _ugcd(a: list, b: list, p: int) -> list:
    """The monic gcd of polynomials over Z/p in one generator, not both 0,
    as lists of coefficients by increasing degree with no trailing zero."""
    while b:
        lc, low = b[-1], b[:-1]
        while len(a) >= len(b):
            c, s = a[-1], len(a) - len(b)
            a = [u * lc % p for u in a[:s]] + [
                (u * lc - c * w) % p for u, w in zip(a[s:-1], low)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


def _uquo(a: list, b: list, p: int) -> list:
    """a / b, in the form of _ugcd, for a monic b that divides a."""
    a, db = a[:], len(b) - 1
    q = [0] * (len(a) - db)
    for i in reversed(range(len(q))):
        c = q[i] = a[i + db]
        if c:
            a[i:i + db] = [(u - c * w) % p for u, w in zip(a[i:i + db], b)]
    return q


def _ucontent(F: dict, p: int) -> list:
    """The monic gcd of the values of F, in the form of _ugcd."""
    return reduce(lambda a, b: a if len(a) == 1 else _ugcd(a, b, p),
                  F.values(), [])


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
