"""Classification reports and the randomized identity oracle.

classify() runs the classifier battery declared in BATTERY, in its fixed
order, on a chart and collects verdicts with symbolic witnesses.  Every
positive verdict carries the linear identity that certifies it (see
linsolve.certify); oracle_crosscheck() re-evaluates those identities at
seeded random rational points reduced modulo the prime p = 2^61 - 1 and
counts disagreements.  The values of every identity lie in the chart's
context; the oracle numbers the distinct ones and compiles each once per
call (exprs.ModularExpr: every coefficient reduced mod p), draws each point
straight as residues over the chart's atoms, and inverts all the
denominators of a point with a single modular inversion.  Atoms are
algebraically independent, so independent substitution is a sound
randomized zero test, and reduction mod p is a ring homomorphism: a true
identity never disagrees, so a nonzero count means a canonicalization or
solver bug, never a sampling artifact.  A false identity escapes one sample
only when the point is a root of its residual or p divides the residual's
value (Schwartz-Zippel).

Reports are plain data: rendering to text or JSON is stable and
deterministic, so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .charts import Chart, OneForm, riemann, scalar_curvature
# The *_verdicts functions are the entries of BATTERY, looked up by name.
from .classifiers import (ClassifierVerdict, QuasiEinsteinResult,
                          WeakSymmetryNormalization, chaki_verdicts,
                          deszcz_verdicts, quasi_einstein_verdicts,
                          recurrence_verdicts, roter_verdicts,
                          theorem_verdicts, weak_symmetry_verdicts,
                          weak_Z_verdicts, weyl_verdicts)
from .exprs import (Atom, EvaluationError, Expr, ExpressionError,
                    ModularExpr, Number, residue_powers)
from .linsolve import Identity, SolutionSpace
from .metrics import MetricSpec
from .operators import (check_gct, check_second_bianchi, named_tensor,
                        walker_cyclic_check)

#: Default oracle parameters: seeded random rational points with numerator
#: and denominator drawn uniformly from [1, 10^6], compared modulo
#: ORACLE_PRIME.
DEFAULT_SAMPLES = 50
#: Most samples per identity that oracle_crosscheck accepts.  One sample of
#: every identity of ex5_4 with every tensor takes 1.5-2.3 ms of CPU, so the
#: limit bounds that oracle at about 15-23 s.
MAX_SAMPLES = 10_000
DEFAULT_SEED = 42
GRID_MAX = 10 ** 6
MAX_DENOMINATOR_RETRIES = 1000
#: The Mersenne prime 2^61 - 1; the oracle compares both sides in F_p.
ORACLE_PRIME = 2 ** 61 - 1

ALL_TENSORS = ("R", "C", "K", "conh", "P", "S")
DEFAULT_TENSORS = ("R", "S")


@dataclass
class OracleSummary:
    samples: int
    seed: int
    identities: int
    checked_components: int
    disagreements: int
    inconclusive: int

    def to_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed,
                "identities": self.identities,
                "checked_components": self.checked_components,
                "disagreements": self.disagreements,
                "inconclusive": self.inconclusive}


@dataclass
class Report:
    chart_name: str
    dim: int
    verdicts: list
    identities: list = field(default_factory=list)
    oracle: Optional[OracleSummary] = None

    def verdict(self, name: str) -> ClassifierVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


# ---------------------------------------------------------------------------
# The classifier battery.
# ---------------------------------------------------------------------------


def curvature_verdicts(chart: Chart, tensors) -> list[ClassifierVerdict]:
    """kappa, then the algebraic (GCT) axioms, the second Bianchi identity
    and Walker's cyclic identity of R."""
    kappa = scalar_curvature(chart)
    R = riemann(chart)
    axioms = check_gct(R)
    return [ClassifierVerdict("kappa", True, witness=kappa),
            ClassifierVerdict("gct_axioms[R]", all(axioms.values()),
                              witness=dict(axioms)),
            ClassifierVerdict("second_bianchi[R]",
                              check_second_bianchi(chart, R)),
            ClassifierVerdict("walker[R]", walker_cyclic_check(chart, R))]


def gct_verdicts(chart: Chart, tname: str) -> list[ClassifierVerdict]:
    """gct_axioms[T] of a (0,4) tensor other than R (whose axioms
    curvature_verdicts reports)."""
    if tname == "R":
        return []
    axioms = check_gct(named_tensor(chart, tname))
    return [ClassifierVerdict(f"gct_axioms[{tname}]", all(axioms.values()),
                              witness=dict(axioms))]


#: The battery in report order: chart entries, then entries run for each
#: selected tensor in turn (those whose valence matches; ANY matches every
#: tensor), then chart entries again.  A chart entry is called as
#: fn(chart, tensors), a tensor entry as fn(chart, tname); both return
#: finished verdicts.  Functions are looked up by name in this module when
#: classify() runs.
ANY = "any"
BATTERY = (
    ("chart", ("curvature_verdicts",)),
    ("tensor", (((0, 4), "gct_verdicts"),
                (ANY, "deszcz_verdicts"),
                (ANY, "chaki_verdicts"),
                (ANY, "recurrence_verdicts"),
                ((0, 4), "weak_symmetry_verdicts"),
                ((0, 2), "weak_Z_verdicts"))),
    ("chart", ("weyl_verdicts", "quasi_einstein_verdicts", "roter_verdicts",
               "theorem_verdicts")),
)


def classify(spec_or_chart: Union[MetricSpec, Chart],
             checks: Optional[Sequence[str]] = None,
             tensors: Sequence[str] = DEFAULT_TENSORS,
             oracle_samples: int = DEFAULT_SAMPLES,
             seed: int = DEFAULT_SEED,
             run_oracle: bool = True) -> Report:
    """Run the classifier battery (BATTERY) and assemble a Report.

    checks filters verdicts by name prefix (None = everything); tensors
    selects which of R, C, K, conh, P, S the tensor-parameterized classifiers
    run on, each once however often it is named.  The oracle re-evaluates
    every positive identity at oracle_samples seeded random rational points,
    modulo ORACLE_PRIME.
    The solution spaces of chaki, weak_symmetry, weak_Z, b3, b4 and
    quasi_einstein are back-substituted into their rows before their
    identities are attached (InternalInconsistencyError, naming the
    verdict, on failure); roter, generalized_roter and the Deszcz verdicts
    attach theirs without that guard, and recurrent and b2 carry none.
    Deszcz pseudosymmetry, B.T = L Q(W,T), is a solve for the one unknown
    L.  oracle_samples is checked before anything is computed (ValueError
    outside 1..MAX_SAMPLES) when run_oracle is set.
    """
    if run_oracle:
        _check_samples(oracle_samples)
    chart = (spec_or_chart.to_chart()
             if isinstance(spec_or_chart, MetricSpec) else spec_or_chart)
    tensors = tuple(dict.fromkeys(tensors))  # first occurrences, in order
    for t in tensors:
        if t not in ALL_TENSORS:
            raise ValueError(f"unknown tensor selector {t!r}")

    verdicts: list[ClassifierVerdict] = []
    for scope, entries in BATTERY:
        if scope == "chart":
            for name in entries:
                verdicts += globals()[name](chart, tensors)
            continue
        for tname in tensors:
            valence = named_tensor(chart, tname).valence
            for selector, name in entries:
                if selector in (ANY, valence):
                    verdicts += globals()[name](chart, tname)
    if checks is not None:
        verdicts = [v for v in verdicts
                    if any(v.name.startswith(c) for c in checks)]

    report = Report(chart_name=chart.name, dim=chart.n, verdicts=verdicts,
                    identities=[v.identity for v in verdicts
                                if v.identity is not None])
    if run_oracle:
        report.oracle = oracle_crosscheck(report, chart,
                                          samples=oracle_samples, seed=seed)
    return report


# ---------------------------------------------------------------------------
# Randomized oracle.
# ---------------------------------------------------------------------------


@dataclass
class _CompiledIdentity:
    """An Identity with every distinct Expr numbered and compiled mod
    ORACLE_PRIME.

    values[k] is the ModularExpr of the k-th distinct Expr, numbered in
    the order lazy evaluation first needs them: the solution values, then
    each row's coefficients and rhs.  slots gives the number of each
    solution value, and rows each row as ([(coefficient number, value
    position)], rhs number).  degrees is the highest exponent of each ring
    position of the chart's context over values."""

    values: list
    slots: list
    rows: list
    degrees: list


def _compile(identity: Identity, compiled: dict) -> _CompiledIdentity:
    """Number and compile the distinct Exprs of identity, each compiled
    once; compiled (Expr -> ModularExpr) is shared with the other
    identities of one oracle_crosscheck call.  Every value lies in the
    context of one chart."""
    index: dict[Expr, int] = {}

    def slot(e: Expr) -> int:
        return index.setdefault(e, len(index))

    slots = [slot(v) for v in identity.values]
    rows = [([(slot(c), j) for j, c in coeffs.items()], slot(rhs))
            for coeffs, rhs in identity.rows]
    values = []
    for e in index:
        m = compiled.get(e)
        if m is None:
            m = compiled[e] = ModularExpr(e, ORACLE_PRIME)
        values.append(m)
    degrees = [max(column) for column in zip(*(m.degrees for m in values))]
    return _CompiledIdentity(values, slots, rows, degrees)


def _inverses(residues: Sequence[int]) -> list[int]:
    """The inverses mod ORACLE_PRIME of nonzero residues, with a single
    modular inversion (Montgomery's trick: invert the product, then peel
    the factors off it one at a time)."""
    p = ORACLE_PRIME
    prefix = []
    product = 1
    for r in residues:
        prefix.append(product)
        product = product * r % p
    inverse = pow(product, -1, p)
    out = [0] * len(residues)
    for i in range(len(residues) - 1, -1, -1):
        out[i] = inverse * prefix[i] % p
        inverse = inverse * residues[i] % p
    return out


def _draw_point(rng: random.Random, atoms: Sequence[Atom]) -> dict[Atom, int]:
    """A seeded random point as residues mod ORACLE_PRIME: atom by atom, a
    numerator and a denominator uniform in [1, GRID_MAX], drawn in that
    order, give the residue of their quotient."""
    pairs = [(rng.randint(1, GRID_MAX), rng.randint(1, GRID_MAX))
             for _ in atoms]
    inverses = _inverses([den for _, den in pairs])
    return {a: num * inv % ORACLE_PRIME
            for a, (num, _), inv in zip(atoms, pairs, inverses)}


def check_identity_at(identity: Union[Identity, _CompiledIdentity],
                      point: Mapping[Atom, Number]) -> bool:
    """Evaluate every retained row at the point modulo ORACLE_PRIME.

    identity is an Identity, compiled here, or one compiled by
    oracle_crosscheck; the point gives atom values, rationals or residues
    mod p.  Each distinct Expr is evaluated once, from its compiled form and
    power tables of the point's residues, and the denominators other than 1
    are inverted together with one modular inversion.  The rows are then
    compared in order, stopping at the first disagreement.  The result is
    the one lazy evaluation would give: when a value fails (it has no
    residue, or its denominator vanishes mod p), the rows are still checked
    in order, and the failure is raised only at the first row that needs
    that value; a row that disagrees before it makes the result False.
    Raises EvaluationError when a denominator vanishes mod p, and
    ExpressionError before any row when an occurring atom has no value.
    """
    if isinstance(identity, Identity):
        identity = _compile(identity, {})
    if not identity.values:
        return True     # no Exprs, so no rows
    p = ORACLE_PRIME
    table = residue_powers(identity.values[0].ctx, point, p,
                           identity.degrees)
    residues = []
    fractions = []      # (position, numerator, denominator != 1)
    failure = None
    for m in identity.values:
        try:
            num, den = m.at(table)
        except ExpressionError as exc:
            failure = exc
            break
        if den != 1:
            fractions.append((len(residues), num, den))
        residues.append(num)
    if fractions:
        inverses = _inverses([den for _, _, den in fractions])
        for (k, num, _), inv in zip(fractions, inverses):
            residues[k] = num * inv % p
    # Distinct values are numbered in the order lazy evaluation first
    # needs them, so the values before a failure are exactly those a lazy
    # check computes before it reaches the failing one.
    known = len(residues)
    if any(k >= known for k in identity.slots):
        raise failure
    values = [residues[k] for k in identity.slots]
    for coeffs, rhs in identity.rows:
        total = 0
        for k, j in coeffs:
            if k >= known:
                raise failure
            total += residues[k] * values[j]
        if rhs >= known:
            raise failure
        if total % p != residues[rhs]:
            return False
    return True


def _check_samples(samples: int) -> None:
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}")


def oracle_crosscheck(report: Report, chart: Chart,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> OracleSummary:
    """Re-evaluate every certified identity at seeded random rational points.

    Each distinct value of the report's identities is compiled mod
    ORACLE_PRIME once per call (its coefficients reduced, shared between
    identities by Expr); the compiled forms are dropped when the call
    returns.  Points are drawn straight as residues (_draw_point: the
    seeded sequence of numerator and denominator pairs of the rational
    points), and both sides of every row are compared in F_p (see
    check_identity_at, called once per point).  Points are resampled on
    denominators that vanish mod p, up to MAX_DENOMINATOR_RETRIES per
    identity, after which that identity is marked inconclusive.
    Deterministic for a fixed seed.  Points assign every atom of the
    chart, whose context holds every identity's values.
    """
    _check_samples(samples)
    rng = random.Random(seed)
    atoms = chart.ctx.atoms
    disagreements = 0
    inconclusive = 0
    checked = 0
    compiled: dict = {}
    for identity in report.identities:
        program = _compile(identity, compiled)
        retries = 0
        done = 0
        while done < samples:
            point = _draw_point(rng, atoms)
            try:
                ok = check_identity_at(program, point)
            except EvaluationError:
                retries += 1
                if retries >= MAX_DENOMINATOR_RETRIES:
                    inconclusive += 1
                    break
                continue
            done += 1
            if not ok:
                disagreements += 1
        checked += len(identity.rows)
    summary = OracleSummary(samples=samples, seed=seed,
                            identities=len(report.identities),
                            checked_components=checked,
                            disagreements=disagreements,
                            inconclusive=inconclusive)
    report.oracle = summary
    return summary


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _serialize_space(space: SolutionSpace) -> dict:
    return {
        "consistent": space.consistent,
        "names": list(space.names),
        "particular": [str(e) for e in space.particular],
        "basis": [[str(e) for e in b] for b in space.basis],
        "free_parameters": [space.names[j] for j in space.free_columns],
    }


def _serialize_witness(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, Expr):
        return str(witness)
    if isinstance(witness, OneForm):
        return [str(c) for c in witness]
    if isinstance(witness, SolutionSpace):
        return _serialize_space(witness)
    if isinstance(witness, QuasiEinsteinResult):
        return {
            "found": witness.found,
            "einstein": witness.einstein,
            "alpha": None if witness.alpha is None else str(witness.alpha),
            "beta": None if witness.beta is None else str(witness.beta),
            "eta": None if witness.eta is None
            else [str(c) for c in witness.eta],
            "roots": [str(r) for r in witness.roots],
        }
    if isinstance(witness, WeakSymmetryNormalization):
        out = {"symmetrized": [[str(c) for c in f]
                               for f in witness.symmetrized],
               "pair_equalities_hold": witness.pair_equalities_hold}
        if witness.chaki is not None:
            out["chaki"] = [[str(c) for c in f] for f in witness.chaki]
        return out
    if isinstance(witness, dict):
        return {k: _serialize_witness(v) for k, v in witness.items()}
    if isinstance(witness, (bool, int, str)):
        return witness
    if isinstance(witness, (list, tuple)):
        return [_serialize_witness(v) for v in witness]
    return str(witness)


def report_to_dict(report: Report) -> dict:
    return {
        "chart": report.chart_name,
        "dim": report.dim,
        "verdicts": [{
            "classifier": v.name,
            "outcome": v.outcome,
            "witness": _serialize_witness(v.witness),
            "notes": v.notes,
        } for v in report.verdicts],
        "oracle": report.oracle.to_dict() if report.oracle else None,
    }


def render_report(report: Report, format: str = "text") -> str:
    """Render a report; 'json' is machine-stable, 'text' human-ordered."""
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=False) \
            + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"chart {report.chart_name} (dim {report.dim})"]
    for v in report.verdicts:
        if v.name == "kappa":
            lines.append(f"  kappa = {v.witness}")
            continue
        outcome = {True: "yes", False: "no", None: "degenerate"}[v.outcome]
        line = f"  {v.name}: {outcome}"
        if isinstance(v.witness, Expr):
            line += f"  [{v.witness}]"
        elif isinstance(v.witness, OneForm):
            line += f"  [{v.witness}]"
        elif isinstance(v.witness, SolutionSpace) and v.witness.is_unique:
            vals = ", ".join(str(e) for e in v.witness.particular)
            line += f"  [{vals}]"
        elif isinstance(v.witness, SolutionSpace):
            line += f"  [family, {v.witness.dimension} free]"
        if v.notes:
            line += f"  ({v.notes})"
        lines.append(line)
    if report.oracle:
        o = report.oracle
        lines.append(f"  oracle: {o.identities} identities x {o.samples} "
                     f"samples, seed {o.seed}: "
                     f"{o.disagreements} disagreements, "
                     f"{o.inconclusive} inconclusive")
    return "\n".join(lines) + "\n"
