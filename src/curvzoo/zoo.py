"""Classification reports and the randomized identity oracle.

classify() runs the classifier battery declared in BATTERY, in its fixed
order, on a chart and collects verdicts with symbolic witnesses.  Every
positive verdict carries the linear identity that certifies it (see
linsolve.certify); oracle_crosscheck() re-evaluates those identities at
seeded random points of F_p, for the prime p = 2^61 - 1, and counts
disagreements.  The values of every identity lie in the chart's context;
the oracle numbers the distinct ones once over all the report's identities
and compiles each once per call (exprs.ModularExpr: every coefficient
reduced mod p).  It draws each point as residues, one uniform in
[1, p) per atom of the chart, and shares it between every identity not
yet finished: at each point each distinct value is evaluated once and all
its denominators are inverted with a single modular inversion, and each
identity's distinct rows are then compared against those residues (a
repeated row reads the same residues, so it cannot change the result).
Every identity is still checked at its own count of independent uniform
points.  Atoms are algebraically independent, so independent substitution
is a sound randomized zero test, and reduction mod p is a ring
homomorphism: a true identity never disagrees, so a nonzero count means a
canonicalization or solver bug, never a sampling artifact.  A false
identity escapes one sample only when the point is a root of its
residual's numerator mod p, or p divides the numerator of the residual's
rational content (Schwartz-Zippel).

Reports are plain data: rendering to text or JSON is stable and
deterministic, so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .charts import Chart, OneForm, riemann, scalar_curvature
# The *_verdicts functions are the entries of BATTERY, looked up by name.
from .classifiers import (ClassifierVerdict, QuasiEinsteinResult,
                          WeakSymmetryNormalization, chaki_verdicts,
                          deszcz_verdicts, quasi_einstein_verdicts,
                          recurrence_verdicts, roter_verdicts,
                          theorem_verdicts, weak_symmetry_verdicts,
                          weak_Z_verdicts, weyl_verdicts)
from .exprs import (Atom, EvaluationError, Expr, ModularExpr, Number,
                    residue_powers)
from .linsolve import Identity, SolutionSpace
from .metrics import MetricSpec
from .operators import (check_gct, check_second_bianchi, named_tensor,
                        walker_cyclic_check)

#: Default oracle parameters: seeded random points of F_p, each atom's
#: residue drawn uniformly from [1, ORACLE_PRIME), compared in F_p.
DEFAULT_SAMPLES = 50
#: Most samples per identity that oracle_crosscheck accepts.  One shared
#: point for every identity of ex5_4 with every tensor takes 0.5-0.7 ms of
#: CPU, so the limit bounds that oracle at about 5-7 s.  An identity that
#: retries keeps drawing points, each evaluating every value of the report,
#: for at most MAX_DENOMINATOR_RETRIES rounds past the others.
MAX_SAMPLES = 10_000
DEFAULT_SEED = 42
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
        return asdict(self)


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
    axioms = check_gct(riemann(chart))
    return [ClassifierVerdict("kappa", True, witness=kappa),
            ClassifierVerdict("gct_axioms[R]", all(axioms.values()),
                              witness=dict(axioms)),
            ClassifierVerdict("second_bianchi[R]",
                              check_second_bianchi(chart, "R")),
            ClassifierVerdict("walker[R]", walker_cyclic_check(chart, "R"))]


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
    every positive identity at oracle_samples seeded random points of F_p,
    p = ORACLE_PRIME.
    The solution spaces of chaki, weak_symmetry, weak_Z, b3, b4 and
    quasi_einstein are back-substituted into their rows before their
    identities are attached (InternalInconsistencyError, naming the
    verdict, on failure); roter, generalized_roter and the Deszcz verdicts
    attach theirs without that guard, and recurrent and b2 carry none.
    Deszcz pseudosymmetry, B.T = L Q(W,T), is a solve for the one unknown
    L.  oracle_samples and seed are checked before anything is computed
    (ValueError outside 1..MAX_SAMPLES, or for a negative seed) when
    run_oracle is set.
    """
    if run_oracle:
        _check_samples(oracle_samples)
        _check_seed(seed)
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
    """An Identity whose Exprs are numbered among the distinct Exprs of
    every identity compiled with it (in oracle_crosscheck, the report's).

    values[k] is the ModularExpr of the k-th distinct Expr, and degrees
    the highest exponent of each ring position of the chart's context over
    values; identities compiled together share both lists.  slots gives the
    number of each solution value, and rows each distinct row once, in the
    order rows first occur, as (((coefficient number, value position),
    ...), rhs number)."""

    values: list
    degrees: list
    slots: list
    rows: list


def _compile(identities: Sequence[Identity]) -> list[_CompiledIdentity]:
    """Number the distinct Exprs of identities once, over all of them, and
    compile each mod ORACLE_PRIME once.  Each identity keeps each distinct
    compiled row once, where it first occurs: a repeated row reads the same
    residues at every point, so it can neither disagree nor fail where its
    first occurrence did not.  Every value lies in the context of one
    chart."""
    index: dict[Expr, int] = {}

    def slot(e: Expr) -> int:
        return index.setdefault(e, len(index))

    shapes = [([slot(v) for v in identity.values],
               list(dict.fromkeys(
                   (tuple((slot(c), j) for j, c in coeffs.items()), slot(rhs))
                   for coeffs, rhs in identity.rows)))
              for identity in identities]
    values = [ModularExpr(e, ORACLE_PRIME) for e in index]
    degrees = [max(column) for column in zip(*(m.degrees for m in values))]
    return [_CompiledIdentity(values, degrees, slots, rows)
            for slots, rows in shapes]


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
    """A seeded random point of F_p: atom by atom, a residue uniform in
    [1, ORACLE_PRIME)."""
    return {a: rng.randrange(1, ORACLE_PRIME) for a in atoms}


class _Evaluation(NamedTuple):
    """Compiled values at one point: residues[k] is the residue of value
    k, or None when it failed there, and failures[k] its EvaluationError."""

    residues: list
    failures: dict


def _evaluate(values: Sequence[ModularExpr], degrees: Sequence[int],
              point: Mapping[Atom, Number]) -> _Evaluation:
    """Every value at the point, each once: one residue_powers table, one
    at() per value, and the denominators other than 1 inverted together
    with one modular inversion.  A value fails on its own (it has no
    residue, or its denominator vanishes mod p); the others are still
    evaluated.  Raises ExpressionError when an occurring atom has no
    value."""
    if not values:
        return _Evaluation([], {})
    p = ORACLE_PRIME
    table = residue_powers(values[0].ctx, point, p, degrees)
    residues = []
    failures = {}
    fractions = []      # (position, numerator, denominator != 1)
    for m in values:
        try:
            num, den = m.at(table)
        except EvaluationError as exc:
            failures[len(residues)] = exc
            residues.append(None)
            continue
        if den != 1:
            fractions.append((len(residues), num, den))
        residues.append(num)
    if fractions:
        inverses = _inverses([den for _, _, den in fractions])
        for (k, num, _), inv in zip(fractions, inverses):
            residues[k] = num * inv % p
    return _Evaluation(residues, failures)


def check_identity_at(identity: Union[Identity, _CompiledIdentity],
                      point: Union[Mapping[Atom, Number], _Evaluation]
                      ) -> bool:
    """Evaluate every distinct retained row at the point modulo ORACLE_PRIME.

    identity is an Identity, compiled here, or one compiled by
    oracle_crosscheck.  The point gives atom values (rationals or residues
    mod p), and each distinct value is then evaluated once (_evaluate); or
    it is the point's evaluation that oracle_crosscheck shares between the
    identities of a report.  The distinct rows are compared in the order
    they first occur (_compile), stopping at the first disagreement; a
    repeated row would read the same residues again.  The result is the
    one lazy evaluation of every row would give: a value that fails (it
    has no residue, or its denominator vanishes mod p) fails on its own,
    and its failure is raised at the first use, by the solution values or
    else by the first row that reads it; a row that disagrees before that
    makes the result False.  Raises EvaluationError when a denominator
    vanishes mod p, and ExpressionError before any row when an occurring
    atom has no value.
    """
    if isinstance(identity, Identity):
        identity, = _compile([identity])
    if not isinstance(point, _Evaluation):
        point = _evaluate(identity.values, identity.degrees, point)
    residues, failures = point
    p = ORACLE_PRIME
    values = [residues[k] for k in identity.slots]
    if None in values:
        raise failures[identity.slots[values.index(None)]]
    for coeffs, rhs in identity.rows:
        total = 0
        for k, j in coeffs:
            r = residues[k]
            if r is None:
                raise failures[k]
            total += r * values[j]
        r = residues[rhs]
        if r is None:
            raise failures[rhs]
        if total % p != r:
            return False
    return True


def _check_samples(samples: int) -> None:
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}")


def _check_seed(seed: int) -> None:
    # random.Random seeds an int by its absolute value, so -s would draw
    # the points of s while the report prints -s.
    if seed < 0:
        raise ValueError("seed must not be negative")


def oracle_crosscheck(report: Report, chart: Chart,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> OracleSummary:
    """Re-evaluate every certified identity at seeded random points of F_p.

    The distinct values of the report's identities are numbered once, over
    all identities, and each is compiled mod ORACLE_PRIME once per call;
    the compiled forms are dropped when the call returns.  Points are drawn
    as residues (_draw_point: one uniform in [1, p) per atom, in atom
    order, from the seeded stream), one point per round, and
    each point serves every identity not yet finished: its power tables
    are built once, each distinct value is evaluated once and all its
    denominators are inverted together (_evaluate), and each identity's
    distinct rows are then compared in F_p against those shared residues
    (check_identity_at, called once per identity per point);
    checked_components still counts every row.  An identity whose values
    fail at a point (a denominator vanishes mod p) counts a retry there and
    waits for the next point.  An identity is finished after samples
    points that decided it, or after MAX_DENOMINATOR_RETRIES retries, when
    it is marked inconclusive.  So each identity is still checked at
    samples independent uniform points, and a report with one identity
    draws the points an oracle that checks it alone would draw.
    Deterministic for a fixed
    seed; ValueError for samples outside 1..MAX_SAMPLES or a negative seed.
    Points assign every atom of the chart, whose context holds every
    identity's values.
    """
    _check_samples(samples)
    _check_seed(seed)
    rng = random.Random(seed)
    atoms = chart.ctx.atoms
    programs = _compile(report.identities)
    done = [0] * len(programs)
    retries = [0] * len(programs)
    pending = list(range(len(programs)))
    disagreements = 0
    inconclusive = 0
    while pending:
        point = _draw_point(rng, atoms)
        shared = _evaluate(programs[0].values, programs[0].degrees, point)
        unfinished = []
        for i in pending:
            try:
                ok = check_identity_at(programs[i], shared)
            except EvaluationError:
                retries[i] += 1
                if retries[i] >= MAX_DENOMINATOR_RETRIES:
                    inconclusive += 1
                else:
                    unfinished.append(i)
                continue
            disagreements += not ok
            done[i] += 1
            if done[i] < samples:
                unfinished.append(i)
        pending = unfinished
    summary = OracleSummary(
        samples=samples, seed=seed, identities=len(report.identities),
        checked_components=sum(len(i.rows) for i in report.identities),
        disagreements=disagreements, inconclusive=inconclusive)
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
