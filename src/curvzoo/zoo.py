"""Classification reports and the randomized identity oracle.

classify() runs the classifier battery declared in BATTERY, in its fixed
order, on a chart and collects verdicts with symbolic witnesses.  Every
positive verdict carries the linear identity that certifies it (see
linsolve.certify); oracle_crosscheck() re-evaluates those identities at
seeded random rational points reduced modulo the prime p = 2^61 - 1 and
counts disagreements.  Atoms are algebraically independent,
so independent substitution is a sound randomized zero test, and reduction
mod p is a ring homomorphism: a true identity never disagrees, so a nonzero
count means a canonicalization or solver bug, never a sampling artifact.  A
false identity escapes one sample only when the point is a root of its
residual or p divides the residual's value (Schwartz-Zippel).

Reports are plain data: rendering to text or JSON is stable and
deterministic, so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .charts import Chart, OneForm, riemann, scalar_curvature
# The *_verdicts functions are the entries of BATTERY, looked up by name.
from .classifiers import (ClassifierVerdict, QuasiEinsteinResult,
                          WeakSymmetryNormalization, chaki_verdicts,
                          deszcz_verdicts, quasi_einstein_verdicts,
                          recurrence_verdicts, roter_verdicts,
                          theorem_verdicts, weak_symmetry_verdicts,
                          weak_Z_verdicts, weyl_verdicts)
from .exprs import (Atom, EvaluationError, Expr, PointResidues,
                    evaluate_rational)
from .linsolve import Identity, SolutionSpace
from .metrics import MetricSpec
from .operators import (check_gct, check_second_bianchi, named_tensor,
                        walker_cyclic_check)

#: Default oracle parameters: seeded random rational points with numerator
#: and denominator drawn uniformly from [1, 10^6], compared modulo
#: ORACLE_PRIME.
DEFAULT_SAMPLES = 50
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
    Every solver-backed verdict is back-substituted into its rows first
    (InternalInconsistencyError, naming the verdict, on failure).
    """
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


def random_point(rng: random.Random, atoms: Sequence[Atom]
                 ) -> dict[Atom, Fraction]:
    return {a: Fraction(rng.randint(1, GRID_MAX), rng.randint(1, GRID_MAX))
            for a in atoms}


def check_identity_at(identity: Identity,
                      point: dict[Atom, Fraction]) -> bool:
    """Evaluate every retained row at the point modulo ORACLE_PRIME.

    The two sides of a row are evaluated separately; each distinct Expr is
    evaluated once, when first needed.  Raises EvaluationError when a
    denominator vanishes mod p.
    """
    distinct, value_slots, rows = identity._indexed
    residues = PointResidues(point, ORACLE_PRIME)
    memo: list = [None] * len(distinct)

    def value_of(k: int) -> int:
        v = memo[k]
        if v is None:
            v = memo[k] = evaluate_rational(distinct[k], residues,
                                            ORACLE_PRIME)
        return v

    values = [value_of(k) for k in value_slots]
    for coeffs, rhs in rows:
        total = 0
        for k, j in coeffs:
            total += value_of(k) * values[j]
        if total % ORACLE_PRIME != value_of(rhs):
            return False
    return True


def oracle_crosscheck(report: Report, chart: Optional[Chart] = None,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> OracleSummary:
    """Re-evaluate every certified identity at seeded random rational points.

    Each point is reduced modulo ORACLE_PRIME and both sides of every row
    are compared in F_p (see check_identity_at).  Points are resampled on
    denominators that vanish mod p, up to
    MAX_DENOMINATOR_RETRIES per identity, after which that identity is marked
    inconclusive.  Deterministic for a fixed seed.  The chart argument is
    optional; the atom inventory is otherwise taken from the identities
    themselves.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    if chart is not None:
        atoms = chart.ctx.atoms
    else:
        atoms = ()
        for identity in report.identities:
            for value in identity.values:
                atoms = value.ctx.atoms
                break
            if atoms:
                break
    disagreements = 0
    inconclusive = 0
    checked = 0
    for identity in report.identities:
        retries = 0
        done = 0
        while done < samples:
            point = random_point(rng, atoms)
            try:
                ok = check_identity_at(identity, point)
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
