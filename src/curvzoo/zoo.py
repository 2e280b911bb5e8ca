"""Classification reports and the randomized identity oracle.

classify() runs a fixed, deterministic battery of classifiers on a chart and
collects verdicts with symbolic witnesses.  Every positive verdict carries
the linear identity that certifies it; oracle_crosscheck() re-evaluates those
identities at seeded random rational points reduced modulo the prime
p = 2^61 - 1 and counts disagreements.  Atoms are algebraically independent,
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
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .charts import (Chart, OneForm, Tensor, is_closed, ricci, riemann,
                     scalar_curvature)
from .classifiers import (ClassifierVerdict, QuasiEinsteinResult,
                          SolverOutcome, WeakSymmetryNormalization,
                          check_semisymmetric, classify_deszcz,
                          classify_generalized_roter, classify_roter,
                          form_recurrence_b4, form_recurrence_checks,
                          normalize_weak_solution, solve_chaki,
                          solve_quasi_einstein, solve_recurrence,
                          solve_weak_Z, solve_weak_symmetry_04,
                          theorem_residual)
from .exprs import (Atom, EvaluationError, Expr, PointResidues,
                    evaluate_rational)
from .linsolve import (InternalInconsistencyError, SolutionSpace,
                       verify_solution_space)
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
MAX_IDENTITY_COMPONENTS = 48
#: The Mersenne prime 2^61 - 1; the oracle compares both sides in F_p.
ORACLE_PRIME = 2 ** 61 - 1

ALL_TENSORS = ("R", "C", "K", "conh", "P", "S")
DEFAULT_TENSORS = ("R", "S")


@dataclass
class Identity:
    """One certified linear identity: sum_j coeff_j * value_j = rhs, per row.

    rows hold (coefficient-map, rhs) pairs exactly as the generating linear
    system produced them; values is the certified solution vector.  The
    oracle checks each retained row at random rational points, reduced mod
    ORACLE_PRIME, by evaluating coefficients, values and rhs independently.
    """

    name: str
    rows: list
    values: list

    @cached_property
    def _indexed(self) -> tuple[list, list, list]:
        """(distinct Exprs, values, rows) with every Expr as its index in
        the first list and each row as ([(coefficient, value position)],
        rhs).  Built on first use, so rows and values must not change
        after the oracle has seen the identity."""
        index: dict[Expr, int] = {}

        def slot(e: Expr) -> int:
            return index.setdefault(e, len(index))

        values = [slot(v) for v in self.values]
        rows = [([(slot(c), j) for j, c in coeffs.items()], slot(rhs))
                for coeffs, rhs in self.rows]
        return list(index), values, rows


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


def _space_rows_identity(name: str, rows: list, space: SolutionSpace
                         ) -> Optional[Identity]:
    if not space.consistent:
        return None
    return Identity(name, rows, list(space.particular))


def _proportional_identity(name: str, lhs: Tensor, rhs: Tensor,
                           coefficient: Expr) -> Identity:
    rows = []
    for idx in np.ndindex(rhs.array.shape):
        r, l = rhs.array[idx], lhs.array[idx]
        if r.is_zero and l.is_zero:
            continue
        rows.append(({0: r}, l))
        if len(rows) >= MAX_IDENTITY_COMPONENTS:
            break
    return Identity(name, rows, [coefficient])


def _combination_identity(name: str, target: Tensor,
                          generators: Sequence[Tensor],
                          coefficients: Sequence[Expr]) -> Identity:
    rows = []
    for idx in np.ndindex(target.array.shape):
        coeffs = {j: g.array[idx] for j, g in enumerate(generators)
                  if not g.array[idx].is_zero}
        rhs = target.array[idx]
        if not coeffs and rhs.is_zero:
            continue
        rows.append((coeffs, rhs))
        if len(rows) >= MAX_IDENTITY_COMPONENTS:
            break
    return Identity(name, rows, list(coefficients))


def _verdict_identity(verdict: ClassifierVerdict) -> Optional[Identity]:
    payload = verdict.identity
    if payload is None:
        return None
    kind = payload[0]
    if kind == "proportional":
        _, lhs, rhs, coeff = payload
        return _proportional_identity(verdict.name, lhs, rhs, coeff)
    if kind == "combination":
        _, target, gens, coeffs = payload
        return _combination_identity(verdict.name, target, gens, coeffs)
    if kind == "linear_rows":
        _, rows, space = payload
        kept = [(c, r) for c, r in rows
                if c or not r.is_zero][:MAX_IDENTITY_COMPONENTS]
        return _space_rows_identity(verdict.name, kept, space)
    raise ValueError(f"unknown identity payload {kind!r}")


def _outcome_of(solver: SolverOutcome) -> Optional[bool]:
    if solver.degenerate:
        return None
    return solver.consistent


def _solver_notes(solver: SolverOutcome) -> str:
    if solver.degenerate:
        return f"outside {solver.degenerate_set}"
    return ""


def classify(spec_or_chart: Union[MetricSpec, Chart],
             checks: Optional[Sequence[str]] = None,
             tensors: Sequence[str] = DEFAULT_TENSORS,
             oracle_samples: int = DEFAULT_SAMPLES,
             seed: int = DEFAULT_SEED,
             run_oracle: bool = True) -> Report:
    """Run the classifier battery in a fixed order and assemble a Report.

    checks filters verdicts by name prefix (None = everything); tensors
    selects which of R, C, K, conh, P, S the tensor-parameterized classifiers
    run on.  The oracle re-evaluates every positive identity at
    oracle_samples seeded random rational points, modulo ORACLE_PRIME.
    Every solver-backed verdict is back-substituted into its rows first
    (InternalInconsistencyError, naming the verdict, on failure).
    """
    chart = (spec_or_chart.to_chart()
             if isinstance(spec_or_chart, MetricSpec) else spec_or_chart)
    for t in tensors:
        if t not in ALL_TENSORS:
            raise ValueError(f"unknown tensor selector {t!r}")

    verdicts: list[ClassifierVerdict] = []

    def emit(verdict: ClassifierVerdict):
        if checks is None or any(verdict.name.startswith(c) for c in checks):
            payload = verdict.identity
            if payload is not None and payload[0] == "linear_rows":
                _, rows, space = payload
                try:
                    verify_solution_space(space, rows, chart.ctx)
                except InternalInconsistencyError as err:
                    raise InternalInconsistencyError(
                        f"{verdict.name}: {err}") from None
            verdicts.append(verdict)

    from .classifiers import (_chaki_rows, _weak04_rows, _weakZ_rows,
                              nabla_cached)

    kappa = scalar_curvature(chart)
    emit(ClassifierVerdict("kappa", True, witness=kappa))

    R = riemann(chart)
    axioms = check_gct(R)
    emit(ClassifierVerdict("gct_axioms[R]", all(axioms.values()),
                           witness=dict(axioms)))
    emit(ClassifierVerdict("second_bianchi[R]",
                           check_second_bianchi(chart, R)))
    emit(ClassifierVerdict("walker[R]", walker_cyclic_check(chart, R)))

    chaki_solutions: list[tuple[str, OneForm]] = []

    for tname in tensors:
        T = named_tensor(chart, tname)
        if tname != "R" and T.valence == (0, 4):
            ax = check_gct(T)
            emit(ClassifierVerdict(f"gct_axioms[{tname}]", all(ax.values()),
                                   witness=dict(ax)))
        emit(ClassifierVerdict(f"semisymmetric[{tname}]",
                               check_semisymmetric(chart, tname)))
        for wname in ("g", "S"):
            emit(classify_deszcz(chart, tname, wname,
                                 name=f"deszcz[{tname};{wname}]"))

        chaki = solve_chaki(chart, tname, key=tname)
        verdict = ClassifierVerdict(
            f"chaki[{tname}]", _outcome_of(chaki),
            witness=chaki.space if chaki.consistent else None,
            notes=_solver_notes(chaki))
        if chaki.consistent:
            rows = list(_chaki_rows(chart, T,
                                    nabla_cached(chart, T, tname)))
            verdict.identity = ("linear_rows", rows, chaki.space)
        emit(verdict)
        if chaki.consistent and not chaki.degenerate:
            phi = OneForm(chart, chaki.space.particular[:chart.n])
            chaki_solutions.append((tname, phi))

        rec = solve_recurrence(chart, tname, key=tname)
        notes = _solver_notes(rec)
        if rec.consistent and not rec.degenerate:
            pi = OneForm(chart, rec.space.particular[:chart.n])
            notes = (notes + " " if notes else "") + \
                f"closed={is_closed(chart, pi)}"
        emit(ClassifierVerdict(f"recurrent[{tname}]", _outcome_of(rec),
                               witness=rec.space if rec.consistent else None,
                               notes=notes))

        if T.valence == (0, 4):
            ws = solve_weak_symmetry_04(chart, tname, key=tname)
            notes = _solver_notes(ws)
            witness: object = ws.space if ws.space.consistent else None
            if ws.consistent and not ws.degenerate:
                norm = normalize_weak_solution(chart, ws, tname)
                witness = {"space": ws.space, "normalized": norm}
            ws_verdict = ClassifierVerdict(f"weak_symmetry[{tname}]",
                                           _outcome_of(ws), witness=witness,
                                           notes=notes)
            if ws.consistent:
                rows = list(_weak04_rows(chart, T,
                                         nabla_cached(chart, T, tname)))
                ws_verdict.identity = ("linear_rows", rows, ws.space)
            emit(ws_verdict)
            bcs = form_recurrence_checks(chart, tname, key=tname)
            for bname in ("b1", "b2", "b3"):
                emit(bcs[bname])
        else:
            wz = solve_weak_Z(chart, tname, key=tname)
            notes = _solver_notes(wz.outcome)
            if wz.reductions:
                notes = (notes + " " if notes else "") + \
                    "reductions=" + json.dumps(wz.reductions, sort_keys=True)
            wz_verdict = ClassifierVerdict(
                f"weak_Z[{tname}]", _outcome_of(wz.outcome),
                witness=wz.outcome.space if wz.outcome.consistent else None,
                notes=notes)
            if wz.outcome.consistent:
                rows = list(_weakZ_rows(chart, T,
                                        nabla_cached(chart, T, tname)))
                wz_verdict.identity = ("linear_rows", rows, wz.outcome.space)
            emit(wz_verdict)
            emit(ClassifierVerdict(f"codazzi[{tname}]", wz.codazzi))
            emit(ClassifierVerdict(f"cyclic_parallel[{tname}]",
                                   wz.cyclic_parallel))
            emit(form_recurrence_b4(chart, tname, key=tname))

    if chart.n >= 4:
        emit(classify_deszcz(chart, "C", "g", acting="C",
                             name="weyl_pseudosymmetric"))

    qe = solve_quasi_einstein(chart)
    qe_verdict = ClassifierVerdict("quasi_einstein", qe.found, witness=qe,
                                   notes=qe.notes)
    if qe.found and not qe.einstein:
        S = ricci(chart)
        g = chart.metric_tensor()
        rows = []
        for i in range(chart.n):
            for j in range(i, chart.n):
                rows.append(({0: g.array[i, j],
                              1: qe.eta[i] * qe.eta[j]}, S.array[i, j]))
        qe_verdict.identity = (
            "linear_rows", rows,
            SolutionSpace(names=("alpha", "beta"),
                          particular=[qe.alpha, qe.beta],
                          ctx=chart.ctx))
    emit(qe_verdict)

    emit(classify_roter(chart))
    emit(classify_generalized_roter(chart))

    for tname, phi in chaki_solutions:
        alpha = OneForm(chart, [2 * p for p in phi])
        residual = theorem_residual(chart, tname, alpha, phi)
        emit(ClassifierVerdict(f"theorem_identity[{tname}]",
                               residual.is_zero(),
                               notes="R.T = 2 d(2phi) (x) T + Q(J,T) for the "
                                     "Chaki 1-form"))

    identities = []
    for v in verdicts:
        ident = _verdict_identity(v)
        if ident is not None:
            identities.append(ident)

    report = Report(chart_name=chart.name, dim=chart.n, verdicts=verdicts,
                    identities=identities)
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
