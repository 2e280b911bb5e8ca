"""The benchmark's workloads: inputs, the timed program calls, and checks.

Each workload is prepared from a seed and then run in passes.  A pass runs
every chart kind of the workload once, in an order drawn from the seed.  The
timed part of a sample is the call into curvzoo; the correctness check that
follows it is not timed.

* zoo-default: every builtin through ``curvzoo.cli.main(["classify", ...])``
  with the default tensors and 50 oracle samples.  This is the command users
  run, and the randomized oracle is most of its cost.
* zoo-all-tensors: the same builtins with every tensor selector and one
  oracle sample.  Derived tensors, covariant derivatives, the B.T and Q(A,T)
  actions, the linear solves and the GCD are almost all of its cost.
* generated-pipeline: metric files written from three templates with seeded
  integer coefficients, run through the loader and the curvature pipeline up
  to the Deszcz check.  It is the only workload that reads metric files, and
  its denominators are non-monomial polynomials.

This module imports curvzoo, so the caller puts the program on sys.path
first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Calls go through the module attributes, so that wrappers the tracer
# installs there are the ones called.
from curvzoo import charts, classifiers, cli, metrics, operators

BENCH = Path(__file__).resolve().parent

BUILTINS = ("ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5",
            "flat3", "flat4", "flat5")

#: CLI arguments after the builtin name, per zoo workload.
ZOO_WORKLOADS = {
    "zoo-default": (),
    "zoo-all-tensors": ("--tensor", "R,C,K,conh,P,S", "--oracle-samples", "1"),
}
WORKLOADS = (*ZOO_WORKLOADS, "generated-pipeline")

#: The seed line of the oracle block in a JSON report; the one part of a
#: report that depends on the oracle seed.
_SEED_LINE = '\n    "seed": {},\n'
_REFERENCE_SEED = 42


def zoo_argv(workload: str, name: str, seed: int) -> list[str]:
    return ["classify", name, "--format", "json", "--seed", str(seed),
            *ZOO_WORKLOADS[workload]]


def load_known_answers() -> dict:
    return json.loads((BENCH / "known_answers.json").read_text("utf-8"))


class ZooWorkload:
    """The eight builtins run through the CLI entry point in process."""

    def __init__(self, name: str, seed: int,
                 known_answers: Optional[dict] = None):
        self.name = name
        self.seed = seed
        self.kinds = BUILTINS
        self.known = known_answers or load_known_answers()
        self.expected = {}
        seed_line = _SEED_LINE.format(_REFERENCE_SEED)
        for builtin in BUILTINS:
            ref = (BENCH / "reference" / name / f"{builtin}.json").read_text(
                "utf-8")
            if ref.count(seed_line) != 1:
                raise ValueError(f"reference {name}/{builtin}: no unique "
                                 "oracle seed line")
            self.expected[builtin] = ref.replace(seed_line,
                                                 _SEED_LINE.format(seed))

    def items(self, rng: random.Random) -> list[tuple[str, str]]:
        order = list(BUILTINS)
        rng.shuffle(order)
        return [(b, b) for b in order]

    def run(self, builtin: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(zoo_argv(self.name, builtin, self.seed))
        return code, buf.getvalue()

    def check(self, builtin: str, output) -> Optional[str]:
        """None when the chart is correct, else the first failure found."""
        code, text = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        oracle = report["oracle"]
        if oracle["disagreements"] or oracle["inconclusive"]:
            return (f"oracle: {oracle['disagreements']} disagreements, "
                    f"{oracle['inconclusive']} inconclusive")
        failure = check_known_answers(self.known, self.name, builtin, report)
        if failure:
            return failure
        if text != self.expected[builtin]:
            return "report differs from the reference"
        return None

    def close(self) -> None:
        pass


def check_known_answers(known: dict, workload: str, builtin: str,
                        report: dict) -> Optional[str]:
    """Compare a report's verdicts with the hand-written table."""
    verdicts = {v["classifier"]: v for v in report["verdicts"]}
    entry = known[builtin]
    if verdicts["kappa"]["witness"] != entry["kappa"]:
        return (f"kappa {verdicts['kappa']['witness']!r}, "
                f"expected {entry['kappa']!r}")
    for classifier, outcome in entry["outcomes"].items():
        got = verdicts[classifier]["outcome"]
        if got != outcome:
            return f"{classifier} is {got}, expected {outcome}"
    for classifier, particular in entry.get(workload, {}).get(
            "particular", {}).items():
        got = verdicts[classifier]["witness"]["particular"]
        if got != particular:
            return f"{classifier} witness {got}, expected {particular}"
    return None


# ---------------------------------------------------------------------------
# generated-pipeline
# ---------------------------------------------------------------------------

COORDS = ["x1", "x2", "x3", "x4"]

#: Files drawn per template; passes cycle through them.
DRAWS_PER_TEMPLATE = 16


def _diagonal(entries: list[str]) -> list[list[str]]:
    return [["0"] * i + [e] for i, e in enumerate(entries)]


def _conformal(rng: random.Random) -> tuple[list[list[str]], dict]:
    # F * (flat metric) with F = c + a*x1^2: conformally flat, and every
    # denominator is a power of a non-monomial polynomial.
    c, a = rng.sample(range(1, 10), 2)
    factor = f"{c}+{a}*x1^2"
    return _diagonal([factor] * 4), {"factor": factor}


def _warped(rng: random.Random) -> tuple[list[list[str]], dict]:
    # dx1^2 + (a + b e^x1) dx2^2 + w dx3^2 + w e^x1 dx4^2, w = c + d*x1^2:
    # exponential and polynomial warps in one denominator.
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    w = f"{c}+{d}*x1^2"
    return _diagonal(["1", f"{a}+{b}*exp(x1)", w, f"({w})*exp(x1)"]), {}


def _off_diagonal(rng: random.Random) -> tuple[list[list[str]], dict]:
    # One off-diagonal (x1, x2) block depending on x3.  a != b^2 keeps the
    # determinant 1 + (a - b^2) x3^2 non-constant, so every draw costs about
    # the same.
    b = rng.randint(1, 3)
    a = rng.choice([k for k in range(1, 10) if k != b * b])
    c = rng.randint(1, 9)
    return [[f"1+{a}*x3^2"], [f"{b}*x3", "1"], ["0", "0", str(c)],
            ["0", "0", "0", "1"]], {}


#: Why each template: the conformally flat chart has a closed-form scalar
#: curvature and a vanishing Weyl tensor, so its answers are known for every
#: draw; the warped product mixes exp and polynomial atoms in one
#: denominator; the off-diagonal block makes the inverse metric and the
#: Christoffel symbols dense.
TEMPLATES = {"conformal": _conformal, "warped": _warped,
             "off_diagonal": _off_diagonal}

#: Deszcz verdict for R and g, the same for every draw of a template.
DESZCZ_OUTCOME = {"conformal": True, "warped": False, "off_diagonal": False}


@dataclass(frozen=True)
class GeneratedChart:
    template: str
    draw: int
    path: Path
    extra: dict


def generate(seed: int, out_dir: Path) -> list[GeneratedChart]:
    """Write seeded metric files, DRAWS_PER_TEMPLATE per template, into
    out_dir."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    charts = []
    for k in range(DRAWS_PER_TEMPLATE):
        for template, make in TEMPLATES.items():
            metric, extra = make(rng)
            name = f"{template}_{k}"
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps({"name": name, "dim": 4,
                                        "coords": COORDS, "params": [],
                                        "metric": metric}, indent=2) + "\n",
                            encoding="utf-8")
            charts.append(GeneratedChart(template, k, path, extra))
    return charts


def conformal_kappa(ctx, factor):
    """Scalar curvature of factor * (flat metric) in four dimensions.

    The classical formula for g = e^(2 phi) delta with F = e^(2 phi),
    written in curvzoo's sign convention (builtin ex5_2, F = x1, gives
    -3/2 / x1^3):  kappa = 3 sum F_ii / F^2 - 3/2 sum F_i^2 / F^3.
    """
    F = ctx.parse(factor)
    second = sum((F.diff(i).diff(i) for i in range(4)), ctx.zero)
    grad2 = sum((F.diff(i) * F.diff(i) for i in range(4)), ctx.zero)
    return 3 * second / (F * F) - grad2 * ctx.rational(3, 2) / (F * F * F)


class GeneratedWorkload:
    """Seeded metric files through the loader and the curvature pipeline."""

    def __init__(self, seed: int, out_dir: Path):
        self.name = "generated-pipeline"
        self.kinds = tuple(TEMPLATES)
        self.out_dir = out_dir
        self.charts = generate(seed, out_dir)
        self.passes = 0

    def items(self, rng: random.Random) -> list[tuple[str, GeneratedChart]]:
        draw = self.passes % DRAWS_PER_TEMPLATE
        self.passes += 1
        batch = [c for c in self.charts if c.draw == draw]
        rng.shuffle(batch)
        return [(c.template, c) for c in batch]

    def run(self, item: GeneratedChart):
        spec = metrics.load_metric_file(str(item.path))
        chart = spec.to_chart()
        kappa = charts.scalar_curvature(chart)
        charts.nabla_riemann(chart)
        deszcz = classifiers.classify_deszcz(chart, "R", "g")
        weyl = operators.weyl_conformal(chart) if chart.n >= 4 else None
        return chart, kappa, deszcz, weyl

    def check(self, item: GeneratedChart, output) -> Optional[str]:
        chart, kappa, deszcz, weyl = output
        expected = DESZCZ_OUTCOME[item.template]
        if deszcz.outcome is not expected:
            return f"Deszcz verdict {deszcz.outcome}, expected {expected}"
        if deszcz.outcome:
            RR = operators.dot_named(chart, "R", "R")
            Q = operators.tachibana_named(chart, "g", "R")
            if not (RR - Q.scaled(deszcz.witness)).is_zero():
                return "R.R - L Q(g,R) is nonzero for the returned L"
        R = charts.riemann(chart)
        axioms = operators.check_gct(R)
        if not all(axioms.values()):
            return f"GCT axioms fail for R: {axioms}"
        if not operators.check_second_bianchi(chart, R):
            return "second Bianchi identity fails for R"
        if item.template == "conformal":
            if not weyl.is_zero():
                return "Weyl tensor of a conformally flat chart is nonzero"
            expected = conformal_kappa(chart.ctx, item.extra["factor"])
            if kappa != expected:
                return f"kappa {kappa}, expected {expected}"
        return None

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def prepare(name: str, seed: int, scratch: Path):
    """Make the workload's inputs; scratch is a directory it may own."""
    if name in ZOO_WORKLOADS:
        return ZooWorkload(name, seed)
    if name == "generated-pipeline":
        return GeneratedWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
