"""Metric files, builtins, classification reports, oracle, CLI."""

import contextlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvzoo import exprs, zoo
from curvzoo.charts import nabla_riemann, scalar_curvature
from curvzoo.classifiers import classify_deszcz
from curvzoo.cli import main
from curvzoo.exprs import (MAX_DEGREE, EvaluationError, ModularExpr,
                           evaluate_rational, residue)
from curvzoo import metrics
from curvzoo.metrics import (BUILTINS, MAX_DIM, MAX_ENTRY_CHARS,
                             MAX_FILE_BYTES, MetricFileError, builtin,
                             list_builtins, load_metric_file,
                             metric_spec_from_dict, metric_spec_to_dict,
                             resolve_metric, save_metric_file)
from curvzoo.operators import weyl_conformal
from curvzoo.zoo import (ALL_TENSORS, DEFAULT_TENSORS, GRID_MAX,
                         MAX_DENOMINATOR_RETRIES, MAX_SAMPLES, ORACLE_PRIME,
                         Identity, OracleSummary, _draw_point,
                         check_identity_at, classify, oracle_crosscheck,
                         render_report, report_to_dict)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
#: Seed-7 generated metric files of the three templates (conformal, warped,
#: off-diagonal), with their default-tensor JSON reports as NAME.report.json.
GENERATED = Path(__file__).resolve().parent / "generated"

#: Most exprs._mul and exprs._add calls that classify(..., run_oracle=False)
#: may make over the builtins with the default tensors: about 10 % above the
#: 10,363 products and 8,385 sums measured with the solves, the
#: Kulkarni-Nomizu products and the cyclic sums at orbit representatives,
#: and below the 11,335 and 17,580 made when they walked the whole support.
WORK_CEILING = {"_mul": 11_300, "_add": 9_200}


@pytest.fixture(scope="module")
def ex52_report():
    return classify(builtin("ex5_2"))


#: Pieces of metric entries: names declared in FUZZ_DOCUMENT and others,
#: operators, literals in and out of the grammar.
ENTRY_TOKENS = ["x1", "x2", "x3", "a", "b", "exp(", "exp(x1)", "exp(-2*x3)",
                "(", ")", "+", "-", "*", "/", "^", "^-1", "0", "1", "7",
                "99999999999999999999", "1.5", " ", "#", "\u00e9"]
ENTRIES = st.one_of(
    st.lists(st.sampled_from(ENTRY_TOKENS), max_size=6).map("".join),
    st.text(alphabet="x123a+-*/^() e.p", max_size=8))
FUZZ_DOCUMENT = {"name": "fuzz", "dim": 3, "coords": ["x1", "x2", "x3"],
                 "params": ["a"],
                 "metric": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def entry_documents(draw):
    """FUZZ_DOCUMENT with a drawn entry at a drawn place, mirrored or not."""
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entry = draw(ENTRIES)
    rows = [list(row) for row in FUZZ_DOCUMENT["metric"]]
    rows[i][j] = entry
    if draw(st.booleans()):
        rows[j][i] = entry
    return json.dumps(dict(FUZZ_DOCUMENT, metric=rows))


@st.composite
def malformed_documents(draw):
    """FUZZ_DOCUMENT truncated, with a drawn value for one key, or with one
    character replaced."""
    text = json.dumps(FUZZ_DOCUMENT)
    how = draw(st.sampled_from(["truncate", "value", "character"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "value":
        key = draw(st.sampled_from(sorted(FUZZ_DOCUMENT) + ["extra"]))
        return json.dumps(dict(FUZZ_DOCUMENT, **{key: draw(JSON_VALUES)}))
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.characters()) + text[at + 1:]


class TestMetricFiles:
    def test_builtin_round_trips(self, tmp_path):
        for name in list_builtins():
            spec = builtin(name)
            path = tmp_path / f"{name}.json"
            save_metric_file(spec, str(path))
            assert load_metric_file(str(path)) == spec

    def test_unknown_builtin(self):
        with pytest.raises(MetricFileError, match="unknown builtin"):
            builtin("ex9_9")

    def test_dimension_two_rejected(self):
        data = {"name": "bad", "dim": 2, "coords": ["x", "y"],
                "metric": [["1"], ["0", "1"]]}
        with pytest.raises(MetricFileError, match="dim"):
            metric_spec_from_dict(data)

    def test_dimension_cap(self):
        assert MAX_DIM == 8
        data = {"name": "big", "dim": 1000, "coords": [], "metric": []}
        with pytest.raises(MetricFileError, match=r"^metric\.dim: .* 3 to 8"):
            metric_spec_from_dict(data)

    def test_schema_violation_path(self):
        data = {"name": "bad", "dim": 3, "coords": ["x", "y", "z"],
                "metric": [["1"], ["0"], ["0", "0", "1"]]}
        with pytest.raises(MetricFileError, match=r"metric\[1\]"):
            metric_spec_from_dict(data)

    def test_expression_error_location(self):
        data = {"name": "bad", "dim": 3, "coords": ["x", "y", "z"],
                "metric": [["1"], ["0", "1"], ["0", "0", "1 + w"]]}
        with pytest.raises(MetricFileError, match=r"metric\[2\]\[2\]"):
            metric_spec_from_dict(data)

    def test_square_matrix_accepted_and_symmetry_checked(self):
        data = {"name": "sq", "dim": 3, "coords": ["x", "y", "z"],
                "metric": [["1", "x", "0"], ["x", "1", "0"],
                           ["0", "0", "1"]]}
        spec = metric_spec_from_dict(data)
        assert spec.entry(0, 1) == "x"
        data["metric"][0][1] = "y"
        with pytest.raises(MetricFileError, match="not symmetric"):
            metric_spec_from_dict(data)

    def test_missing_file(self):
        with pytest.raises(MetricFileError, match="cannot read"):
            load_metric_file("/nonexistent/metric.json")

    def test_parameterized_builtin(self):
        spec = builtin("ex5_3")
        assert spec.params == ("a",)
        chart = spec.to_chart()
        assert not chart.det_g.is_zero


class TestBuiltinsCurvature:
    # Scalar curvatures known in closed form for the builtin collection.
    @pytest.mark.parametrize("name,expected", [
        ("ex5_1", "7/2 * exp(-x1)"),
        ("ex5_2", "-3/(2*x1^3)"),
        ("ex5_4", "3*(2+exp(x1))/(2*(1+exp(x1))^2)"),
        ("ex5_5", "rho^2"),
        ("flat4", "0"),
    ])
    def test_kappa(self, name, expected):
        chart = builtin(name).to_chart()
        assert scalar_curvature(chart) == chart.ctx.parse(expected)

    def test_builtin_shapes(self):
        assert builtin("ex5_1").dim == 5
        assert builtin("ex5_1").entry(1, 1) == "exp(x1)*exp(x5)"
        assert builtin("ex5_3").entry(1, 3) == "a^2*exp(x1)"
        assert builtin("ex5_5").entry(3, 2) == "rho^2*x"


class TestReports:
    def test_kappa_line_in_text(self):
        report = classify(builtin("ex5_1"), checks=["kappa"],
                          run_oracle=False)
        text = render_report(report, "text")
        assert "kappa = 7/2 * exp(-x1)" in text

    def test_json_round_trip_preserves_witnesses(self, ex52_report):
        rendered = render_report(ex52_report, "json")
        data = json.loads(rendered)
        again = json.dumps(data, indent=2, sort_keys=False) + "\n"
        assert again == rendered

    def test_empty_selection(self):
        report = classify(builtin("flat3"), checks=["nonexistent"],
                          run_oracle=False)
        assert report.verdicts == []
        assert render_report(report, "json")
        assert render_report(report, "text")

    def test_verdict_lookup(self, ex52_report):
        assert ex52_report.verdict("deszcz[R;g]").outcome is True
        with pytest.raises(KeyError):
            ex52_report.verdict("nope")

    def test_report_schema_keys(self, ex52_report):
        data = report_to_dict(ex52_report)
        assert set(data) == {"chart", "dim", "verdicts", "oracle"}
        for v in data["verdicts"]:
            assert set(v) == {"classifier", "outcome", "witness", "notes"}
        assert set(data["oracle"]) == {"samples", "seed", "identities",
                                       "checked_components", "disagreements",
                                       "inconclusive"}


    def test_back_substitution_guard_names_verdict(self, monkeypatch):
        # A doctored solver witness fails the guard in classify(), and the
        # error names the verdict it came from.  The battery's Chaki entry
        # looks the solver up in classifiers.
        from curvzoo import classifiers
        from curvzoo.linsolve import InternalInconsistencyError
        solve = classifiers.solve_chaki

        def doctored(*args, **kwargs):
            out = solve(*args, **kwargs)
            if out.consistent:
                out.space.particular[0] = out.space.particular[0] + 1
            return out

        monkeypatch.setattr(classifiers, "solve_chaki", doctored)
        with pytest.raises(InternalInconsistencyError,
                           match=r"^chaki\[R\]: particular solution"):
            classify(builtin("ex5_1").to_chart(), run_oracle=False)


def battery_must_not_run(*_):
    raise AssertionError("a battery entry ran")


class TestBattery:
    def test_sample_count_is_checked_before_the_battery(self, monkeypatch):
        # curvature_verdicts is the battery's first entry.
        monkeypatch.setattr(zoo, "curvature_verdicts", battery_must_not_run)
        with pytest.raises(ValueError,
                           match=f"^samples must be between 1 and "
                                 f"{MAX_SAMPLES}$"):
            classify(builtin("ex5_5"), tensors=ALL_TENSORS,
                     oracle_samples=0)

    def test_negative_seed_is_rejected_before_the_battery(self, monkeypatch):
        # random.Random(-3) draws the points of Random(3): a negative seed
        # would check the points of its absolute value under its own name.
        monkeypatch.setattr(zoo, "curvature_verdicts", battery_must_not_run)
        with pytest.raises(ValueError, match="^seed must not be negative$"):
            classify(builtin("ex5_2"), seed=-3)

    @pytest.mark.parametrize("name", list_builtins())
    def test_all_tensors_match_reference(self, name):
        # Every branch of the battery: (0,4) and (0,2) tensors, gct_axioms
        # of tensors other than R, weyl_pseudosymmetric.
        report = classify(builtin(name), tensors=ALL_TENSORS,
                          oracle_samples=1, seed=42)
        expected = (REFERENCE / "zoo-all-tensors" / f"{name}.json").read_text(
            encoding="utf-8")
        assert render_report(report, "json") == expected

    @pytest.mark.parametrize("name", list_builtins())
    def test_default_report_matches_reference(self, name):
        # Reports stay byte-identical unless a change says otherwise.
        expected = (REFERENCE / "zoo-default" / f"{name}.json").read_text(
            encoding="utf-8")
        assert render_report(classify(builtin(name)), "json") == expected

    @pytest.mark.parametrize("name", list_builtins())
    def test_warm_chart_report_matches_reference(self, name):
        # The chart's cancellation memo, warmed by the whole battery on
        # every tensor, changes no byte of the default report.  Of the
        # builtins, only ex5_4 has denominators that are not monomials, so
        # only its memo fills.
        chart = builtin(name).to_chart()
        classify(chart, tensors=ALL_TENSORS, run_oracle=False)
        assert bool(chart.ctx._cancelled) == (name == "ex5_4")
        expected = (REFERENCE / "zoo-default" / f"{name}.json").read_text(
            encoding="utf-8")
        assert render_report(classify(chart), "json") == expected

    @pytest.mark.parametrize("name", ["conformal_0", "warped_0",
                                      "off_diagonal_0"])
    def test_generated_report_matches_reference(self, name, capsys):
        # The non-monomial arithmetic of generated charts, which the
        # builtins' references do not reach, keeps every report byte.
        path = GENERATED / f"{name}.json"
        assert main(["classify", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            GENERATED / f"{name}.report.json").read_text(encoding="utf-8")

    def test_work_budget(self, monkeypatch):
        counts = Counter()
        for op in WORK_CEILING:
            def counting(a, b, op=op, original=getattr(exprs, op)):
                counts[op] += 1
                return original(a, b)

            monkeypatch.setattr(exprs, op, counting)
        for name in list_builtins():
            classify(builtin(name), run_oracle=False)
        for op, ceiling in WORK_CEILING.items():
            assert 0 < counts[op] <= ceiling, (op, counts[op])

    def test_default_classify_needs_no_gcd_fallback(self, monkeypatch):
        # gcd_cofactors asks the Kronecker link first, and it answers every
        # gcd of a default classify of the builtins and the generated
        # charts (1,349 calls), so none of them reaches the modular gcd.
        answers = []

        def kronecker(f, g, original=exprs._kronecker_cofactors):
            answers.append(original(f, g))
            return answers[-1]

        monkeypatch.setattr(exprs, "_kronecker_cofactors", kronecker)
        for name in list_builtins():
            classify(builtin(name))
        for path in sorted(GENERATED.glob("*_0.json")):
            classify(load_metric_file(str(path)))
        assert answers and None not in answers

    def test_checks_select_a_prefix_filtered_run(self):
        chart = builtin("ex5_1").to_chart()
        full = report_to_dict(classify(chart, run_oracle=False))["verdicts"]
        for checks in (["chaki", "theorem"], ["theorem"]):
            report = classify(builtin("ex5_1"), checks=checks,
                              run_oracle=False)
            assert report_to_dict(report)["verdicts"] == [
                v for v in full
                if any(v["classifier"].startswith(c) for c in checks)]
            assert [i.name for i in report.identities] == [
                v.name for v in report.verdicts if v.identity is not None]
        # theorem_identity still finds the Chaki solutions it rests on.
        assert [v.name for v in report.verdicts] == [
            "theorem_identity[R]", "theorem_identity[S]"]


    def test_repeated_tensor_selector_runs_once(self):
        # ("R", "R") names R twice; its verdicts and identities appear once.
        once = classify(builtin("flat3"), tensors=("R",), run_oracle=False)
        twice = classify(builtin("flat3"), tensors=("R", "R"),
                         run_oracle=False)
        assert [v.name for v in twice.verdicts] == [
            v.name for v in once.verdicts]
        assert [i.name for i in twice.identities] == [
            i.name for i in once.identities]


def undeduplicated(identity):
    """(compiled, every_row): identity compiled alone, and the same program
    with every row compiled in order, repeats included.  The values are
    numbered as _compile numbers them, in the order they first occur, the
    solution values first."""
    compiled, = zoo._compile([identity])
    index = {}
    for v in identity.values:
        index.setdefault(v, len(index))
    rows = []
    for coeffs, rhs in identity.rows:
        row = tuple((index.setdefault(c, len(index)), j)
                    for j, c in coeffs.items())
        rows.append((row, index.setdefault(rhs, len(index))))
    return compiled, zoo._CompiledIdentity(compiled.values, compiled.degrees,
                                           compiled.slots, rows)


def outcome_at(identity, evaluation):
    """check_identity_at's verdict at a shared evaluation, or the
    EvaluationError it raises."""
    try:
        return check_identity_at(identity, evaluation)
    except EvaluationError as exc:
        return exc


class TestOracle:
    def test_zero_disagreements_on_sound_report(self, ex52_report):
        assert ex52_report.oracle.disagreements == 0
        assert ex52_report.oracle.inconclusive == 0

    def test_deterministic_given_seed(self):
        chart_a = builtin("ex5_2").to_chart()
        chart_b = builtin("ex5_2").to_chart()
        r1 = classify(chart_a, oracle_samples=20, seed=7)
        r2 = classify(chart_b, oracle_samples=20, seed=7)
        assert render_report(r1, "json") == render_report(r2, "json")

    def test_perturbed_identity_detected(self):
        chart = builtin("ex5_2").to_chart()
        report = classify(chart, run_oracle=False)
        # Corrupt, in each certified identity, a value that actually occurs
        # in a retained row (e.g. the proportionality function L -> L + 1):
        # the oracle must observe at least one disagreement per corruption.
        for identity in report.identities:
            occurring = sorted({j for coeffs, _ in identity.rows
                                for j, c in coeffs.items() if not c.is_zero})
            assert occurring, identity.name
            j = occurring[0]
            values = list(identity.values)
            values[j] = values[j] + 1
            corrupted = Identity(identity.name + "~corrupt",
                                 identity.rows, values)
            fake = classify(chart, run_oracle=False)
            fake.identities = [corrupted]
            summary = oracle_crosscheck(fake, chart, samples=10, seed=11)
            assert summary.disagreements >= 1, identity.name

    def test_trivial_identity_never_disagrees(self):
        chart = builtin("flat4").to_chart()
        ctx = chart.ctx
        identity = Identity("zero", [({0: ctx.zero}, ctx.zero)], [ctx.one])
        report = classify(chart, run_oracle=False)
        report.identities = [identity]
        summary = oracle_crosscheck(report, chart, samples=25, seed=3)
        assert summary.disagreements == 0

    def test_each_distinct_value_evaluated_once_per_point(self, monkeypatch):
        # Equal Exprs built separately are one value: two points cost two
        # evaluations of each compiled x1, 1 + x2 and x1*(1 + x2).
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        x1, y = ctx.parse("x1"), ctx.parse("1 + x2")
        identity = Identity("product", [({0: ctx.parse("x1")}, x1 * y),
                                        ({0: ctx.parse("x1")}, y * x1)],
                            [ctx.parse("1 + x2")])
        calls = []
        evaluate = ModularExpr.at

        def counting(compiled, powers):
            calls.append(compiled)
            return evaluate(compiled, powers)

        monkeypatch.setattr(ModularExpr, "at", counting)
        rng = random.Random(5)
        for _ in range(2):
            assert check_identity_at(identity, _draw_point(rng, ctx.atoms))
        assert len(calls) == 6

    def test_repeated_rows_compile_once(self):
        # Equal rows, built separately, are compiled once, where they first
        # occur; checked_components still counts every row.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx

        def rows():
            # The last two share the first's rhs, or its coefficient in
            # another column.
            x1, x2 = ctx.parse("x1"), ctx.parse("x2")
            return [({0: x1}, x1), ({1: x2}, x2 * x2),
                    ({0: x2, 1: x1}, x2 + x1 * x2), ({1: x1 / x2}, x1),
                    ({1: x1}, x1 * x2)]

        a, b, c, d, e = rows()
        values = [ctx.one, ctx.parse("x2")]
        repeated = Identity("repeated", [a, b, rows()[0], c, d, rows()[1],
                                         e, a, rows()[3]], values)
        compiled, every_row = undeduplicated(repeated)
        distinct, = zoo._compile([Identity("distinct", [a, b, c, d, e],
                                           values)])
        assert compiled.rows == distinct.rows
        assert compiled.rows == list(dict.fromkeys(every_row.rows))
        assert len(every_row.rows) == 9 and len(compiled.rows) == 5
        report = classify(chart, run_oracle=False)
        report.identities = [repeated]
        summary = oracle_crosscheck(report, chart, samples=5, seed=1)
        assert (summary.checked_components, summary.disagreements,
                summary.inconclusive) == (9, 0, 0)

    def test_report_values_evaluated_once_per_shared_point(self,
                                                            monkeypatch):
        # Two identities that share x1 and 1 + x2: each point serves both,
        # and each of the report's three distinct values is evaluated once
        # there, so three samples cost three points and nine evaluations.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        x1, y = ctx.parse("x1"), ctx.parse("1 + x2")
        report = classify(chart, run_oracle=False)
        report.identities = [
            Identity("product", [({0: x1}, x1 * y)], [y]),
            Identity("swapped", [({0: y}, y * x1)], [x1])]
        calls = []
        evaluate = ModularExpr.at
        draw = zoo._draw_point
        draws = []

        def counting(compiled, powers):
            calls.append(compiled)
            return evaluate(compiled, powers)

        def counting_draw(rng, atoms):
            draws.append(rng)
            return draw(rng, atoms)

        monkeypatch.setattr(ModularExpr, "at", counting)
        monkeypatch.setattr(zoo, "_draw_point", counting_draw)
        summary = oracle_crosscheck(report, chart, samples=3, seed=5)
        assert (summary.disagreements, summary.inconclusive) == (0, 0)
        assert len(draws) == 3
        assert len(calls) == 9

    def test_one_check_per_identity_per_point(self, monkeypatch):
        # oracle_crosscheck calls the module attribute check_identity_at,
        # which the benchmark's tracer wraps to count oracle points: once
        # per identity per point, so ex5_4's default report makes
        # identities x samples calls, samples for each identity.
        chart = builtin("ex5_4").to_chart()
        report = classify(chart, run_oracle=False)
        calls = []
        check = zoo.check_identity_at

        def counting(identity, point):
            calls.append(identity)      # held, so each id stays distinct
            return check(identity, point)

        monkeypatch.setattr(zoo, "check_identity_at", counting)
        summary = oracle_crosscheck(report, chart, samples=50, seed=42)
        assert (summary.disagreements, summary.inconclusive) == (0, 0)
        assert len(report.identities) > 1
        assert len(calls) == len(report.identities) * 50
        assert sorted(Counter(map(id, calls)).values()) == \
            [50] * len(report.identities)

    def test_retries_are_one_check_per_point(self, monkeypatch):
        # An identity forced onto its pole at every point is checked once
        # per point until the retry bound, and every check raises; a sound
        # identity sharing the points stops after its samples.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        pole = ctx.parse("1/(x1 - x2)")
        poleful = Identity("poleful", [({0: pole}, pole)], [ctx.one])
        sound = Identity("sound", [({0: ctx.one}, ctx.parse("x3"))],
                         [ctx.parse("x3")])
        report = classify(chart, run_oracle=False)
        calls = []
        check = zoo.check_identity_at

        def counting(identity, point):
            try:
                result = check(identity, point)
            except EvaluationError:
                calls.append((identity, "raised"))
                raise
            calls.append((identity, result))
            return result

        monkeypatch.setattr(zoo, "check_identity_at", counting)
        monkeypatch.setattr(zoo, "_draw_point",
                            lambda rng, atoms: {a: 1 for a in atoms})
        for identities in ([poleful], [poleful, sound]):
            calls.clear()
            report.identities = identities
            summary = oracle_crosscheck(report, chart, samples=5, seed=1)
            assert (summary.disagreements, summary.inconclusive) == (0, 1)
            outcomes = {}
            for identity, result in calls:
                outcomes.setdefault(id(identity), []).append(result)
            checks = sorted(outcomes.values(), key=len)
            assert checks[-1] == ["raised"] * MAX_DENOMINATOR_RETRIES
            assert checks[:-1] == [[True] * 5] * (len(identities) - 1)

    def test_random_point_range(self):
        # Each atom's residue is that of a numerator and a denominator drawn
        # in [1, GRID_MAX], in that order, atom by atom.
        chart = builtin("flat3").to_chart()
        rng, twin = random.Random(0), random.Random(0)
        point = _draw_point(rng, chart.ctx.atoms)
        assert list(point) == list(chart.ctx.atoms)
        for val in point.values():
            num, den = twin.randint(1, GRID_MAX), twin.randint(1, GRID_MAX)
            assert 0 < val < ORACLE_PRIME
            assert val == residue(Fraction(num, den), ORACLE_PRIME)
        assert rng.random() == twin.random()

    def test_invalid_samples(self, ex52_report):
        chart = builtin("ex5_2").to_chart()
        with pytest.raises(ValueError):
            oracle_crosscheck(ex52_report, chart, samples=0)

    def test_negative_seed(self, ex52_report):
        chart = builtin("ex5_2").to_chart()
        with pytest.raises(ValueError, match="^seed must not be negative$"):
            oracle_crosscheck(ex52_report, chart, seed=-3)

    def test_persistent_denominator_hits_mark_inconclusive(self, monkeypatch):
        # Force every sampled point onto the pole of 1/(x1 - x2): after the
        # retry bound the identity is marked inconclusive, not wrong.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        pole = ctx.parse("1/(x1 - x2)")
        identity = Identity("poleful", [({0: pole}, pole)], [ctx.one])
        report = classify(chart, run_oracle=False)
        report.identities = [identity]
        draws = []

        def on_the_pole(rng, atoms):
            draws.append(rng)
            return {a: 1 for a in atoms}

        monkeypatch.setattr("curvzoo.zoo._draw_point", on_the_pole)
        summary = oracle_crosscheck(report, chart, samples=5, seed=1)
        assert summary.inconclusive == 1
        assert summary.disagreements == 0
        assert len(draws) == MAX_DENOMINATOR_RETRIES

    def test_disagreement_before_a_pole_is_a_disagreement(self, monkeypatch):
        # Values are evaluated together, but the verdict is the lazy one: a
        # row that disagrees before any row needs the vanishing 1/(x1 - x2)
        # decides the point; a pole reached first, or in the solution
        # values, makes it a retry.  Repeated rows give the verdict, or
        # raise the very failure, that comparing every row would.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        pole = ctx.parse("1/(x1 - x2)")
        wrong = ({0: ctx.one}, ctx.integer(2))      # 1 * 1 != 2
        right = ({0: ctx.one}, ctx.one)
        twice = ({0: ctx.integer(2)}, ctx.one)      # right's rhs, wrong
        poleful = ({0: pole}, pole)
        point = {a: 1 for a in ctx.atoms}
        cases = [([wrong, poleful], [ctx.one], False),
                 ([poleful, wrong], [ctx.one], None),
                 ([wrong], [pole], None),
                 ([right, wrong, right, poleful, wrong], [ctx.one], False),
                 ([right, right, poleful, wrong], [ctx.one], None),
                 ([poleful, wrong, poleful], [ctx.one], None),
                 ([right, poleful, twice], [ctx.one], None)]
        monkeypatch.setattr("curvzoo.zoo._draw_point",
                            lambda rng, atoms: dict(point))
        report = classify(chart, run_oracle=False)
        for rows, values, verdict in cases:
            identity = Identity("lazy", rows, values)
            if verdict is None:
                with pytest.raises(EvaluationError):
                    check_identity_at(identity, point)
            else:
                assert check_identity_at(identity, point) is verdict
            compiled, every_row = undeduplicated(identity)
            evaluation = zoo._evaluate(compiled.values, compiled.degrees,
                                       point)
            assert outcome_at(compiled, evaluation) is outcome_at(
                every_row, evaluation)
            report.identities = [identity]
            summary = oracle_crosscheck(report, chart, samples=5, seed=1)
            assert (summary.disagreements, summary.inconclusive) == (
                (5, 0) if verdict is False else (0, 1))

    def test_denominator_vanishing_mod_p_marks_inconclusive(self):
        # A coefficient 1/p has no image in F_p, whatever the point: after
        # the retry bound the identity is inconclusive, not wrong.
        chart = builtin("flat3").to_chart()
        ctx = chart.ctx
        coeff = ctx.rational(1, 2 ** 61 - 1)
        identity = Identity("unreducible", [({0: coeff}, coeff)], [ctx.one])
        report = classify(chart, run_oracle=False)
        report.identities = [identity]
        summary = oracle_crosscheck(report, chart, samples=5, seed=1)
        assert summary.inconclusive == 1
        assert summary.disagreements == 0


def reference_oracle(report, chart, samples, seed):
    """The oracle as exact arithmetic states it: one rational point per
    round, shared by every identity not yet finished, and each value
    evaluated at it with evaluate_rational when an identity first needs
    it, then reduced mod p with residue().  An identity that meets a
    vanishing denominator counts a retry and waits for the next point; it
    is finished after samples decided points or MAX_DENOMINATOR_RETRIES
    retries."""
    rng = random.Random(seed)
    disagreements = inconclusive = 0
    done = [0] * len(report.identities)
    retries = [0] * len(report.identities)
    pending = list(range(len(report.identities)))
    while pending:
        point = {a: Fraction(rng.randint(1, GRID_MAX),
                             rng.randint(1, GRID_MAX))
                 for a in chart.ctx.atoms}
        memo = {}

        def value(e):
            if e not in memo:
                memo[e] = residue(evaluate_rational(e, point),
                                  ORACLE_PRIME)
            return memo[e]

        unfinished = []
        for i in pending:
            identity = report.identities[i]
            try:
                values = [value(v) for v in identity.values]
                ok = all(
                    sum(value(c) * values[j] for j, c in coeffs.items())
                    % ORACLE_PRIME == value(rhs)
                    for coeffs, rhs in identity.rows)
            except EvaluationError:
                retries[i] += 1
                if retries[i] < MAX_DENOMINATOR_RETRIES:
                    unfinished.append(i)
                else:
                    inconclusive += 1
                continue
            done[i] += 1
            disagreements += not ok
            if done[i] < samples:
                unfinished.append(i)
        pending = unfinished
    checked = sum(len(identity.rows) for identity in report.identities)
    return OracleSummary(samples, seed, len(report.identities), checked,
                         disagreements, inconclusive)


SEEDS = (1, 7, 42)


@pytest.fixture(scope="module")
def unchecked_reports():
    """(chart, report without oracle) per builtin and tensor selection."""
    out = {}
    for name in list_builtins():
        chart = builtin(name).to_chart()
        for tensors in (DEFAULT_TENSORS, ALL_TENSORS):
            out[name, tensors] = (chart, classify(chart, tensors=tensors,
                                                  run_oracle=False))
    return out


class TestOracleDifferential:
    """The compiled oracle against exact evaluation on the same shared
    point stream."""

    @pytest.mark.parametrize("tensors", [DEFAULT_TENSORS, ALL_TENSORS],
                             ids=["default", "all"])
    @pytest.mark.parametrize("name", list_builtins())
    def test_summaries_match_exact_evaluation(self, unchecked_reports, name,
                                              tensors):
        chart, report = unchecked_reports[name, tensors]
        for seed in SEEDS:
            assert oracle_crosscheck(report, chart, 50, seed) == \
                reference_oracle(report, chart, 50, seed), seed

    def test_corrupted_identities_match_exact_evaluation(
            self, unchecked_reports):
        # One corrupted value per identity of ex5_2, then one corrupted row
        # that repeats: the same disagreement count as exact evaluation of
        # every row, seed by seed.
        chart, report = unchecked_reports["ex5_2", DEFAULT_TENSORS]
        for identity in report.identities:
            j = min(j for coeffs, _ in identity.rows
                    for j, c in coeffs.items() if not c.is_zero)
            values = list(identity.values)
            values[j] = values[j] + 1
            # A corrupted row that repeats, among repeated sound rows.
            coeffs, rhs = identity.rows[0]
            bad = (coeffs, rhs + 1)
            repeated = [(coeffs, rhs), bad, *identity.rows, bad]
            fake = classify(chart, run_oracle=False)
            for corrupted in (Identity(identity.name + "~corrupt",
                                       identity.rows, values),
                              Identity(identity.name + "~repeated",
                                       repeated, identity.values)):
                fake.identities = [corrupted]
                for seed in SEEDS:
                    compiled = oracle_crosscheck(fake, chart, 50, seed)
                    assert compiled.disagreements >= 1, corrupted.name
                    assert compiled == reference_oracle(fake, chart, 50,
                                                        seed)

    def test_two_corrupted_identities_in_one_report(self, unchecked_reports):
        # Two identities of one ex5_2 report corrupted, the others sound:
        # every point is shared by all of them, and the counts are those of
        # exact evaluation on the same stream, seed by seed.
        chart, report = unchecked_reports["ex5_2", DEFAULT_TENSORS]
        identities = list(report.identities)
        for i in (0, 1):
            identity = identities[i]
            j = min(j for coeffs, _ in identity.rows
                    for j, c in coeffs.items() if not c.is_zero)
            values = list(identity.values)
            values[j] = values[j] + 1
            identities[i] = Identity(identity.name + "~corrupt",
                                     identity.rows, values)
        fake = classify(chart, run_oracle=False)
        fake.identities = identities
        for seed in SEEDS:
            compiled = oracle_crosscheck(fake, chart, 50, seed)
            assert compiled.disagreements >= 2
            assert compiled.inconclusive == 0
            assert compiled == reference_oracle(fake, chart, 50, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_point_stream_is_pinned(self, seed):
        # The first residues drawn from Random(seed) are those of the
        # rational points the oracle always drew.
        atoms = builtin("ex5_5").to_chart().ctx.atoms
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _draw_point(rng, atoms) == {
                a: residue(Fraction(twin.randint(1, GRID_MAX),
                                    twin.randint(1, GRID_MAX)), ORACLE_PRIME)
                for a in atoms}


@pytest.mark.parametrize("name", list_builtins())
def test_solver_rows_hold_no_zero_coefficient(unchecked_reports, name):
    # Every identity but quasi_einstein's keeps rows of a solve, built
    # without zero coefficients or cancelled sums: no retained row reads
    # 0 = 0.  quasi_einstein's rows are the dense upper triangle of
    # S = alpha g + beta eta (x) eta.
    _, report = unchecked_reports[name, ALL_TENSORS]
    for identity in report.identities:
        if identity.name == "quasi_einstein":
            continue
        for coeffs, rhs in identity.rows:
            assert coeffs or not rhs.is_zero, identity.name
            assert not any(c.is_zero for c in coeffs.values()), identity.name


class TestCLI:
    def test_list_builtins(self, capsys):
        assert main(["list-builtins"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(BUILTINS)

    def test_classify_builtin_text(self, capsys):
        code = main(["classify", "ex5_2", "--check", "kappa,deszcz",
                     "--oracle-samples", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deszcz[R;g]: yes" in out

    def test_classify_file_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_metric_file(builtin("ex5_2"), str(path))
        code = main(["classify", str(path), "--check", "kappa",
                     "--format", "json", "--oracle-samples", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["chart"] == "ex5_2"

    def test_unknown_source_exit_2(self, capsys):
        assert main(["classify", "missing_builtin"]) == 2

    def test_repeated_tensor_prints_each_verdict_once(self, capsys):
        assert main(["classify", "flat3", "--tensor", "R,R",
                     "--oracle-samples", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("  semisymmetric[R]: yes") == 1
        assert len(lines) == len(set(lines))

    def test_bad_tensor_exit_2(self, capsys):
        assert main(["classify", "flat3", "--tensor", "Q"]) == 2

    @pytest.mark.parametrize("samples", [0, MAX_SAMPLES + 1])
    def test_oracle_samples_out_of_range_exit_2_before_the_battery(
            self, capsys, monkeypatch, samples):
        monkeypatch.setattr(zoo, "curvature_verdicts", battery_must_not_run)
        assert main(["classify", "ex5_5", "--tensor", ",".join(ALL_TENSORS),
                     "--oracle-samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: samples must be between 1 and {MAX_SAMPLES}\n")

    def test_oracle_samples_past_the_limit_exit_2(self, capsys):
        assert main(["classify", "flat3", "--oracle-samples",
                     str(MAX_SAMPLES + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: samples must be between 1 and {MAX_SAMPLES}\n")

    def test_negative_seed_exit_2_before_the_battery(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(zoo, "curvature_verdicts", battery_must_not_run)
        assert main(["classify", "ex5_2", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must not be negative\n"

    def test_seed_zero_is_accepted(self, capsys):
        assert main(["classify", "flat3", "--seed", "0",
                     "--oracle-samples", "1"]) == 0
        assert "seed 0:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--check", "--tensor"])
    @pytest.mark.parametrize("value", [",", ""], ids=["comma", "empty"])
    def test_empty_name_list_exit_2(self, capsys, flag, value):
        assert main(["classify", "flat3", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} needs at least one name\n"

    def test_dimension_past_cap_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "dim": 1000,
                                    "coords": [], "metric": []}))
        assert main(["classify", str(path)]) == 2
        assert f"{path}.dim" in capsys.readouterr().err

    def test_deeply_nested_entry_exit_2(self, tmp_path, src_env):
        # Parenthesis depth far past the recursion limit: a ParseError with
        # a position, not a traceback.
        deep = "(" * 3000 + "x1" + ")" * 3000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "name": "deep", "dim": 3, "coords": ["x1", "x2", "x3"],
            "metric": [[deep], ["0", "1"], ["0", "0", "1"]]}))
        cmd = [sys.executable, "-m", "curvzoo.cli", "classify", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=src_env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "position" in proc.stderr

    def test_deeply_nested_json_exit_2(self, tmp_path, src_env):
        # JSON nesting past the recursion limit is an input error naming
        # the file, not an internal error.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        cmd = [sys.executable, "-m", "curvzoo.cli", "classify", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env=src_env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {path}: invalid JSON")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lone_surrogate_name_exit_2(self, tmp_path, fmt, src_env):
        # "\ud800" is valid JSON but cannot be written to a UTF-8 stdout.
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(dict(FUZZ_DOCUMENT, name="\ud800")))
        cmd = [sys.executable, "-m", "curvzoo.cli", "classify", str(path),
               "--format", fmt, "--oracle-samples", "1"]
        proc = subprocess.run(cmd, capture_output=True, timeout=60,
                              env=src_env)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert f"error: {path}.name: ".encode() in proc.stderr

    @pytest.mark.parametrize("entry, reason", [
        ("(1+x1+x2+x3+x4)^200", "degree"),
        ("((x1)^32)^32", "degree"),
        ("(1+x1+x2+x3+x4+exp(x1)+exp(x2)+exp(x3)+exp(x4))^32", "terms"),
        pytest.param(" + ".join(f"1/(2^500*x1 + {i})" for i in range(1, 31)),
                     "bits", id="sum_of_30_fractions-bits")])
    def test_blowup_entry_exit_2(self, tmp_path, entry, reason, src_env):
        # Rejected before the power or sum is expanded, so the command
        # returns at once; the timeout turns a hang into a failure.
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps({
            "name": "blowup", "dim": 4, "coords": ["x1", "x2", "x3", "x4"],
            "metric": [[entry], ["0", "1"], ["0", "0", "1"],
                       ["0", "0", "0", "1"]]}))
        cmd = [sys.executable, "-m", "curvzoo.cli", "classify", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              env=src_env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert reason in proc.stderr and "position" in proc.stderr

    def test_internal_inconsistency_exit_1(self, monkeypatch, capsys):
        from curvzoo.linsolve import InternalInconsistencyError

        def boom(*args, **kwargs):
            raise InternalInconsistencyError("back-substitution failure")

        monkeypatch.setattr("curvzoo.cli.classify", boom)
        assert main(["classify", "flat3"]) == 1

    def test_unexpected_error_exit_1(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("unexpected\nfailure")

        monkeypatch.setattr("curvzoo.cli.classify", boom)
        assert main(["classify", "flat3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "RuntimeError" in err

    @pytest.mark.parametrize("entry, reason", [
        ("x1 $ 2", "unexpected character '$'"),
        # A superscript five passes str.isdigit but not int().
        ("2\u2075*x1", "unexpected character '\u2075' (at position 1)"),
        (f"x1^{MAX_DEGREE + 1}", f"exceeds {MAX_DEGREE}")])
    def test_square_upper_entry_error_names_its_location(self, tmp_path,
                                                        capsys, entry,
                                                        reason):
        # An upper-triangle entry of a square matrix is parsed under the
        # same location wrapper as a lower-triangle one.
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "name": "square", "dim": 3, "coords": ["x1", "x2", "x3"],
            "metric": [["1", entry, "0"], ["x1", "1", "0"],
                       ["0", "0", "1"]]}))
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}.metric[0][1]: " in err and reason in err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(MetricFileError, match="binary.json"):
            load_metric_file(str(path))
        assert main(["classify", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_file_byte_cap(self, tmp_path, capsys, monkeypatch):
        # flat3 padded with trailing spaces to exactly MAX_FILE_BYTES bytes
        # loads; one byte more exits 2, naming the file, after reading
        # MAX_FILE_BYTES + 1 bytes however large the file is.
        text = json.dumps(metric_spec_to_dict(builtin("flat3")))
        at_cap, over = tmp_path / "at_cap.json", tmp_path / "over.json"
        at_cap.write_text(text.ljust(MAX_FILE_BYTES))
        over.write_text(text.ljust(MAX_FILE_BYTES + 1))
        assert load_metric_file(str(at_cap)) == builtin("flat3")
        assert main(["classify", str(over), "--oracle-samples", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {over}: file is larger than {MAX_FILE_BYTES} bytes\n")
        # The cap is checked before decoding: here the cut splits "é".
        split = tmp_path / "split.json"
        split.write_bytes(text.encode().ljust(MAX_FILE_BYTES) + "é".encode())
        with pytest.raises(MetricFileError, match="larger than"):
            load_metric_file(str(split))
        reads = []

        class Recorded:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, size=-1):
                reads.append(size)
                return self.fh.read(size)

        monkeypatch.setattr(metrics, "open",
                            lambda *args: Recorded(open(*args)),
                            raising=False)
        huge = tmp_path / "huge.json"
        huge.write_text(text.ljust(4 * MAX_FILE_BYTES))
        with pytest.raises(MetricFileError, match="larger than"):
            load_metric_file(str(huge))
        assert reads == [MAX_FILE_BYTES + 1]

    def test_entry_length_cap(self, tmp_path, capsys):
        # An entry of MAX_ENTRY_CHARS characters parses; one more exits 2,
        # naming the file and the entry.
        def entry_file(name, entry):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "name": name, "dim": 3, "coords": ["x1", "x2", "x3"],
                "metric": [["1"], ["0", entry], ["0", "0", "1"]]}))
            return str(path)

        at_cap = entry_file("at_cap", "x1".ljust(MAX_ENTRY_CHARS))
        over = entry_file("over", "x1".ljust(MAX_ENTRY_CHARS + 1))
        assert load_metric_file(at_cap).entry(1, 1) == "x1".ljust(
            MAX_ENTRY_CHARS)
        assert main(["classify", over, "--oracle-samples", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {over}.metric[1][1]: entry has {MAX_ENTRY_CHARS + 1} "
            f"characters, more than {MAX_ENTRY_CHARS}\n")

    @settings(max_examples=120, deadline=timedelta(seconds=20),
              derandomize=True, database=None)
    @given(st.one_of(entry_documents(), malformed_documents()))
    def test_fuzzed_metric_file_exit_0_or_2(self, tmp_path_factory, text):
        # Drawn entries and malformed JSON are accepted or rejected with an
        # input error; none is an internal error or prints a traceback.
        path = tmp_path_factory.mktemp("fuzz") / "metric.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        err = io.StringIO()
        # Encoded strictly, as a real stdout is: a StringIO would accept
        # text that a UTF-8 terminal or pipe cannot take.
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                               errors="strict")
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["classify", str(path)])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")

    def test_subprocess_determinism(self, src_env):
        # End-to-end: two separate processes, byte-identical reports.
        cmd = [sys.executable, "-m", "curvzoo.cli", "classify", "ex5_2",
               "--format", "json", "--seed", "42", "--oracle-samples", "10"]
        p1 = subprocess.run(cmd, capture_output=True, text=True, check=True,
                            env=src_env)
        p2 = subprocess.run(cmd, capture_output=True, text=True, check=True,
                            env=src_env)
        assert p1.stdout == p2.stdout


#: A metric with an exponential and a polynomial warp in one denominator.
WARPED = {"name": "warped", "dim": 4, "coords": ["x1", "x2", "x3", "x4"],
          "metric": [["1"], ["0", "3 + 2*exp(x1)"],
                     ["0", "0", "1 + 5*x1^2"],
                     ["0", "0", "0", "(1 + 5*x1^2)*exp(x1)"]]}


class TestRingUnit:
    def test_shared_unit_is_never_mutated(self, tmp_path):
        # Every value with denominator 1 shares the context's unit
        # polynomial; an in-place change to it would change them all.
        path = tmp_path / "warped.json"
        path.write_text(json.dumps(WARPED))
        zoo_chart = builtin("ex5_4").to_chart()
        warped = load_metric_file(str(path)).to_chart()
        units = [(c.ctx, c.ctx.unit) for c in (zoo_chart, warped)]
        classify(zoo_chart)
        scalar_curvature(warped)
        nabla_riemann(warped)
        classify_deszcz(warped, "R", "g")
        weyl_conformal(warped)
        for ctx, unit in units:
            assert ctx.unit is unit
            assert unit == {(0,) * len(ctx.gens): 1}
            assert ctx.one.den is unit


class TestResolveMetric:
    def test_builtin_name(self):
        assert resolve_metric("ex5_4") is BUILTINS["ex5_4"]

    def test_file_path(self, tmp_path):
        path = tmp_path / "flat.json"
        save_metric_file(builtin("flat3"), str(path))
        assert resolve_metric(str(path)) == builtin("flat3")
