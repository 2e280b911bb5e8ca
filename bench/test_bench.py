"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curvzoo.metrics import builtin  # noqa: E402
from curvzoo.charts import scalar_curvature  # noqa: E402

CHEAP_BUILTINS = [("flat3", "flat3"), ("ex5_3", "ex5_3")]


def traced_counts(ws, items) -> dict:
    tracer = tracing.Tracer()
    samples: list = []
    tracer.install()
    try:
        run.run_pass(ws, items, samples, tracer)
    finally:
        tracer.uninstall()
    assert not any(s.failure for s in samples)
    return {name: value for name, (value, unit) in tracer.metrics(1).items()
            if unit in ("count", "ratio")}


def test_counts_repeat_across_traced_runs(tmp_path):
    zoo = workloads.ZooWorkload("zoo-all-tensors", 7)
    first = traced_counts(zoo, CHEAP_BUILTINS)
    assert first == traced_counts(zoo, CHEAP_BUILTINS)
    assert first["exprs.eval_calls"] > 0
    assert first["linsolve.rows"] > 0
    assert first["zoo.oracle_points"] > 0

    generated = workloads.GeneratedWorkload(7, tmp_path / "gen")
    items = generated.items(random.Random(7))
    first = traced_counts(generated, items)
    assert first == traced_counts(generated, items)
    assert first["exprs.gcd_calls"] > 0


def test_reference_clock_samples_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with run.ReferenceClock() as clock:
        start = clock.mark()
        deadline = start[0] + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
        wall, speed = clock.since(start)
        elapsed = time.perf_counter() - start[0]
    assert signal.getsignal(signal.SIGALRM) is before
    # Samples were taken while the loop ran, and their time is not counted.
    assert len(clock.speeds) > run.REF_MIN_SAMPLES + 2
    assert 0 < wall < elapsed
    assert speed > 0


def test_untraced_run_leaves_no_wrapper():
    ws = workloads.ZooWorkload("zoo-default", 3)
    samples: list = []
    run.run_pass(ws, CHEAP_BUILTINS[:1], samples)
    assert tracing.installed_wrappers() == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    # zoo imports riemann from charts: the copy in zoo is wrapped too.
    assert "curvzoo.zoo.riemann" in installed
    assert "curvzoo.charts.riemann" in installed
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("alter", [
    lambda t: t["flat3"].update(kappa="1"),
    lambda t: t["flat3"]["outcomes"].update({"chaki[R]": True}),
])
def test_altered_known_answers_fail_the_chart(alter):
    table = workloads.load_known_answers()
    altered = copy.deepcopy(table)
    alter(altered)
    good = workloads.ZooWorkload("zoo-default", 5, known_answers=table)
    bad = workloads.ZooWorkload("zoo-default", 5, known_answers=altered)
    output = good.run("flat3")
    assert good.check("flat3", output) is None
    assert bad.check("flat3", output) is not None


def test_altered_report_byte_fails_the_chart():
    ws = workloads.ZooWorkload("zoo-default", 5)
    code, text = ws.run("flat3")
    altered = text.replace('"checked_components": 24',
                           '"checked_components": 25')
    assert altered != text
    assert ws.check("flat3", (code, altered)) == \
        "report differs from the reference"


def test_conformal_kappa_formula_matches_ex5_2():
    # ex5_2 is x1 times the flat metric.
    chart = builtin("ex5_2").to_chart()
    assert workloads.conformal_kappa(chart.ctx, "x1") == \
        scalar_curvature(chart)


def test_generated_files_depend_only_on_seed(tmp_path):
    a = workloads.generate(11, tmp_path / "a")
    b = workloads.generate(11, tmp_path / "b")
    c = workloads.generate(12, tmp_path / "c")

    def texts(charts):
        return [x.path.read_text() for x in charts]
    assert texts(a) == texts(b)
    assert texts(a) != texts(c)
    for chart in a:
        assert json.loads(chart.path.read_text())["dim"] == 4


def test_generated_cost_band(tmp_path):
    """Kernel work per template stays within a narrow band across seeds."""
    work: dict = {}
    for seed in (1, 2, 3):
        ws = workloads.GeneratedWorkload(seed, tmp_path / str(seed))
        for kind, item in ws.items(random.Random(seed)):
            counts = traced_counts(ws, [(kind, item)])
            work.setdefault(kind, []).append(
                counts["exprs.gcd_calls"] + counts["exprs.mul_calls"])
    for kind, values in work.items():
        assert max(values) <= 1.25 * min(values), (kind, values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zoo-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_wrong_deszcz_factor_fails_the_chart(tmp_path):
    ws = workloads.GeneratedWorkload(7, tmp_path / "gen")
    item = next(c for c in ws.charts if c.template == "conformal")
    chart, kappa, deszcz, weyl = ws.run(item)
    assert deszcz.outcome is True
    assert ws.check(item, (chart, kappa, deszcz, weyl)) is None
    deszcz.witness = 2 * deszcz.witness
    assert ws.check(item, (chart, kappa, deszcz, weyl)) == \
        "R.R - L Q(g,R) is nonzero for the returned L"
    deszcz.outcome = None
    assert "Deszcz verdict" in ws.check(item, (chart, kappa, deszcz, weyl))
