"""The curvzoo benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload zoo-default --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports curvzoo from ./src.  A run
is a single-threaded closed loop with one client: it runs passes over the
workload's chart kinds (each pass in an order drawn from --seed) and checks
every chart's output.

With --trace 0 it first times the set-up in fresh processes, then runs
charts untraced until --seconds have passed and every kind has run once, and
reports the end-to-end metrics, in reference seconds (see ReferenceClock).
With --trace 1 it draws one pass and runs it untraced and then traced, again
while another such pair is expected to end within --seconds, and reports
the per-layer metrics of the traced passes plus the tracing overhead.
Either way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat each
metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: generated inputs and trace files.
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

#: Interval between reference samples.
REF_INTERVAL_S = 0.05
#: About the fastest one reference_work() call ran between program steps on
#: the 2-core x86-64 VM the benchmark was written on (Python 3.11): the
#: scale of a reference second.
REF_NOMINAL_S = 2.5e-4
#: An interval is converted with at least this many of the latest samples.
REF_MIN_SAMPLES = 5


class Sample(NamedTuple):
    kind: str
    seconds: float  # reference seconds; wall seconds in traced runs
    wall: float
    failure: Optional[str]


def reference_work() -> dict:
    """A fixed slice of work like the program's own: the product of two
    sparse polynomials held as dicts from exponent tuples to Python ints, as
    sympy's pure-Python PolyElement holds them."""
    p = {(i, j): 7 * i + j + 1 for i in range(6) for j in range(6)}
    q = {(i, j): i - 3 * j + 5 for i in range(5) for j in range(5)}
    product: dict = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * f
    return product


class ReferenceClock:
    """Measures time in reference seconds: wall seconds scaled by the speed
    of the core meanwhile, so that a chart reads the same however busy the
    shared host was.

    On a shared host the speed of a core changes by up to 1.7x from one
    second to the next, and runs a minute apart differ by 25 % or more in
    wall time; CPU time follows wall time, so it is no help.  While the
    clock runs, a SIGALRM timer runs reference_work() every REF_INTERVAL_S,
    in between the program's own steps.  A sample's speed is REF_NOMINAL_S
    divided by its duration.  An interval's reference seconds are its wall
    seconds, less the time spent sampling, times the mean speed of the
    samples taken in it (at least the latest REF_MIN_SAMPLES).  On a core
    where reference_work() takes REF_NOMINAL_S, the two read the same.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.speeds.append(REF_NOMINAL_S / elapsed)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "ReferenceClock":
        for _ in range(REF_MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.speeds), self.spent

    def since(self, mark) -> tuple[float, float]:
        """Wall seconds since mark, less the time spent sampling, and the
        mean speed over them."""
        start, count, spent = mark
        wall = time.perf_counter() - start - (self.spent - spent)
        first = min(count, len(self.speeds) - REF_MIN_SAMPLES)
        return wall, statistics.fmean(self.speeds[first:])


def import_program() -> None:
    """Import curvzoo from this checkout's src, and nowhere else; after
    this the benchmark's own modules (which import curvzoo) can be
    imported."""
    if not (SRC / "curvzoo" / "__init__.py").is_file():
        raise SystemExit(f"error: no curvzoo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import curvzoo
    if Path(curvzoo.__file__).resolve().parent != SRC / "curvzoo":
        raise SystemExit(f"error: imported curvzoo from {curvzoo.__file__}")


def scratch_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-{seed}-{os.getpid()}"


def time_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until
    curvzoo is imported and the workload's inputs are ready, in reference
    seconds at the speed each process measured."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        fields = line.split()
        if (len(fields) != 3 or fields[0] != "ready"
                or probe.returncode != 0):
            raise SystemExit(f"error: set-up probe failed "
                             f"(exit code {probe.returncode})")
        spent, speed = float(fields[1]), float(fields[2])
        samples.append((elapsed - spent) * speed)
    return statistics.median(samples)


def setup_probe(workload: str, seed: int) -> None:
    with ReferenceClock() as clock:
        start = clock.mark()
        import_program()
        import workloads
        ws = workloads.prepare(workload, seed, scratch_dir(workload, seed))
        _, speed = clock.since(start)
    try:
        print(f"ready {clock.spent} {speed}", flush=True)
    finally:
        ws.close()


def run_chart(ws, kind, item, samples, tracer=None, clock=None) -> float:
    """Run and check one chart, append its Sample; return the wall seconds
    spent in curvzoo."""
    gc.collect()
    if tracer is not None:
        tracer.chart_id = len(samples)
    start = clock.mark() if clock is not None else time.perf_counter()
    try:
        output = ws.run(item)
    except Exception as err:  # a failed chart, counted and reported
        failure = f"{type(err).__name__}: {err}"
    else:
        failure = None
    if clock is not None:
        elapsed, speed = clock.since(start)
    else:
        elapsed, speed = time.perf_counter() - start, 1.0
    if failure is None:
        if tracer is None:
            failure = ws.check(item, output)
        else:
            with tracer.paused():
                failure = ws.check(item, output)
                tracer.end_chart()
    if failure:
        print(f"FAILED {ws.name} {kind}: {failure}", file=sys.stderr)
    samples.append(Sample(kind, elapsed * speed, elapsed, failure))
    return elapsed


def run_pass(ws, items, samples, tracer=None) -> float:
    """Run one pass; return the seconds spent in curvzoo."""
    return sum(run_chart(ws, kind, item, samples, tracer)
               for kind, item in items)


def end_to_end(ws, samples, setup_s: float) -> tuple[dict, list[str]]:
    failed = sum(1 for s in samples if s.failure)
    verified = 1.0 - failed / len(samples)
    metrics = {name: (value, unit) for name, value, unit in
               chart_figures(ws.kinds, samples, "seconds", verified)}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    metrics["setup_s"] = (setup_s, "s")
    wall = chart_figures(ws.kinds, samples, "wall", verified)
    slowest = max(ws.kinds, key=lambda k: kind_median(samples, k, "seconds"))
    notes = [f"times are reference seconds; chart_s.p50 is the median over "
             f"{len(ws.kinds)} kinds of each kind's median, chart_s.tail the "
             f"slowest kind's median ({slowest}); {len(samples)} charts run",
             "in wall time: " + ", ".join(f"{name} {value:.6g} {unit}"
                                          for name, value, unit in wall),
             f"failed_share {failed / len(samples):g} ratio "
             f"({failed} of {len(samples)} charts)"]
    return metrics, notes


def kind_median(samples, kind: str, field: str) -> float:
    return statistics.median(getattr(s, field) for s in samples
                             if s.kind == kind)


def chart_figures(kinds, samples, field: str, verified: float) -> list:
    """charts_per_min, chart_s.p50 and chart_s.tail from one time field.

    Every chart of a kind does the same work (or, for generated charts,
    nearly the same), so each kind is summarised by its median time, and
    one slow moment moves one sample, not the figures."""
    typical = [kind_median(samples, k, field) for k in kinds]
    return [("charts_per_min", 60.0 * len(typical) / sum(typical) * verified,
             "charts/min"),
            ("chart_s.p50", statistics.median(typical), "s"),
            ("chart_s.tail", max(typical), "s")]


def measure(ws, seed: int, seconds: float) -> list:
    """Run charts until seconds have passed and every kind has run."""
    rng = random.Random(seed)
    samples: list = []
    start = time.perf_counter()
    with ReferenceClock() as clock:
        while True:
            for kind, item in ws.items(rng):
                run_chart(ws, kind, item, samples, clock=clock)
                if (len(samples) >= len(ws.kinds)
                        and time.perf_counter() - start >= seconds):
                    return samples


def measure_traced(ws, seed: int, seconds: float):
    """Run one pass drawn from the seed untraced and then traced, again
    while another pair is expected to end within seconds.  Every traced
    pass does the same work, so the counts per pass do not depend on how
    many passes fit."""
    import tracing  # imports curvzoo, so only after import_program()
    items = ws.items(random.Random(seed))
    tracer = tracing.Tracer()
    untraced: list = []
    traced: list = []
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        plain_s += run_pass(ws, items, untraced)
        tracer.install()
        try:
            traced_s += run_pass(ws, items, traced, tracer)
        finally:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    metrics = tracer.metrics(passes)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    notes = [f"tracing overhead {traced_s / plain_s - 1.0:+.1%} "
             f"({traced_s:.2f} s traced vs {plain_s:.2f} s untraced, "
             f"{passes} pass(es) each)"]
    notes += split_checks(ws.name, metrics)
    path = OUT / f"trace-{ws.name}-{seed}.json"
    tracer.write(path)
    notes.append(f"spans: {len(tracer.spans)} written to "
                 f"{path.relative_to(ROOT)}")
    return untraced + traced, metrics, notes


def split_checks(workload: str, m: dict) -> list[str]:
    """The layer split each workload was chosen for, as measured."""
    value = {k: v for k, (v, _) in m.items()}
    oracle, battery = value["zoo.oracle_s"], value["zoo.battery_s"]
    checks = []
    if workload == "zoo-default":
        others = {k: v for k, v in value.items()
                  if k.endswith(".self_s") and not k.startswith("zoo.")}
        top = max(others, key=others.get)
        checks.append((oracle > others[top],
                       f"zoo.oracle_s {oracle:.2f} s > largest other layer "
                       f"{top} {others[top]:.2f} s"))
    if workload == "zoo-all-tensors":
        share = oracle / (oracle + battery)
        checks.append((share < 0.05, f"zoo.oracle_s share {share:.1%} < 5%"))
    if workload == "generated-pipeline":
        checks.append((value["linsolve.solves"] == 0
                       and value["zoo.oracle_points"] == 0,
                       "linsolve.solves and zoo.oracle_points are 0"))
        checks.append((value["metrics.load_s"] > 0, "metrics.load_s > 0"))
    else:
        checks.append((value["metrics.load_s"] == 0, "metrics.load_s == 0"))
    return [f"split {'ok' if ok else 'NOT MET'}: {text}"
            for ok, text in checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")

    setup_s = 0.0 if args.trace else time_setup(args.workload, args.seed)
    ws = workloads.prepare(args.workload, args.seed,
                           scratch_dir(args.workload, args.seed))
    try:
        if args.trace:
            samples, metrics, notes = measure_traced(ws, args.seed,
                                                     args.seconds)
        else:
            samples = measure(ws, args.seed, args.seconds)
            metrics, notes = end_to_end(ws, samples, setup_s)
    finally:
        ws.close()

    failed = sum(1 for s in samples if s.failure)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
