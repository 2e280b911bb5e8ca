"""Write the reference JSON reports that the zoo workloads compare against.

Run from the repository root at the commit whose output is the reference:

    python3 bench/capture.py

It writes bench/reference/<workload>/<builtin>.json, one report per builtin,
rendered by the CLI exactly as the workload calls it, with the default
oracle seed.
"""

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from curvzoo.cli import main  # noqa: E402
from curvzoo.zoo import DEFAULT_SEED  # noqa: E402

from workloads import BUILTINS, ZOO_WORKLOADS, zoo_argv  # noqa: E402


def capture() -> None:
    for workload in ZOO_WORKLOADS:
        out_dir = BENCH / "reference" / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in BUILTINS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(zoo_argv(workload, name, DEFAULT_SEED))
            if code != 0:
                raise SystemExit(f"{workload}/{name}: exit code {code}")
            (out_dir / f"{name}.json").write_text(buf.getvalue(),
                                                  encoding="utf-8")
            print(f"{workload}/{name}: {len(buf.getvalue())} bytes")


if __name__ == "__main__":
    capture()
