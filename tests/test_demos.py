"""Every demo script runs to completion and prints its committed output.

Each script in demos/ runs in its own interpreter with the package
sources on PYTHONPATH, as a user would run it from a checkout, and its
stdout must equal tests/demo_output/<script name>.txt byte for byte.  After
a deliberate change to what a demo prints, rewrite its file with

    PYTHONPATH=src python demos/<name>.py > tests/demo_output/<name>.txt
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUT = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in OUTPUT.glob("*.txt")) == \
        [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, src_env):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=src_env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.strip()
    assert done.stdout == (OUTPUT / f"{demo.stem}.txt").read_bytes()
