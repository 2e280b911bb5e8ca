"""Command line interface.

    curvzoo classify <file-or-builtin> [--check LIST] [--tensor LIST]
                     [--format text|json] [--oracle-samples N] [--seed S]
    curvzoo list-builtins

Exit codes: 0 on success, 1 on an internal consistency failure (a solver
witness failing its own back-substitution) or any other unexpected error,
reported on one line without a traceback, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys

from .charts import ChartError
from .exprs import ExpressionError
from .linsolve import InternalInconsistencyError
from .metrics import MetricFileError, list_builtins, resolve_metric
from .zoo import (ALL_TENSORS, DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TENSORS,
                  classify, render_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvzoo",
        description="Exact pseudosymmetry-type classification of coordinate "
                    "metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify",
                         help="classify a metric file or builtin")
    cls.add_argument("source", help="metric file path or builtin name")
    cls.add_argument("--check", default=None,
                     help="comma-separated classifier name prefixes "
                          "(default: all)")
    cls.add_argument("--tensor", default=",".join(DEFAULT_TENSORS),
                     help="comma-separated tensors from "
                          f"{{{','.join(ALL_TENSORS)}}} "
                          f"(default: {','.join(DEFAULT_TENSORS)})")
    cls.add_argument("--format", default="text", choices=("text", "json"))
    cls.add_argument("--oracle-samples", type=int, default=DEFAULT_SAMPLES)
    cls.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sub.add_parser("list-builtins", help="list builtin metric names")
    return parser


def _name_list(value: str, flag: str) -> list[str]:
    """The names in a comma-separated flag value; ValueError when there
    are none."""
    names = [name for name in value.split(",") if name]
    if not names:
        raise ValueError(f"{flag} needs at least one name")
    return names


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-builtins":
        for name in list_builtins():
            print(name)
        return 0

    try:
        spec = resolve_metric(args.source)
        checks = (None if args.check is None
                  else _name_list(args.check, "--check"))
        tensors = _name_list(args.tensor, "--tensor")
        report = classify(spec, checks=checks, tensors=tensors,
                          oracle_samples=args.oracle_samples, seed=args.seed)
        text = render_report(report, format=args.format)
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 1
    except (MetricFileError, ChartError, ExpressionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # any other failure: one line, no traceback
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if report.oracle and report.oracle.disagreements:
        print("oracle disagreements detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
