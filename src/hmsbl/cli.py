"""Command-line front end.

    hmsbl validate CONFIG            check a config, list every problem
    hmsbl run CONFIG [--out DIR]     run the experiment, write record + CSVs
    hmsbl bench CONFIG [--out DIR]   timing sweep only
    hmsbl emit-plots RECORD [...]    regenerate plot CSVs from a record

Exit codes: 0 success, 1 runtime failure, 2 invalid config or usage.
Worker processes for trial-parallel experiments come from the
HMSBL_WORKERS environment variable (default 1); a value that is not a
positive integer is a runtime failure.
"""

import argparse
import json
import sys

from . import experiments
from ._version import __version__
from .solver import DegenerateInputError, SolverError


def _load_or_exit(path):
    try:
        return experiments.load_config(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except experiments.ConfigError as exc:
        for err in exc.errors:
            print(f"invalid config {path}: {err}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_validate(args):
    _load_or_exit(args.config)
    print("OK")
    return 0


def _cmd_run(args):
    config = _load_or_exit(args.config)
    try:
        record, paths = experiments.run_and_save(config, args.out)
    except (SolverError, DegenerateInputError, experiments.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(f"wrote {path}")
    if record.aggregate:
        print(json.dumps(record.aggregate, indent=2, default=experiments._json_default))
    if record.errors:
        print(f"{len(record.errors)} trial(s) failed; see record.json errors[]",
              file=sys.stderr)
    return 0


def _cmd_bench(args):
    config = _load_or_exit(args.config)
    try:
        rows, assessment = experiments.run_bench(config)
    except (SolverError, DegenerateInputError, experiments.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = experiments.ResultRecord(
        experiment=config.experiment, config=config.to_dict(),
        tool_version=__version__, created_utc="", timing=rows,
        aggregate={"timing": assessment},
    )
    paths = experiments.emit_plot_data(record, "timing", args.out)
    for path in paths:
        print(f"wrote {path}")
    print(json.dumps(assessment, indent=2))
    return 0


def _cmd_emit_plots(args):
    try:
        record = experiments.ResultRecord.load(args.record)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: cannot load record {args.record}: {exc}", file=sys.stderr)
        return 2
    try:
        paths = experiments.emit_plot_data(record, args.kind, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmsbl", description="block-sparse 2-D harmonic retrieval benchmarks")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="run an experiment config end to end")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (default: config output_dir or .)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="timing sweep only")
    p.add_argument("config")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("emit-plots", help="write plot CSVs from a saved record")
    p.add_argument("record")
    p.add_argument("--kind", default="all",
                   choices=["all", "timing", "scatter", "convergence"])
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=_cmd_emit_plots)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
