"""Command line entry point: weldlab {walk,discovery,simulate,e2e}."""
from __future__ import annotations

import argparse
import sys

from .harness import ExperimentConfig, run_command, write_report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weldlab",
                                description="Welded-tree oracle experiments")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in ("walk", "discovery", "simulate", "e2e"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file; flags below override it")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None,
                        help="report file (JSON lines, appended)")
        sp.add_argument("--jobs", type=int, default=None)
        sp.add_argument("-n", type=int, default=None, dest="n")
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--circuit", type=str, default=None, dest="circuit_file")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
        config.experiment = args.experiment
    else:
        config = ExperimentConfig(experiment=args.experiment)
    for key in ("seed", "out", "jobs", "n", "trials", "samples", "circuit_file"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(config, key, val)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run_command(config)
    except ValueError as exc:
        sys.stderr.write(f"weldlab {args.experiment}: error: {exc}\n")
        return 2
    line = write_report(report, config.out)
    sys.stdout.write(line)
    for chk in report.checks:
        status = "PASS" if chk.passed else ("FAIL" if chk.fatal else "WARN")
        sys.stderr.write(f"[{status}] {chk.name}: measured={chk.measured!r} "
                         f"bound={chk.bound!r}\n")
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
