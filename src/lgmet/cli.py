"""Command-line front end for (theta, b) sweeps and figure-dataset regeneration.

theta flags are given in units of pi (0.95 means 0.95*pi), matching the
paper-style axes; grid flags accept either a single real or "lo:hi:count".
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

from .measurement import parse_partition
from .scan import (RunConfig, parse_grid, phase_map, reproduce_figure, scan_b,
                   scan_theta, table_to_csv, table_to_json, write_table,
                   render_svg_lineplot)


VALUE_FLAGS = ("--b", "--theta", "--partition")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv", help="output table format")
    parser.add_argument("--plot", action="store_true",
                        help="also write an SVG line plot next to each table")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--two-j", type=int, default=5,
                        help="twice the spin quantum number (default 5, spin 5/2)")
    parser.add_argument("--partition", default="default",
                        help='block spec "2mu:2m,...;..." or "default"')
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    _add_output(parser)


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite "--theta -1e-3" as "--theta=-1e-3" for every flag in VALUE_FLAGS.

    argparse takes a separate value starting with '-' for an option unless it
    looks like -0.5; -1e-3, -inf, -1:1:5 and "-5:-5;..." must reach the parsers.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_config(args, b_spec: str, theta_spec: str) -> RunConfig:
    partition = None if args.partition == "default" else parse_partition(args.partition)
    return RunConfig(two_j=args.two_j,
                     b_values=parse_grid(b_spec),
                     theta_values=parse_grid(theta_spec, scale=math.pi),
                     partition=partition)


def _emit(table, args, x_col: str, y_cols: list[str]) -> None:
    if args.out is None:
        if args.plot:
            raise ValueError("--plot requires --out")
        text = table_to_csv(table) if args.fmt == "csv" else table_to_json(table)
        _sys.stdout.write(text)
        return
    write_table(table, args.fmt, args.out)
    if args.plot:
        render_svg_lineplot(table, x_col, y_cols, str(args.out) + ".svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmet",
        description="Leggett-Garg parameter and Fisher information sweeps "
                    "for noisy spin-J parity measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-theta", help="sweep theta at fixed b")
    _add_common(p)
    p.add_argument("--b", required=True, help="measurability b (single value)")
    p.add_argument("--theta", required=True,
                   help="theta grid in pi units, lo:hi:count or single value")

    p = sub.add_parser("scan-b", help="sweep b at fixed theta")
    _add_common(p)
    p.add_argument("--b", required=True, help="b grid, lo:hi:count or single value")
    p.add_argument("--theta", required=True, help="theta in pi units (single value)")

    p = sub.add_parser("phase-map", help="full Cartesian (b, theta) sweep")
    _add_common(p)
    p.add_argument("--b", required=True, help="b grid, lo:hi:count")
    p.add_argument("--theta", required=True, help="theta grid in pi units, lo:hi:count")

    # no abbreviations, so that --out is not taken as --outdir
    p = sub.add_parser("figure", help="regenerate a figure dataset", allow_abbrev=False)
    _add_output(p)
    p.add_argument("which", choices=("1a", "1b", "2a", "2b", "3"))
    p.add_argument("--outdir", default=".", help="output directory")

    p = sub.add_parser("report", help="single-point estimation record")
    _add_common(p)
    p.add_argument("--b", required=True, help="measurability b")
    p.add_argument("--theta", required=True, help="theta in pi units")

    return parser


def run(args) -> None:
    if args.command == "scan-theta":
        table = scan_theta(_build_config(args, args.b, args.theta))
        _emit(table, args, "theta", ["C", "K_LG", "F", "F_Q"])
    elif args.command == "scan-b":
        table = scan_b(_build_config(args, args.b, args.theta))
        _emit(table, args, "b", ["K_LG", "F", "F_Q"])
    elif args.command == "phase-map":
        table = phase_map(_build_config(args, args.b, args.theta))
        _emit(table, args, "K_LG", ["F_ratio"])
    elif args.command == "figure":
        paths = reproduce_figure(args.which, args.outdir, plot=args.plot,
                                 fmt=args.fmt)
        for path in paths:
            print(path)
    elif args.command == "report":
        table = scan_theta(_build_config(args, args.b, args.theta))
        _emit(table, args, "theta", ["F", "F_Q"])
    else:  # pragma: no cover
        raise ValueError("unknown command %r" % args.command)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(_sys.argv[1:] if argv is None else argv))
    try:
        run(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("lgmet: error: %s" % exc, file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
