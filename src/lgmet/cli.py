"""Command-line front end for (theta, b) sweeps and figure-dataset regeneration.

Each sweep verb is a scan.SWEEPS kind; "figure" writes a FIGURE_SETTINGS
dataset.  theta flags are given in units of pi (0.95 means 0.95*pi), matching
the paper-style axes; grid flags accept either a single real or "lo:hi:count".
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys

from .measurement import parse_partition
from .scan import FIGURE_SETTINGS, SWEEPS, RunConfig, parse_grid, reproduce_figure, write_sweep


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmet",
        description="Leggett-Garg parameter and Fisher information sweeps "
                    "for noisy spin-J parity measurements")
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, (_, single, _, _, text) in SWEEPS.items():
        p = sub.add_parser(verb, help=text)
        _add_common(p)
        for flag, what in (("b", "measurability b"), ("theta", "theta in pi units")):
            p.add_argument("--" + flag, required=True, help=what + (
                " (single value)" if flag in single else ", lo:hi:count grid or single value"))

    # no abbreviations, so that --out is not taken as --outdir
    p = sub.add_parser("figure", help="regenerate a figure dataset", allow_abbrev=False)
    _add_output(p)
    p.add_argument("which", choices=FIGURE_SETTINGS)
    p.add_argument("--outdir", default=".", help="output directory")

    return parser


_process_parser = functools.cache(build_parser)  # built by the first main call, then reused


def run(args) -> None:
    if args.command == "figure":
        print(*reproduce_figure(args.which, args.outdir, plot=args.plot, fmt=args.fmt), sep="\n")
        return
    if args.plot and args.out is None:
        raise ValueError("--plot requires --out")
    partition = None if args.partition == "default" else parse_partition(args.partition)
    config = RunConfig(two_j=args.two_j, b_values=parse_grid(args.b),
                       theta_values=parse_grid(args.theta, scale=math.pi), partition=partition)
    write_sweep(args.command, config, args.fmt, args.out,
                str(args.out) + ".svg" if args.plot else None)


def main(argv=None) -> int:
    args = _process_parser().parse_args(_attach_values(_sys.argv[1:] if argv is None else argv))
    try:
        run(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print("lgmet: error: %s" % exc, file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
