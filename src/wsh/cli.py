"""Command-line entry point.

Commands:
  wsh jack <n>          Jack basis at degree n in power-sum coordinates
  wsh eseries           central-series coefficients
  wsh dims <r> <d>      graded dimensions of the order filtration
  wsh verify <suite>    run a verification suite

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .report import (
    SUITES,
    Config,
    emit_dims,
    emit_eseries,
    emit_jack,
    run_suite,
)
from .shc import GCONVENTIONS


def _rational(text):
    """A Fraction from a flag's text; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid rational value: %r" % text) from None


# every flag a command may take, keyed by the Config field it sets
_FLAGS = {
    "N": ("--max-degree", dict(
        type=int, default=8, metavar="N",
        help="truncation: largest total degree retained (default 8)",
    )),
    "kmax": ("--kmax", dict(
        type=int, default=5, help="largest rank-1 generator index (default 5)",
    )),
    "lmax": ("--lmax", dict(
        type=int, default=5,
        help="largest degree-zero generator index (default 5)",
    )),
    "series_order": ("--series-order", dict(
        type=int, default=6,
        help="number of central-series coefficients (default 6)",
    )),
    "specialize": ("--specialize", dict(
        type=_rational, default=None, metavar="RATIONAL",
        help="evaluate the parameter at a rational (e.g. 7/3) instead of "
        "exact rational-function arithmetic",
    )),
    "fmt": ("--format", dict(
        choices=("json", "text"), default="json",
        help="output format (default json)",
    )),
}


def _add_flags(parser, *fields):
    """The flags of ``fields``, then --specialize and --format, which every
    command takes."""
    for f in fields + ("specialize", "fmt"):
        flag, kwargs = _FLAGS[f]
        parser.add_argument(flag, dest=f, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsh",
        description="exact-arithmetic workbench for a deformed W-algebra "
        "on its polynomial representation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jack = sub.add_parser("jack", help="Jack basis at a given degree")
    p_jack.add_argument("degree", type=int)
    _add_flags(p_jack, "N")

    p_es = sub.add_parser("eseries", help="central-series coefficients")
    p_es.add_argument(
        "--convention", choices=GCONVENTIONS, default="power",
        help="reading of the G_l kernels (default: the one the Fock fit "
        "selects)",
    )
    p_es.add_argument(
        "--preset", choices=("omega", "fitted"), default=None,
        help="specialize the central parameters",
    )
    _add_flags(p_es, "series_order")

    p_dims = sub.add_parser("dims", help="graded filtration dimensions")
    p_dims.add_argument("rank", type=int)
    p_dims.add_argument("order", type=int)
    _add_flags(p_dims, "N")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    _add_flags(p_ver, "N", "kmax", "lmax")

    return parser


def _config(args) -> Config:
    """Config from the flags the command took; the rest keep their
    defaults."""
    return Config(**{f: getattr(args, f) for f in _FLAGS if hasattr(args, f)})


def _attached(argv):
    """argv with "--specialize VALUE", or an abbreviation of the flag,
    written "--specialize=VALUE": argparse reads only -N and -N.N as
    negative numbers, and would take a detached -3/5 for a flag."""
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--specialize".startswith(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attached(sys.argv[1:] if argv is None else argv))
    cfg = _config(args)
    try:
        if args.command == "jack":
            sys.stdout.write(emit_jack(args.degree, cfg))
            return 0
        if args.command == "eseries":
            sys.stdout.write(emit_eseries(cfg, args.convention, args.preset))
            return 0
        if args.command == "dims":
            sys.stdout.write(emit_dims(args.rank, args.order, cfg))
            return 0
        report = run_suite(args.suite, cfg)
        sys.stdout.write(report.render())
        return 0 if report.status == "pass" else 1
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
