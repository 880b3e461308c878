"""Command-line interface.

Subcommands: enumerate, family, charpoly, radius, verify, check-formulas.
Exit codes: 0 all checks pass, 1 a claim failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import graph6
from .enumeration import CactusFilter, count_cacti, enumerate_cacti
from .families import build_H, build_L
from .spectra import char_poly, graph_radius, signless_laplacian
from .verify import (CLAIMS, verify_extremal, verify_formulas,
                     verify_monotonicity)

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cactiq",
                                  description="signless Laplacian spectral "
                                              "toolkit for cactus graphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list non-isomorphic cacti")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matching", type=int, default=None)
    p.add_argument("--pendants", type=int, default=None)
    p.add_argument("--format", choices=("graph6", "count"), default="graph6")

    p = sub.add_parser("family", help="build an extremal family member")
    p.add_argument("--family", choices=("H", "L"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit", choices=("graph6", "charpoly"), default="graph6")

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of Q")
    p.add_argument("--graph6", required=True)

    p = sub.add_parser("radius", help="numeric spectral radius of Q")
    p.add_argument("--graph6", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("verify", help="run one verification claim")
    p.add_argument("--claim", required=True,
                   choices=CLAIMS + ("monotonicity",))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default=None, help="append JSONL report here")

    p = sub.add_parser("check-formulas", help="exact formula identities")
    p.add_argument("--max-n", type=int, default=24)

    return top


def _emit_report(report, out_path) -> int:
    line = report.to_json()
    print(line)
    if out_path:
        with open(out_path, "a", encoding="ascii") as fh:
            fh.write(line + "\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "enumerate":
            filt = CactusFilter(matching=args.matching, pendants=args.pendants)
            if args.format == "count":
                print(count_cacti(args.n, filt))
            else:
                for g in enumerate_cacti(args.n, filt):
                    print(graph6.encode(g))
            return 0

        if args.command == "family":
            g = build_H(args.s, args.k) if args.family == "H" \
                else build_L(args.s, args.k)
            if args.emit == "graph6":
                print(graph6.encode(g))
            else:
                print(char_poly(signless_laplacian(g)).to_json())
            return 0

        if args.command == "charpoly":
            g = graph6.decode(args.graph6)
            print(char_poly(signless_laplacian(g)).to_json())
            return 0

        if args.command == "radius":
            g = graph6.decode(args.graph6)
            print(repr(graph_radius(g, tol=args.tol).radius))
            return 0

        if args.command == "verify":
            if args.claim == "monotonicity":
                report = verify_monotonicity(trials=args.trials, seed=args.seed)
            else:
                if args.n is None:
                    raise ValueError(f"--n is required for {args.claim}")
                report = verify_extremal(args.claim, args.n, m=args.m, k=args.k)
            return _emit_report(report, args.out)

        if args.command == "check-formulas":
            report = verify_formulas(max_n=args.max_n)
            return _emit_report(report, None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
