"""Command line front end.

Subcommands: ``gen`` writes generator hypergraphs as JSON, ``trace``
evaluates plain or localized traces, ``estrada`` prints a certified
index bracket, ``scan`` ranks hypertree classes, and ``audit`` runs a
perturbation law comparison.  Exit codes: 0 on success, 1 for invalid
input, 2 when a resource budget is exceeded, 141 (128 + SIGPIPE) when
standard output is closed before everything is written.  Output is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .composition import (
    InequalityAuditReport,
    audit_cored_shift,
    audit_edge_shift,
    audit_path_shift,
)
from .config import Budget, default_budget
from .errors import LimitExceeded, ValidationError
from .estrada import _tolerance, decimal_str, estrada_index, extremal_scan, fraction_str
from .hypergraph import dumps_json, hyperpath, hyperstar, load_json
from .traces import query, trace, trace_local


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; input problems are
    validation failures here, so they exit with 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypertrace", description=__doc__)
    parser.add_argument("--budget", type=int, default=None,
                        help="override the trace cost budget (edges * d)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a generator hypergraph as JSON")
    p_gen.add_argument("--family", choices=["edge", "hyperpath", "hyperstar"],
                       required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--edges", type=int, default=1,
                       help="edge count for hyperpath/hyperstar")
    p_gen.add_argument("--output", default=None, help="file path, default stdout")

    p_trace = sub.add_parser("trace", help="exact trace, plain or localized")
    p_trace.add_argument("--input", required=True, help="hypergraph JSON file")
    p_trace.add_argument("--d", type=int, required=True)
    p_trace.add_argument("--required", type=int, nargs="*", default=[])
    p_trace.add_argument("--forbidden", type=int, nargs="*", default=[])
    p_trace.add_argument("--pinned", type=int, nargs=2, default=None,
                         metavar=("VERTEX", "COUNT"))
    p_trace.add_argument("--format", choices=["text", "json"], default="text")

    p_est = sub.add_parser("estrada", help="certified Estrada index bracket")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--tol", default="1e-6")
    p_est.add_argument("--format", choices=["text", "json"], default="text")

    p_scan = sub.add_parser("scan", help="rank hypertree classes by Estrada index")
    p_scan.add_argument("--m", type=int, required=True)
    p_scan.add_argument("--edges", type=int, required=True)
    p_scan.add_argument("--tol", default="1e-3")
    p_scan.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_scan.add_argument("--output", default=None)

    p_audit = sub.add_parser("audit", help="compare traces under a perturbation law")
    p_audit.add_argument("--law", choices=["path-shift", "edge-shift", "cored-shift"],
                         required=True)
    p_audit.add_argument("--m", type=int, required=True)
    p_audit.add_argument("--r", type=int, default=1)
    p_audit.add_argument("--s", type=int, default=1)
    p_audit.add_argument("--p", type=int, default=1)
    p_audit.add_argument("--dmax", type=int, required=True)
    p_audit.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _places(tol: Fraction) -> int:
    places = 1
    while Fraction(1, 10**places) > tol and places < 12:
        places += 1
    return min(places + 1, 15)


def cmd_gen(args: argparse.Namespace, budget: Budget) -> int:
    if args.family == "edge":
        h = hyperpath(args.m, 1)
    elif args.family == "hyperpath":
        h = hyperpath(args.m, args.edges)
    else:
        h = hyperstar(args.m, args.edges)
    _emit(dumps_json(h), args.output)
    return 0


def cmd_trace(args: argparse.Namespace, budget: Budget) -> int:
    h = load_json(args.input)
    pinned = tuple(args.pinned) if args.pinned else None
    q = query(required=args.required, forbidden=args.forbidden, pinned=pinned)
    if q.is_empty:
        value = trace(h, args.d, budget)
    else:
        value = trace_local(h, args.d, q, budget)
    if args.format == "json":
        payload = {
            "d": args.d,
            "trace": fraction_str(value),
            "decimal": decimal_str(value, 6),
        }
        _emit(json.dumps(payload, indent=2) + "\n", None)
    else:
        _emit(f"{fraction_str(value)}\n", None)
        _emit(f"= {decimal_str(value, 6)} (6 dp)\n", None)
    return 0


def cmd_estrada(args: argparse.Namespace, budget: Budget) -> int:
    h = load_json(args.input)
    tol = _tolerance(args.tol)
    estimate = estrada_index(h, tol, budget)
    places = _places(tol if tol else Fraction(1, 10**6))
    lo = decimal_str(estimate.lower, places, rounding="floor")
    hi = decimal_str(estimate.upper, places, rounding="ceil")
    if args.format == "json":
        payload = {
            "lower": fraction_str(estimate.lower),
            "upper": fraction_str(estimate.upper),
            "lower_decimal": lo,
            "upper_decimal": hi,
            "depth": estimate.depth,
            "tail_bound": fraction_str(estimate.tail_bound),
        }
        _emit(json.dumps(payload, indent=2) + "\n", None)
    else:
        _emit(f"bracket: [{lo}, {hi}]\n", None)
        _emit(f"depth: {estimate.depth}\n", None)
    return 0


def cmd_scan(args: argparse.Namespace, budget: Budget) -> int:
    tol = _tolerance(args.tol)
    report = extremal_scan(args.m, args.edges, tol, budget)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(report.to_csv(), args.output)
    else:
        lines = [f"hypertrees m={report.m} z={report.z}: {len(report.entries)} classes"]
        for entry in report.entries:
            lo = decimal_str(entry.estimate.lower, 6, rounding="floor")
            hi = decimal_str(entry.estimate.upper, 6, rounding="ceil")
            degrees = ",".join(map(str, entry.degree_sequence))
            lines.append(
                f"rank {entry.rank}: id={entry.canonical_id} n={entry.hypergraph.n} "
                f"degrees={degrees} ee=[{lo}, {hi}]"
            )
        lines.append(f"minimizer: {report.minimizer_id or 'indeterminate'}"
                     f" (hyperpath: {report.path_is_minimum})")
        lines.append(f"maximizer: {report.maximizer_id or 'indeterminate'}"
                     f" (hyperstar: {report.star_is_maximum})")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _run_audit(args: argparse.Namespace, budget: Budget) -> InequalityAuditReport:
    if args.law == "path-shift":
        host = hyperpath(args.m, 1)
        return audit_path_shift(host, 0, args.r, args.s, args.dmax, budget)
    if args.law == "edge-shift":
        return audit_edge_shift(args.m, args.p, args.r, args.s, args.dmax,
                                budget=budget)
    return audit_cored_shift(args.m, args.dmax, p=args.p, budget=budget)


def cmd_audit(args: argparse.Namespace, budget: Budget) -> int:
    report = _run_audit(args, budget)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", None)
        return 0
    lines = [f"law: {report.law}"]
    for row in report.rows:
        lines.append(
            f"d={row.d}: {row.verdict} (left={fraction_str(row.left)} "
            f"right={fraction_str(row.right)})"
        )
    lines.append(f"claimed strict onset: d={report.claimed_strict_onset}")
    observed = report.observed_strict_onset
    lines.append(
        f"observed strict onset: {'d=' + str(observed) if observed else 'none'}"
    )
    lines.append(f"violations: {list(report.violations) or 'none'}")
    _emit("\n".join(lines) + "\n", None)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "trace": cmd_trace,
    "estrada": cmd_estrada,
    "scan": cmd_scan,
    "audit": cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        budget = default_budget() if args.budget is None else Budget(cost_limit=args.budget)
        status = _COMMANDS[args.command](args, budget)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away (``| head``): not an input error, so no
        # message; what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
