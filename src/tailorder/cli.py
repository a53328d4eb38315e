"""Command-line front end.

Subcommands
-----------
analyze   --dist LITERAL --s-max N        rate/average-rate classes per order
compare   --x LIT --y LIT --s N --criterion {ifr,ifra,hs,hs1,newcrit,dmrl,convexity}
roots     --exppoly EXPR [--lo F --hi F]  certified root isolation
casebook  [--id ID]                       run the registered cases
scan      --exppoly EXPR [--x-max F]      sampled sign pattern of an expression

Distribution literals: exp(1), gamma(2,1), weibull(1.5,1), bpareto(5,10),
polyexp(1), maxexp(1,2).  Whitespace-insensitive, parameters are decimal
literals.  Exponential-polynomial expressions are sums of COEF*e(-RATE)
terms, e.g. "1*e(-1)+(-1)*e(-2)".

Exit codes: 0 supported/pass, 1 refuted/fail, 2 usage error, 3
inconclusive, 4 I/O error.  JSON documents carry a schema field and all
floats are serialized with 17 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time

from . import ageing, casebook
from .distributions import parse_distribution
from .errors import TailOrderError, UnknownCase
from .exppoly import ExpPoly
from .ordering import (
    GridSpec,
    compare_dmrl,
    compare_ifr,
    compare_ifra,
    convexity_check,
    criterion_h,
    newcrit,
)
from .patterns import ScanConfig
from .signscan import scan

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_IO = 4

_TERM = re.compile(r"^\s*([+-]?\s*\(?[^*]+?\)?)\s*\*\s*e\(\s*-\s*([0-9.eE+-]+)\s*\)\s*$")


def parse_exppoly(text: str) -> ExpPoly:
    """Parse "C1*e(-R1)+C2*e(-R2)+..." into an exponential polynomial."""
    chunks = re.split(r"\+(?=\s*[-(0-9])", text.strip())
    terms = []
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m:
            raise ValueError(f"bad exponential-polynomial term: {chunk!r}")
        coef_text = m.group(1).replace("(", "").replace(")", "").replace(" ", "")
        terms.append((float(coef_text), float(m.group(2))))
    return ExpPoly(tuple(terms))


def _float17(obj):
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _float17(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_float17(v) for v in obj]
    return obj


def _emit(doc: dict, json_path: str | None) -> None:
    doc = {"schema": SCHEMA_VERSION, **_float17(doc)}
    text = json.dumps(doc, indent=2, allow_nan=False)  # strict JSON (RFC 8259)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_trace(rows, csv_path: str) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value", "sign"])
        for x, value, sign in rows:
            writer.writerow([f"{x:.17g}", f"{value:.17g}", sign])


_EPILOG = """\
distribution literals:
  exp(RATE), gamma(SHAPE,SCALE), weibull(SHAPE,SCALE), bpareto(C1,C2),
  polyexp(C), maxexp(R1,R2,...).  Whitespace-insensitive; parameters are
  decimal literals.

exponential-polynomial expressions:
  sums of COEF*e(-RATE) terms, e.g. "1*e(-1)+(-1)*e(-2)".

exit codes:
  0 supported/pass, 1 refuted/fail, 2 usage error, 3 inconclusive, 4 I/O error.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailorder",
        description="Iterated failure rates and failure-rate stochastic orders.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--json", metavar="PATH", help="write the report to PATH")
    parser.add_argument("--csv", metavar="PATH", help="write scan traces to PATH")
    parser.add_argument("--trace", action="store_true", help="collect scan traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify rate monotonicity per order")
    p.add_argument("--dist", required=True, help="distribution literal")
    p.add_argument("--s-max", type=int, default=2, dest="s_max")

    p = sub.add_parser("compare", help="check a stochastic order between two distributions")
    p.add_argument("--x", required=True, help="lower candidate literal")
    p.add_argument("--y", required=True, help="upper candidate literal")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--criterion", default="ifr",
                   choices=["ifr", "ifra", "hs", "hs1", "newcrit", "dmrl", "convexity"])
    p.add_argument("--a-grid", type=int, default=64)
    p.add_argument("--b-grid", type=int, default=32)

    p = sub.add_parser("roots", help="isolate real roots of an exponential polynomial")
    p.add_argument("--exppoly", required=True)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)

    p = sub.add_parser("casebook", help="run the registered cases")
    p.add_argument("--id", default=None, help="run a single case")

    p = sub.add_parser("scan", help="sampled sign pattern of an exponential polynomial")
    p.add_argument("--exppoly", required=True)
    p.add_argument("--x-max", type=float, default=None, dest="x_max")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--depth", type=int, default=12)

    return parser


def _cmd_analyze(args) -> int:
    d = parse_distribution(args.dist)
    if args.s_max < 1:
        raise ValueError("--s-max must be at least 1")
    rows = []
    for s in range(1, args.s_max + 1):
        ifr = ageing.classify_ifr(d, s)
        ifra = ageing.classify_ifra(d, s)
        rows.append({
            "s": s,
            "ifr": ifr.verdict,
            "ifra": ifra.verdict,
            "witnesses": [list(w) for w in ifr.turning_witnesses],
        })
    _emit({"command": "analyze", "dist": args.dist, "classes": rows}, args.json)
    return EXIT_OK


def _cmd_compare(args) -> int:
    X = parse_distribution(args.x)
    Y = parse_distribution(args.y)
    if args.s < 1:
        raise ValueError("--s must be at least 1 (iteration order)")
    t0 = time.perf_counter()
    if args.criterion == "dmrl":
        verdict = compare_dmrl(X, Y)
    elif args.criterion == "convexity":
        verdict = convexity_check(X, Y, args.s)
    else:
        grid = GridSpec.default(X, Y, negative_b=args.criterion in ("ifr", "hs", "hs1"),
                                na=args.a_grid, nb=args.b_grid)
        if args.criterion == "ifr":
            verdict = compare_ifr(X, Y, args.s, grid)
        elif args.criterion == "ifra":
            verdict = compare_ifra(X, Y, args.s, grid)
        elif args.criterion == "newcrit":
            verdict = newcrit(X, Y, args.s, grid)
        else:
            verdict = criterion_h(X, Y, args.s, grid, form=args.criterion)
    doc = verdict.to_dict()
    doc["runtime_ms"] = (time.perf_counter() - t0) * 1e3
    doc["x"] = args.x
    doc["y"] = args.y
    _emit(doc, args.json)
    if verdict.outcome == "supported":
        return EXIT_OK
    if verdict.outcome == "refuted":
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _cmd_roots(args) -> int:
    poly = parse_exppoly(args.exppoly)
    lo = 1e-9 if args.lo is None else args.lo
    hi = poly.dominance_horizon(lo) + 1.0 if args.hi is None else args.hi
    report = poly.isolate_roots(lo, hi)
    _emit({
        "command": "roots",
        "exppoly": args.exppoly,
        "window": [lo, hi],
        "bound": report.sign_change_bound,
        "roots": [list(r) for r in report.isolated_roots],
        "residual_uncertainty": report.residual_uncertainty,
    }, args.json)
    return EXIT_OK


def _cmd_casebook(args) -> int:
    if args.id is not None:
        results = [casebook.run_case(args.id)]
    else:
        results = list(casebook.run_all())
    doc = {
        "command": "casebook",
        "cases": [r.to_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "runtime_ms": sum(r.runtime_s for r in results) * 1e3,
    }
    _emit(doc, args.json)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.case_id:<24} {status}", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_REFUTED


def _cmd_scan(args) -> int:
    poly = parse_exppoly(args.exppoly)
    x_max = args.x_max or max(50.0, 20.0 / poly.rates[0])
    cfg = ScanConfig(x_max=x_max, initial_grid=max(64, args.grid),
                     max_refinement_depth=args.depth)
    rows: list | None = [] if (args.trace or args.csv) else None
    pattern = scan(poly.eval, cfg, trace=rows)
    _emit({
        "command": "scan",
        "exppoly": args.exppoly,
        "pattern": str(pattern),
        "witnesses": list(pattern.witnesses),
        "change_points": [list(c) for c in pattern.change_points],
        "confidence": pattern.confidence,
    }, args.json)
    if args.csv and rows is not None:
        _write_trace(rows, args.csv)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "roots":
            return _cmd_roots(args)
        if args.command == "casebook":
            return _cmd_casebook(args)
        if args.command == "scan":
            return _cmd_scan(args)
        raise ValueError(f"unknown command {args.command!r}")
    except UnknownCase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TailOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
