"""Command-line driver.

Commands:
    wres6 verify interior [--specialize S] [--format text|json]
                          [--ledger PATH] [--out PATH]
    wres6 verify boundary [--case a1|a2|a3|b|c|all] [--specialize S]
                          [--format text|json] [--ledger PATH] [--out PATH]
    wres6 dump symbols --operator {D|D2|Q|Qinv|Qinv2} [--order K]
                       [--context interior|boundary]
    wres6 dump term-table [--format text|json]

Exit status: 0 when every comparison is a match or a ledgered diff, 1 on
any diff the ledger does not excuse, 2 on usage errors (including malformed
ledger files, unsupported specializations, --case outside verify boundary,
an operator not available in the requested context, and an --out path
that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import report as report_mod
from .scalars import ScalarExpr, f_pow, u_pow

USAGE_ERROR = 2
# the largest --specialize exponent, in digits, whose report still prints:
# its integers grow to about twice this length, and CPython refuses to turn
# an int of more than 4,300 digits into a string
MAX_EXPONENT_DIGITS = 2000


# --case name -> boundary case
CASE_NAMES = {"a1": "a.I", "a2": "a.II", "a3": "a.III", "b": "b", "c": "c"}


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Specializations


def parse_specialization(text: str) -> dict:
    """Parse a --specialize value into the images {function: ScalarExpr}
    that ``ScalarExpr.map_func_atoms`` substitutes."""
    spec = text.replace(" ", "")
    if spec == "f=1,h=1":
        return {"f": ScalarExpr.one(), "h": ScalarExpr.one()}
    if spec == "fh=1":
        return {"h": f_pow(-1)}
    if spec.startswith("f=u^") and ",h=u^" in spec:
        left, right = spec.split(",", 1)
        exps = (left[len("f=u^"):], right[len("h=u^"):])
        # int() alone would also take "1_0" and non-ASCII digits
        if not all(re.fullmatch(r"[+-]?[0-9]+", e) for e in exps):
            raise CliError(
                f"unsupported specialization {text!r}: exponents must be integers")
        if any(len(e.lstrip("+-")) > MAX_EXPONENT_DIGITS for e in exps):
            raise CliError(f"unsupported specialization {text!r}: exponents "
                           f"have at most {MAX_EXPONENT_DIGITS} digits")
        p, q = map(int, exps)
        return {"f": u_pow(p), "h": u_pow(q)}
    raise CliError(f"unsupported specialization {text!r}")


# ---------------------------------------------------------------------------
# Ledger loading


LEDGER_FIELDS = {"location", "printed", "forced", "note"}


def load_ledger(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8 or JSON; RecursionError: nesting too deep
        raise CliError(f"malformed ledger file {path}: {exc}")
    if not isinstance(data, list):
        raise CliError(f"malformed ledger file {path}: expected a JSON list")
    locations = set()
    for entry in data:
        if not isinstance(entry, dict) or not LEDGER_FIELDS <= set(entry):
            raise CliError(
                f"malformed ledger file {path}: entries need fields "
                f"{sorted(LEDGER_FIELDS)}")
        if not all(isinstance(entry[k], str) for k in LEDGER_FIELDS):
            raise CliError(
                f"malformed ledger file {path}: fields "
                f"{sorted(LEDGER_FIELDS)} must be strings")
        if entry["location"] in locations:
            raise CliError(f"malformed ledger file {path}: duplicate location "
                           f"{entry['location']!r}")
        locations.add(entry["location"])
    return data


# ---------------------------------------------------------------------------
# Commands


def _write(out_path: str, text: str, mode: str = "w"):
    try:
        with open(out_path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}")


def _emit(text: str, out_path: str | None):
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def cmd_verify(args) -> int:
    if args.case is not None and args.target != "boundary":
        raise CliError("--case applies to verify boundary only")
    specialize = None
    spec_label = "none"
    if args.specialize:
        specialize = parse_specialization(args.specialize)
        spec_label = args.specialize.replace(" ", "")
    ledger = load_ledger(args.ledger) if args.ledger else None

    cases = None
    if args.case not in (None, "all"):
        cases = [CASE_NAMES[args.case]]
    rep = report_mod.build_report(
        mode=args.target,
        specialization=spec_label,
        cases=cases,
        specialize=specialize,
        ledger=ledger,
    )
    text = (report_mod.to_json(rep) if args.format == "json"
            else report_mod.to_text(rep))
    _emit(text, args.out)
    return 0 if rep["status"] == "pass" else 1


def cmd_dump_symbols(args) -> int:
    from .calculus import OPERATORS
    from .symbols import BOUNDARY, INTERIOR

    ctx = {"interior": INTERIOR, "boundary": BOUNDARY}.get(args.context)
    if args.operator == "Qinv2" and args.context == "boundary":
        raise CliError("Qinv2 is an interior-point computation")
    sym = OPERATORS[args.operator](ctx)
    if args.order is not None:
        sym = sym.order_part(args.order)
    _emit("\n".join(sym.dump_lines()) + "\n", args.out)
    return 0


def cmd_dump_term_table(args) -> int:
    from .interior import term_table

    rows = term_table()
    if args.format == "json":
        payload = [{"index": r["index"], "integrand": r["integrand"].dump_lines(),
                    "computed": str(r["computed"]), "paper": str(r["paper"]),
                    "verdict": r["verdict"]} for r in rows]
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = "\n".join(f"term {r['index']:2d}: verdict={r['verdict']}\n"
                         f"  computed: {r['computed']}\n"
                         f"  paper:    {r['paper']}" for r in rows)
    _emit(text + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .calculus import OPERATORS

    parser = argparse.ArgumentParser(
        prog="wres6",
        description=("Exact verifier for the noncommutative residue of the "
                     "squared rescaled Dirac operator on 6-manifolds"))
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification")
    verify.add_argument("target", choices=["interior", "boundary", "all"])
    verify.add_argument("--case", default=None,
                        choices=[*CASE_NAMES, "all"])
    verify.add_argument("--specialize", default=None,
                        help="f=1,h=1 | fh=1 | f=u^P,h=u^Q")
    verify.add_argument("--format", default="text", choices=["text", "json"])
    verify.add_argument("--ledger", default=None,
                        help="override the bundled discrepancy ledger (JSON)")
    verify.add_argument("--out", default=None, help="also write output here")
    verify.set_defaults(func=cmd_verify)

    dump = sub.add_parser("dump", help="dump internal objects")
    dsub = dump.add_subparsers(dest="what", required=True)

    dsym = dsub.add_parser("symbols")
    dsym.add_argument("--operator", required=True,
                      choices=OPERATORS)
    dsym.add_argument("--order", type=int, default=None)
    dsym.add_argument("--context", default=None,
                      choices=["interior", "boundary"])
    dsym.add_argument("--out", default=None)
    dsym.set_defaults(func=cmd_dump_symbols)

    dtab = dsub.add_parser("term-table")
    dtab.add_argument("--format", default="text", choices=["text", "json"])
    dtab.add_argument("--out", default=None)
    dtab.set_defaults(func=cmd_dump_term_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code is not None else USAGE_ERROR
    try:
        if args.out:
            _write(args.out, "", "a")  # reject an unwritable --out before any work
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
