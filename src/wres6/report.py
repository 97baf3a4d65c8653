"""Verification reports: assembly, rendering, serialization.

A report is a plain dictionary with schema ``wres-report/1``; identical
invocations produce byte-identical serializations (canonical term ordering,
sorted JSON keys, no timestamps).  Every term, the density and every
boundary case is a verdict row of ``tables.judge``, written out by ``_row``
as "computed", "computed_grouped", "paper", "verdict" and "ledger"; a term
adds "index" and "integrand", the density "diff" and "diff_grouped", a case
"case".  Overall status is "pass" exactly when every verdict is "match" or
"diff (ledgered)".
"""

from __future__ import annotations

import json

from .scalars import ScalarExpr, group_for_display

SCHEMA = "wres-report/1"

PASS_VERDICTS = ("match", "diff (ledgered)")


def _row(row: dict) -> dict:
    """Write out a verdict row of ``tables.judge``: both sides as strings,
    the computed side also grouped for display."""
    return {
        "computed": str(row["computed"]),
        "computed_grouped": group_for_display(row["computed"]),
        "paper": str(row["paper"]),
        "verdict": row["verdict"],
        "ledger": row["ledger"],
    }


def interior_section(specialize=None, ledger=None) -> dict:
    from .interior import term_table, theorem_check_interior

    rows = term_table(specialize=specialize, ledger=ledger)
    theorem = theorem_check_interior(specialize=specialize, ledger=ledger)
    diff = theorem["computed"] - theorem["paper"]
    return {
        "terms": [{"index": r["index"], "integrand": r["integrand"].dump_lines(),
                   **_row(r)} for r in rows],
        "theorem": {**_row(theorem), "diff": str(diff),
                    "diff_grouped": group_for_display(diff)},
    }


def boundary_section(cases=None, specialize=None, ledger=None) -> dict:
    from .boundary import CASE_DATA, phi_case_value
    from .tables import judge, printed_boundary_value

    wanted = list(CASE_DATA) if cases is None else cases
    rows = [judge(f"boundary/case-{c}", phi_case_value(c),
                  printed_boundary_value(c), specialize, ledger) for c in wanted]
    out = {"cases": [{"case": c, **_row(r)} for c, r in zip(wanted, rows)]}
    if cases is None:
        # specialization is a ring homomorphism, so the sum of the specialized
        # case values is the specialized total
        total = sum((r["computed"] for r in rows), ScalarExpr.zero())
        verdict = judge("boundary/total", total, ScalarExpr.zero(), None,
                        ledger)["verdict"]
        out["total"] = {"computed": str(total), "expected": "0", "verdict": verdict}
    return out


def _all_verdicts(report: dict):
    if report.get("interior"):
        for r in report["interior"]["terms"]:
            yield r["verdict"]
        yield report["interior"]["theorem"]["verdict"]
    if report.get("boundary"):
        for r in report["boundary"]["cases"]:
            yield r["verdict"]
        if "total" in report["boundary"]:
            yield report["boundary"]["total"]["verdict"]


def build_report(mode: str, specialization: str = "none", cases=None,
                 specialize=None, ledger=None) -> dict:
    from . import tables

    if ledger is None:
        ledger = tables.discrepancy_ledger()
    report = {
        "schema": SCHEMA,
        "mode": mode,
        "specialization": specialization,
        "interior": None,
        "boundary": None,
        "ledger": ledger,
    }
    if mode in ("interior", "all"):
        report["interior"] = interior_section(specialize=specialize, ledger=ledger)
    if mode in ("boundary", "all"):
        report["boundary"] = boundary_section(cases=cases, specialize=specialize,
                                              ledger=ledger)
    report["status"] = ("pass" if all(v in PASS_VERDICTS
                                      for v in _all_verdicts(report)) else "fail")
    return report


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def to_text(report: dict) -> str:
    lines = [f"schema: {report['schema']}",
             f"mode: {report['mode']}",
             f"specialization: {report['specialization']}"]
    if report.get("interior"):
        lines.append("")
        lines.append("interior term table:")
        for r in report["interior"]["terms"]:
            lines.append(f"  term {r['index']:2d}: {r['verdict']}")
            if r["verdict"] != "match":
                lines.append(f"           computed: {r['computed_grouped']}")
                lines.append(f"           paper:    {r['paper']}")
        th = report["interior"]["theorem"]
        lines.append(f"  density: {th['verdict']}")
        lines.append(f"    computed: {th['computed_grouped']}")
        if th["verdict"] != "match":
            lines.append(f"    diff vs printed: {th['diff_grouped']}")
    if report.get("boundary"):
        lines.append("")
        lines.append("boundary cases:")
        for r in report["boundary"]["cases"]:
            lines.append(f"  case {r['case']:5s}: {r['verdict']}")
            lines.append(f"    computed: {r['computed_grouped']}")
            if r["verdict"] != "match":
                lines.append(f"    paper:    {r['paper']}")
        if "total" in report["boundary"]:
            t = report["boundary"]["total"]
            lines.append(f"  total: {t['computed']} (expected {t['expected']}) "
                         f"-> {t['verdict']}")
    lines.append("")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"
