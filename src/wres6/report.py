"""Verification reports: assembly, rendering, serialization.

A report is a plain dictionary with schema ``wres-report/1``; identical
invocations produce byte-identical serializations (canonical term ordering,
sorted JSON keys, no timestamps).  Overall status is "pass" exactly when
every verdict is "match" or "diff (ledgered)".
"""

from __future__ import annotations

import json

from .scalars import ScalarExpr, group_for_display

SCHEMA = "wres-report/1"

PASS_VERDICTS = ("match", "diff (ledgered)")


def interior_section(specialize=None, ledger=None) -> dict:
    from .interior import term_table, theorem_check_interior

    records = term_table(specialize=specialize, ledger=ledger)
    theorem = theorem_check_interior(specialize=specialize, ledger=ledger)
    return {
        "terms": [
            {
                "index": r.index,
                "integrand": r.integrand.dump_lines(),
                "computed": str(r.computed),
                "computed_grouped": group_for_display(r.computed),
                "paper": str(r.paper),
                "verdict": r.verdict,
                "ledger": r.ledger_key,
            }
            for r in records
        ],
        "theorem": {
            "computed": str(theorem.computed_density),
            "computed_grouped": group_for_display(theorem.computed_density),
            "paper": str(theorem.paper_density),
            "diff": str(theorem.diff),
            "diff_grouped": group_for_display(theorem.diff),
            "verdict": theorem.verdict,
            "ledger": theorem.ledger_key,
        },
    }


def boundary_section(cases=None, specialize=None, ledger=None) -> dict:
    from .boundary import CASE_DATA, phi_case
    from .tables import judge

    wanted = list(CASE_DATA) if cases is None else cases
    results = [phi_case(c, specialize=specialize, ledger=ledger) for c in wanted]
    out = {
        "cases": [
            {
                "case": r.case,
                "computed": str(r.value),
                "computed_grouped": group_for_display(r.value),
                "paper": str(r.paper),
                "verdict": r.verdict,
                "ledger": r.ledger_key,
            }
            for r in results
        ],
    }
    if cases is None:
        # specialization is a ring homomorphism, so the sum of the specialized
        # case values is the specialized total
        total = sum((r.value for r in results), ScalarExpr.zero())
        verdict = judge("boundary/total", total, ScalarExpr.zero(), None, ledger)[2]
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
