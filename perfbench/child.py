"""Child side of the wres6 benchmark: traced, counted and warm operations.

Untraced cold operations run the real ``python -m wres6.cli``; this script
serves every other kind of operation, so that tracing and counting live in
the benchmark's files and never in ``src/wres6``.

    child.py once --trace --report PATH -- ARGV...   one traced cold operation
    child.py once --count --report PATH -- ARGV...   one cProfile-counted one
    child.py serve                                   warm worker, JSON lines

In ``once`` mode the program's output goes to stdout unchanged and the spans
or counts go to PATH as JSON.  In ``serve`` mode the worker imports
``wres6.cli``, runs the untimed warm-up ``verify all --format json`` that fills
the caches, and then answers one JSON line per request on stdin:
``{"argv": [...], "mode": "plain"|"trace"|"count"}`` or ``{"quit": true}``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import importlib
import io
import json
import resource
import sys
import time

WARMUP_ARGV = ["verify", "all", "--format", "json"]


# ---------------------------------------------------------------------------
# Spans around the public calls of each wres6 module


def _by_context(prefix):
    def name(tracer, *args, **kwargs):
        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        return f"{prefix}.{'boundary' if ctx.is_boundary else 'interior'}"
    return name


def _integrate_trace_name(tracer, *args, **kwargs):
    # The term table integrates the 21 printed lines; every other call
    # integrates sigma_-6(Q^-2) for the density.
    inside = tracer.active("interior.term_table")
    return "interior.integrate_trace." + ("terms" if inside else "sigma6")


def _phi_case_name(tracer, *args, **kwargs):
    case = args[0] if args else kwargs["case"]
    return f"boundary.phi_case_value.{case}"


# (module, attribute, span name or a function of the call giving it).  A
# dotted attribute is a method, patched on its class.
SPAN_TARGETS = (
    ("wres6.cli", "main", "cli.main"),
    ("wres6.cli", "parse_specialization", "cli.parse_specialization"),
    ("wres6.cli", "load_ledger", "cli.load_ledger"),
    ("wres6.cli", "_emit", "cli.emit"),
    ("wres6.report", "build_report", "report.build_report"),
    ("wres6.report", "to_json", "report.to_json"),
    ("wres6.report", "to_text", "report.to_text"),
    ("wres6.scalars", "ScalarExpr.map_func_atoms", "scalars.map_func_atoms"),
    ("wres6.scalars", "ScalarExpr.derive_x", "scalars.derive_x"),
    ("wres6.scalars", "group_for_display", "scalars.group_for_display"),
    ("wres6.clifford", "CliffordElement.__mul__", "clifford.mul"),
    ("wres6.symbols", "compose", "symbols.compose"),
    ("wres6.symbols", "apply_context", _by_context("symbols.apply_context")),
    ("wres6.calculus", "build_q_symbols", "calculus.build_q_symbols"),
    ("wres6.calculus", "invert_symbol", _by_context("calculus.invert_symbol")),
    ("wres6.calculus", "_route_direct", "calculus.route_direct"),
    ("wres6.calculus", "_route_reduced", "calculus.route_reduced"),
    ("wres6.calculus", "qinv_square_sigma6", "calculus.qinv_square_sigma6"),
    ("wres6.interior", "integrate_trace", _integrate_trace_name),
    ("wres6.interior", "term_table", "interior.term_table"),
    ("wres6.interior", "theorem_check_interior",
     "interior.theorem_check_interior"),
    ("wres6.tables", "printed_expansion_line", "tables.printed_expansion_line"),
    ("wres6.tables", "printed_term_value", "tables.printed_term_value"),
    ("wres6.tables", "printed_theorem_density",
     "tables.printed_theorem_density"),
    ("wres6.tables", "discrepancy_ledger", "tables.discrepancy_ledger"),
    ("wres6.boundary", "boundary_parametrix", "boundary.boundary_parametrix"),
    ("wres6.boundary", "phi_case_value", _phi_case_name),
    ("wres6.boundary", "phi_total", "boundary.phi_total"),
)


class Tracer:
    """Records spans in memory while installed; ``spans`` is the record list.

    A span is ``{"id", "name", "parent", "start", "end"}`` with times from
    ``time.perf_counter`` and ``parent`` the id of the enclosing span.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def active(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self._stack)

    def _wrap(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(tracer, *args, **kwargs)
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def install(self) -> None:
        for modname, attr, namer in SPAN_TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(original, namer))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, namer)
            # Modules that imported the function by name hold their own
            # reference; patch every alias so internal calls are seen too.
            for mod in [m for n, m in sys.modules.items()
                        if n == "wres6" or n.startswith("wres6.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Exact call counts (cProfile) and output sizes


# metric name -> (file name suffix, qualified function name)
COUNTED = {
    "scalars.fraction_new_calls": ("fractions.py", "Fraction.__new__"),
    "scalars.gaussrat_init_calls": ("scalars.py", "GaussRat.__init__"),
    "scalars.gaussrat_mul_calls": ("scalars.py", "GaussRat.__mul__"),
    "scalars.mono_mul_calls": ("scalars.py", "_mono_mul"),
    "scalars.scalarexpr_mul_calls": ("scalars.py", "ScalarExpr.__mul__"),
    "scalars.scalarexpr_add_calls": ("scalars.py", "ScalarExpr.__add__"),
    "scalars.derive_x_calls": ("scalars.py", "ScalarExpr.derive_x"),
    "clifford.mul_calls": ("clifford.py", "CliffordElement.__mul__"),
    "symbols.compose_calls": ("symbols.py", "compose"),
    "boundary.phi_case_value_calls": ("boundary.py", "phi_case_value"),
    "tables.printed_term_value_calls": ("tables.py", "printed_term_value"),
}


def profile_counts(profile: cProfile.Profile) -> dict:
    counts = dict.fromkeys(COUNTED, 0)
    wanted = {v: k for k, v in COUNTED.items()}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        qualname = getattr(code, "co_qualname", code.co_name)
        for (suffix, name), metric in wanted.items():
            if qualname == name and code.co_filename.endswith(suffix):
                counts[metric] += entry.callcount
    return counts


def _symbol_size(sym) -> int:
    """Number of (order, xi-monomial, Clifford word, scalar monomial) terms."""
    return sum(len(coeff.terms)
               for terms in sym.orders.values()
               for el in terms.values()
               for coeff in el.terms.values())


def output_sizes() -> dict:
    """Sizes of the interior symbols, when the operation computed them."""
    from wres6 import calculus

    if not calculus.qinv_square_sigma6.cache_info().currsize:
        return {"calculus.sigma6_terms": 0, "calculus.b4_terms": 0}
    return {"calculus.sigma6_terms": _symbol_size(calculus.qinv_square_sigma6()),
            "calculus.b4_terms": _symbol_size(calculus.interior_parametrix().b4)}


# ---------------------------------------------------------------------------
# Operations


def run_captured(cli, argv) -> tuple[int, str, float]:
    """Call ``cli.main(argv)`` with stdout captured; time it to its return."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        rc = cli.main(list(argv))
        wall = time.perf_counter() - start
    return rc, buf.getvalue(), wall


@contextlib.contextmanager
def instrumented(mode: str, extra: dict):
    """Trace (``"trace"``) or count (``"count"``) what runs inside the block;
    the spans or counts are stored in ``extra``.  ``"plain"`` adds nothing."""
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
        extra["spans"] = tracer.spans
    elif mode == "count":
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
        extra["counts"] = {**profile_counts(profile), **output_sizes()}
    else:
        yield


def run_op(cli, argv, mode: str) -> dict:
    """One in-process operation; returns its outcome and what ``mode`` adds."""
    extra: dict = {}
    with instrumented(mode, extra):
        rc, out, wall = run_captured(cli, argv)
    return {"rc": rc, "output": out, "wall_s": wall, **extra}


def import_cli():
    """Import ``wres6.cli``; returns the module and a span for the import."""
    start = time.perf_counter()
    import wres6.cli as cli
    return cli, {"id": -1, "name": "cli.import", "parent": None,
                 "start": start, "end": time.perf_counter()}


def serve() -> int:
    proto = sys.stdout
    cli, import_span = import_cli()
    warmup = run_op(cli, WARMUP_ARGV, "plain")
    proto.write(json.dumps({"ready": True, "import_span": import_span,
                            "warmup": warmup}) + "\n")
    proto.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        reply = run_op(cli, request["argv"], request.get("mode", "plain"))
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    proto.write(json.dumps({"maxrss_kb": usage.ru_maxrss}) + "\n")
    proto.flush()
    return 0


def once(mode: str, report_path: str, argv: list[str]) -> int:
    cli, import_span = import_cli()
    report: dict = {}
    with instrumented(mode, report):
        rc = cli.main(argv)
    if mode == "trace":
        report["spans"].append(import_span)
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("serve")
    one = sub.add_parser("once")
    kind = one.add_mutually_exclusive_group(required=True)
    kind.add_argument("--trace", action="store_const", const="trace", dest="mode")
    kind.add_argument("--count", action="store_const", const="count", dest="mode")
    one.add_argument("--report", required=True)
    one.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "serve":
        return serve()
    program_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return once(args.mode, args.report, program_argv)


if __name__ == "__main__":
    raise SystemExit(main())
