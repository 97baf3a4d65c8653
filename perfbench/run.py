"""wres6 benchmark: time to verdict, checked byte for byte against golden copies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the checkout root.  Workloads (closed loop, one client, no
threads):

* ``verify-all-cold``: each operation is a fresh
  ``python -m wres6.cli verify all --format json``.
* ``boundary-cold``: each operation is a fresh
  ``verify boundary --case C --format json``; C cycles through every case in
  an order the seed shuffles, and a run measures whole cycles.
* ``spec-sweep-warm``: one long-lived worker with warm caches; each operation
  is an in-process ``wres6.cli.main(argv)`` over argv the seed draws
  (specialization, format, bundled or empty ledger); a run measures whole
  blocks of four, one operation per specialization kind.

Cold operations are timed against a frozen copy of the program, the
reference in ``reference/``: each runs together with the reference's same
operation, both pinned to one CPU, and its time is the reference's wall time
on the reference machine (``reference/nominal.json``) scaled by the ratio of
their CPU times.  That cancels the drift in speed of a shared host.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the counting run (cProfile call counts, twice, under two hash seeds)
and then traced and untraced operations in pairs, and reports per-layer
metrics.  Every operation is checked against ``golden/digests.json``.  The
last line of stdout is the result object; the line before it is the full run
report.  The only system measures are wall clock, and CPU time and
``ru_maxrss`` of the benchmark's own children; nothing system-wide is traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

from common import (BOUNDARY_CASES, IMPORT_CLI, OUT_DIR, REFERENCE, ROOT,
                    SPEC_KINDS, SRC, VERIFY_ALL, Worker, boundary_argv,
                    boundary_cycle, child_cmd, child_env, cold_cmd, key,
                    load_golden, load_nominal, pin_cpu, run_child, run_pinned,
                    score, sweep_argv, sweep_ops, timed_run, verdict_rows)

WORKLOADS = ("verify-all-cold", "boundary-cold", "spec-sweep-warm")
COLD_SETUPS = 15
WARM_SETUPS = 3
# The fixed operation the counting run profiles on each workload.
COUNT_ARGV = {
    "verify-all-cold": VERIFY_ALL,
    "boundary-cold": boundary_argv("all"),
    "spec-sweep-warm": sweep_argv("f=u^2,h=u^-1", "json", False),
}
MODULES = ("cli", "report", "scalars", "clifford", "symbols", "calculus",
           "interior", "tables", "boundary")
# Spans reported as mean inclusive seconds per traced operation.
SPAN_METRICS = (
    "cli.main", "cli.parse_specialization", "cli.load_ledger",
    "cli.emit", "report.build_report", "report.to_json", "report.to_text",
    "scalars.map_func_atoms", "scalars.derive_x", "scalars.group_for_display",
    "clifford.mul", "symbols.compose", "symbols.apply_context.interior",
    "symbols.apply_context.boundary", "calculus.build_q_symbols",
    "calculus.invert_symbol.interior", "calculus.invert_symbol.boundary",
    "calculus.route_direct", "calculus.route_reduced",
    "calculus.qinv_square_sigma6", "interior.integrate_trace.sigma6",
    "interior.integrate_trace.terms", "interior.term_table",
    "interior.theorem_check_interior", "tables.printed_expansion_line",
    "tables.printed_term_value", "tables.printed_theorem_density",
    "tables.discrepancy_ledger", "boundary.boundary_parametrix",
    "boundary.phi_case_value.a.I", "boundary.phi_case_value.a.II",
    "boundary.phi_case_value.a.III", "boundary.phi_case_value.b",
    "boundary.phi_case_value.c", "boundary.phi_total",
)


# ---------------------------------------------------------------------------
# Run metadata


def source_commit() -> str:
    """The checkout's git commit, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wres6").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, hashseed: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "commit": source_commit(),
        "source_sha256": source_sha256(), "pythonhashseed": hashseed,
        "system_measures": "wall clock, and CPU time and ru_maxrss of the "
                           "benchmark's own processes only; nothing "
                           "system-wide is traced",
        "pinned_cpu": pin_cpu(),
    }


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(samples: list[float]):
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


def span_metrics(ops: list[list[dict]]) -> dict:
    """Mean per-op inclusive time of each span name and self time per module.

    A span nested in another of the same name adds no inclusive time.  Self
    time is a span's duration minus that of its direct children.  The import
    of ``wres6.cli`` is setup, paid once per process: it is reported as the
    mean per import and stays out of the module self times.
    """
    inclusive = dict.fromkeys(SPAN_METRICS, 0.0)
    self_time = dict.fromkeys(MODULES, 0.0)
    imports = []
    phi_calls = phi_distinct = 0
    for spans in ops:
        by_id = {s["id"]: s for s in spans}
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        for s in spans:
            dur = s["end"] - s["start"]
            if s["name"] == "cli.import":
                imports.append(dur)
                continue
            parent, nested = s["parent"], False
            while parent is not None and not nested:
                nested = by_id[parent]["name"] == s["name"]
                parent = by_id[parent]["parent"]
            if not nested and s["name"] in inclusive:
                inclusive[s["name"]] += dur
            module = s["name"].split(".", 1)[0]
            self_time[module] += dur - child_time.get(s["id"], 0.0)
        phi = [s["name"] for s in spans
               if s["name"].startswith("boundary.phi_case_value.")]
        phi_calls += len(phi)
        phi_distinct += len(set(phi))
    n = max(len(ops), 1)
    out = {"cli.import_s": statistics.fmean(imports) if imports else 0.0}
    out.update({f"{name}_s": total / n for name, total in inclusive.items()})
    out.update({f"{m}.self_s": total / n for m, total in self_time.items()})
    out["boundary.phi_case_value.useful_ratio"] = (
        phi_distinct / phi_calls if phi_calls else 0.0)
    out["trace.spans_per_op"] = sum(len(s) for s in ops) / n
    return out


# ---------------------------------------------------------------------------
# One benchmark run


class Run:
    def __init__(self, args, golden: dict):
        self.args = args
        self.golden = golden
        self.nominal = load_nominal()
        self.hashseed = args.seed % (2**32 - 1)
        self.env = child_env(self.hashseed)
        self.ref_env = child_env(self.hashseed, REFERENCE)
        self.cpu = pin_cpu()
        self.flip = False                 # which of a pair starts first
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: list[float] = []      # timed operations
        self.cpu_s: dict = {"program": [], "reference": []}
        self.peak_kb = 0
        self.rows = 0
        self.traced_walls: list[float] = []
        self.traced_ops: list[list[dict]] = []
        self.counts: list[dict] = []
        self.unrepeated: list[str] = []
        self.extra: dict = {}             # report-only metrics

    def check(self, argv, rc: int, output: str, reference=None) -> bool:
        """Score one operation; with ``reference``, its paired run too."""
        self.attempted += 1
        why = score(self.golden, argv, rc, output)
        if why is None and reference is not None:
            why = score(self.golden, argv, reference.rc, reference.output)
            why = why and f"reference: {why}"
        if why is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{key(argv)}: {why}")
        return why is None

    def timed(self, argv, rc: int, output: str, wall: float, reference=None) -> None:
        self.walls.append(wall)
        if self.check(argv, rc, output, reference):
            self.rows += verdict_rows(argv)

    def out_path(self, what: str):
        return OUT_DIR / f"{self.args.workload}-seed{self.args.seed}-{what}"

    # -- cold operations ---------------------------------------------------

    def paired(self, cmd: list[str], name: str):
        """Run ``cmd`` on the program and on the reference, together on one
        CPU; returns the program's time at the reference machine's speed and
        both exits.  Which of the two starts first alternates."""
        jobs = [(cmd, self.env), (cmd, self.ref_env)]
        self.flip = not self.flip
        exits = run_pinned(jobs[::-1] if self.flip else jobs, self.cpu)
        program, reference = exits[::-1] if self.flip else exits
        self.cpu_s["program"].append(program.cpu_s)
        self.cpu_s["reference"].append(reference.cpu_s)
        return self.nominal[name] * program.cpu_s / reference.cpu_s, program, reference

    def cold_op(self, argv) -> None:
        t, program, reference = self.paired(cold_cmd(argv), key(argv))
        self.peak_kb = max(self.peak_kb, program.maxrss_kb)
        self.timed(argv, program.rc, program.output, t, reference)

    def solo_op(self, argv) -> None:
        """An untraced cold operation alone, timed by wall clock."""
        rc, output, wall = timed_run(cold_cmd(argv), self.env)
        self.timed(argv, rc, output, wall)

    def cold_child_op(self, mode: str, argv, env: dict) -> dict:
        path = self.out_path(f"{mode}.json")
        start = time.perf_counter()
        rc, output = run_child(child_cmd(mode, path, argv), env)
        wall = time.perf_counter() - start
        self.check(argv, rc, output)
        report = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        report["wall_s"] = wall
        report["bytes"] = len(output.encode("utf-8"))
        return report

    def cold_setups(self) -> list[float]:
        cmd = [sys.executable, "-c", IMPORT_CLI]
        # Untimed first imports write the byte-code caches, which an installed
        # package already has; every timed setup then starts from them.
        run_child(cmd, self.env)
        run_child(cmd, self.ref_env)
        times = []
        for _ in range(COLD_SETUPS):
            t, program, reference = self.paired(cmd, IMPORT_CLI)
            if program.rc or reference.rc:
                raise RuntimeError(f"{IMPORT_CLI} failed with exit "
                                   f"{program.rc or reference.rc}")
            times.append(t)
        self.cpu_s = {"program": [], "reference": []}
        return times

    def cold_argvs(self):
        cycle = ([VERIFY_ALL] if self.args.workload == "verify-all-cold"
                 else boundary_cycle(self.args.seed))
        while True:
            yield from cycle

    def steps(self, start: float):
        """Yield once per step of a run that began at ``start``: at least
        once, then while another step as long as the last still fits in the
        run time."""
        while True:
            begun = time.perf_counter()
            yield
            now = time.perf_counter()
            if 2 * now - begun - start > self.args.seconds:
                return

    def measure(self, op, argvs, block: int) -> None:
        """Run whole blocks of ``block`` operations, so every run sees the
        same mix."""
        for _ in self.steps(time.perf_counter()):
            for _ in range(block):
                op(next(argvs))

    def cold_measure(self) -> dict:
        setups = self.cold_setups()
        block = 1 if self.args.workload == "verify-all-cold" else len(BOUNDARY_CASES)
        self.measure(self.cold_op, self.cold_argvs(), block)
        return self.end_to_end(setups, self.peak_kb)

    def cold_trace(self) -> dict:
        start = time.perf_counter()
        argv = COUNT_ARGV[self.args.workload]
        for h in (self.hashseed, self.hashseed + 1):
            report = self.cold_child_op("count", argv, child_env(h))
            self.counts.append({**report["counts"],
                                "report.json_bytes": report["bytes"]})
        argvs = self.cold_argvs()
        for _ in self.steps(start):
            argv = next(argvs)
            self.solo_op(argv)
            report = self.cold_child_op("trace", argv, self.env)
            self.traced_walls.append(report["wall_s"])
            self.traced_ops.append(report["spans"])
        return self.per_layer()

    # -- warm operations ---------------------------------------------------

    def warm_worker(self, env: dict) -> Worker:
        worker = Worker(env)
        warmup = worker.ready["warmup"]
        self.check(VERIFY_ALL, warmup["rc"], warmup["output"])
        return worker

    def warm_measure(self) -> dict:
        setups = []
        worker = None
        try:
            for i in range(WARM_SETUPS):
                start = time.perf_counter()
                worker = self.warm_worker(self.env)
                setups.append(time.perf_counter() - start)
                if i < WARM_SETUPS - 1:
                    worker.close()
            self.measure(lambda argv: self.warm_op(worker, argv),
                         sweep_ops(self.args.seed), len(SPEC_KINDS))
            peak_kb = worker.close()
        finally:
            if worker is not None:
                worker.kill()
        return self.end_to_end(setups, peak_kb)

    def warm_op(self, worker: Worker, argv) -> None:
        reply = worker.request(argv)
        self.timed(argv, reply["rc"], reply["output"], reply["wall_s"])

    def warm_count(self, worker: Worker) -> None:
        argv = COUNT_ARGV[self.args.workload]
        reply = worker.request(argv, "count")
        self.check(argv, reply["rc"], reply["output"])
        self.counts.append({**reply["counts"],
                            "report.json_bytes": len(reply["output"].encode("utf-8"))})

    def warm_trace(self) -> dict:
        workers = []
        try:
            start = time.perf_counter()
            workers.append(self.warm_worker(self.env))
            workers.append(self.warm_worker(child_env(self.hashseed + 1)))
            for w in workers:
                self.warm_count(w)
            workers.pop().close()
            worker = workers[0]
            ops = sweep_ops(self.args.seed)
            for _ in self.steps(start):
                argv = next(ops)
                self.warm_op(worker, argv)
                reply = worker.request(argv, "trace")
                self.check(argv, reply["rc"], reply["output"])
                self.traced_walls.append(reply["wall_s"])
                self.traced_ops.append(reply["spans"])
            worker.close()
        finally:
            for w in workers:
                w.kill()
        # The worker imported wres6.cli once, before its first operation.
        self.traced_ops[0].append(worker.ready["import_span"])
        return self.per_layer()

    # -- results -----------------------------------------------------------

    def end_to_end(self, setups: list[float], peak_kb: int) -> dict:
        n = len(self.walls)
        error_rate = self.failed / self.attempted
        self.extra["error_rate"] = (error_rate, "ratio", self.attempted)
        tail = tail_percentile(self.walls)
        if tail is not None:
            self.extra[f"verdict_s_p{tail[0]}"] = (tail[1], "s", n)
        for side, values in self.cpu_s.items():
            if values:  # raw CPU seconds of the paired runs, as measured
                self.extra[f"{side}_cpu_s"] = (statistics.median(values), "s", n)
        return {
            "verdict_s": (statistics.median(self.walls), "s", n),
            "verdicts_per_s": (self.rows / sum(self.walls), "1/s", n),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": (peak_kb / 1024, "MB", 1),
            "success_rate": (1 - error_rate, "ratio", self.attempted),
        }

    def per_layer(self) -> dict:
        n = len(self.traced_ops)
        values = span_metrics(self.traced_ops)
        values["trace.overhead_ratio"] = (
            statistics.median(self.traced_walls) / statistics.median(self.walls) - 1)
        metrics = {k: (v, unit_of(k), n) for k, v in values.items()}
        first = self.counts[0]
        for name, value in first.items():
            metrics[name] = (value, unit_of(name), len(self.counts))
        self.unrepeated = sorted(k for k in first
                                 if any(c.get(k) != first[k] for c in self.counts))
        metrics["counts.repeatable"] = (0 if self.unrepeated else 1, "bool",
                                        len(self.counts))
        self.write_trace()
        return metrics

    def write_trace(self) -> None:
        with open(self.out_path("trace.jsonl"), "w", encoding="utf-8") as fh:
            for op, spans in enumerate(self.traced_ops):
                for s in spans:
                    fh.write(json.dumps({**s, "op": op}) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wres6" / "cli.py").is_file():
        print(f"error: no wres6 sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(args, load_golden())
    cold = args.workload != "spec-sweep-warm"
    if args.trace:
        metrics = run.cold_trace() if cold else run.warm_trace()
    else:
        metrics = run.cold_measure() if cold else run.warm_measure()
    report = {"meta": metadata(args, run.hashseed),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in {**metrics, **run.extra}.items()},
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures,
              "counts_not_repeated": run.unrepeated}
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
