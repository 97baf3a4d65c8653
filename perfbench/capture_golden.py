"""Capture the golden outputs the benchmark checks every operation against.

    python3 perfbench/capture_golden.py

Run it only at a commit whose output is known good: it records the sha256 of
the full output of every argv the three workloads can draw, in
``golden/digests.json``, and one full ``verify all --format json`` copy, in
``golden/verify_all.json``, for diffing.  Cold argvs run as fresh
``python -m wres6.cli`` processes and the warm sweep runs in two warm workers,
so the digests are taken on the same paths the benchmark measures.
"""

from __future__ import annotations

import json
import platform
import sys

from common import (BENCH_DIR, EMPTY_LEDGER, VERIFY_ALL, Worker, child_env,
                    cold_cmd, cold_universe, digest, key, run_child,
                    status_of, sweep_universe)
from run import source_commit

HASHSEED = 0


def entry(rc: int, output: str) -> dict:
    return {"rc": rc, "status": status_of(output), "sha256": digest(output),
            "bytes": len(output.encode("utf-8"))}


def capture() -> dict:
    env = child_env(HASHSEED)
    outputs: dict = {}
    for argv in cold_universe():
        rc, out = run_child(cold_cmd(argv), env)
        outputs[key(argv)] = entry(rc, out)
        if argv == VERIFY_ALL:
            full_copy = out
    workers = []
    try:
        workers += [Worker(env), Worker(env)]
        pending = sweep_universe()
        while pending:
            batch, pending = pending[:len(workers)], pending[len(workers):]
            for w, argv in zip(workers, batch):
                w.send(argv)
            for w, argv in zip(workers, batch):
                reply = w.read()
                k = key(argv)
                got = entry(reply["rc"], reply["output"])
                if k in outputs and outputs[k] != got:
                    raise SystemExit(f"warm and cold outputs differ for {k}")
                outputs[k] = got
                print(f"{k}: {got['sha256'][:12]}", file=sys.stderr)
        for w in workers:
            w.close()
    finally:
        for w in workers:
            w.kill()
    for k, e in outputs.items():
        allowed = [(0, "pass"), (1, "fail")] if EMPTY_LEDGER in k else [(0, "pass")]
        if (e["rc"], e["status"]) not in allowed:
            raise SystemExit(f"{k}: exit {e['rc']} status {e['status']}")
    (BENCH_DIR / "golden" / "verify_all.json").write_text(full_copy, encoding="utf-8")
    return {"commit": source_commit(), "python": platform.python_version(),
            "outputs": dict(sorted(outputs.items()))}


if __name__ == "__main__":
    data = capture()
    path = BENCH_DIR / "golden" / "digests.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"{len(data['outputs'])} digests written to {path}", file=sys.stderr)
