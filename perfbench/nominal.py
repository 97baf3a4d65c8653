"""Measure the reference's wall time per cold operation.

    python3 perfbench/nominal.py [--runs N]

The benchmark reports a cold operation at the reference machine's speed: the
program's CPU time over the frozen reference's, both run together on one CPU,
times the reference's own wall time for that operation, which this script
measures and writes to ``reference/nominal.json``.  Those times only set the
scale of the figures, not their spread; run it once, on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from common import (IMPORT_CLI, NOMINAL, REFERENCE, child_env, cold_cmd,
                    cold_universe, key, timed_run)


def measure(runs: int) -> dict:
    env = child_env(0, REFERENCE)
    ops = {IMPORT_CLI: [sys.executable, "-c", IMPORT_CLI]}
    ops.update({key(argv): cold_cmd(argv) for argv in cold_universe()})
    walls: dict = {name: [] for name in ops}
    timed_run(ops[IMPORT_CLI], env)  # writes the byte-code cache
    for _ in range(runs):  # round robin, so slow drift hits every op alike
        for name, cmd in ops.items():
            rc, _, wall = timed_run(cmd, env)
            if rc != 0:
                raise SystemExit(f"{name}: exit {rc}")
            walls[name].append(wall)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "runs": runs,
            "seconds": {name: statistics.median(w) for name, w in walls.items()}}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="nominal.py", description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=7)
    data = measure(parser.parse_args().runs)
    NOMINAL.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(data, indent=1))
