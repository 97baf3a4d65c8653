"""Workloads, golden checks and process helpers shared by the benchmark files.

Every path here is relative to the checkout root, which is the parent of this
directory; child processes run with that root as their working directory and
``src`` on ``PYTHONPATH``, so the program under test is always the checkout's.
The reference is a frozen copy of the program, under ``reference/``, that
timed operations run next to as a measure of the machine's speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
GOLDEN_DIGESTS = BENCH_DIR / "golden" / "digests.json"
OUT_DIR = BENCH_DIR / "out"
# The frozen program every timed operation is compared with, and its wall
# time per operation on the reference machine.
REFERENCE = BENCH_DIR / "reference"
NOMINAL = REFERENCE / "nominal.json"
IMPORT_CLI = "import wres6.cli"
# Relative to ROOT: it appears in argv, and so in the golden keys.
EMPTY_LEDGER = "perfbench/data/empty_ledger.json"

# ---------------------------------------------------------------------------
# Argv generators.  The program sees only these argv lists.

VERIFY_ALL = ("verify", "all", "--format", "json")
BOUNDARY_CASES = ("all", "a1", "a2", "a3", "b", "c")
SPEC_KINDS = ("none", "f=1,h=1", "fh=1", "power")
POWERS = range(-2, 3)
FORMATS = ("json", "text")


def boundary_argv(case: str) -> tuple:
    return ("verify", "boundary", "--case", case, "--format", "json")


def boundary_cycle(seed: int) -> list[tuple]:
    """One cycle through every case, in an order the seed shuffles."""
    order = list(BOUNDARY_CASES)
    random.Random(seed).shuffle(order)
    return [boundary_argv(c) for c in order]


def sweep_argv(spec: str | None, fmt: str, empty_ledger: bool) -> tuple:
    argv = ["verify", "all", "--format", fmt]
    if spec is not None:
        argv += ["--specialize", spec]
    if empty_ledger:
        argv += ["--ledger", EMPTY_LEDGER]
    return tuple(argv)


def sweep_ops(seed: int):
    """Endless warm-sweep argv stream drawn from the seed.

    Ops come in blocks of four, one per specialization kind in a shuffled
    order, so every run sees the kinds in the same proportion; P, Q, the
    format and the ledger are drawn per op.
    """
    rng = random.Random(seed)
    while True:
        kinds = list(SPEC_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "none":
                spec = None
            elif kind == "power":
                spec = f"f=u^{rng.choice(POWERS)},h=u^{rng.choice(POWERS)}"
            else:
                spec = kind
            yield sweep_argv(spec, rng.choice(FORMATS), rng.random() < 0.5)


def sweep_universe() -> list[tuple]:
    specs = [None, "f=1,h=1", "fh=1"] + [
        f"f=u^{p},h=u^{q}" for p in POWERS for q in POWERS]
    return [sweep_argv(s, f, e) for s in specs for f in FORMATS
            for e in (False, True)]


def cold_universe() -> list[tuple]:
    return [VERIFY_ALL] + [boundary_argv(c) for c in BOUNDARY_CASES]


# ---------------------------------------------------------------------------
# Expected results


def key(argv) -> str:
    return " ".join(argv)


def verdict_rows(argv) -> int:
    """Verdict rows one successful operation delivers."""
    if argv[1] == "all":
        return 28  # 21 terms, the density, 5 cases and the total
    return 6 if argv[argv.index("--case") + 1] == "all" else 1


def status_of(output: str) -> str | None:
    if output.startswith("{"):
        try:
            return json.loads(output).get("status")
        except json.JSONDecodeError:
            return None
    for line in reversed(output.splitlines()):
        if line.startswith("status: "):
            return line[len("status: "):]
    return None


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def load_golden(path: Path = GOLDEN_DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def score(golden: dict, argv, rc: int, output: str) -> str | None:
    """None when the operation succeeded, else why it failed.

    The exit status and ``status`` must be those of the golden run: 0 and
    ``pass``, or 1 and ``fail`` where an empty ledger leaves a difference
    unledgered.
    """
    expected = golden.get(key(argv))
    if expected is None:
        return "no golden digest for this argv"
    if rc != expected["rc"]:
        return f"exit {rc}, expected {expected['rc']}"
    status = status_of(output)
    if status != expected["status"]:
        return f"status {status!r}, expected {expected['status']!r}"
    if digest(output) != expected["sha256"]:
        return "output differs from the golden copy"
    return None


# ---------------------------------------------------------------------------
# Processes


def child_env(hashseed: int, src: Path = SRC) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_child(cmd: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          check=False)
    return proc.returncode, proc.stdout.decode("utf-8")


class Exit(NamedTuple):
    rc: int
    output: str
    cpu_s: float
    maxrss_kb: int


def run_pinned(jobs: list[tuple[list[str], dict]], cpu: int) -> list[Exit]:
    """Run the ``(cmd, env)`` jobs at the same time, all pinned to ``cpu``.

    The jobs share that CPU's time slices, a few milliseconds each, so each
    one's CPU time is taken at the same machine speed as the others', however
    that speed drifts.  Waits for every job, and kills the rest on an error.
    """
    procs, files = [], []
    try:
        for cmd, env in jobs:
            files.append(tempfile.TemporaryFile(dir=OUT_DIR))
            procs.append(subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=files[-1],
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu})))
        exits = []
        for proc, fh in zip(procs, files):
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            exits.append(Exit(proc.returncode, fh.read().decode("utf-8"),
                              usage.ru_utime + usage.ru_stime, usage.ru_maxrss))
        return exits
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        for fh in files:
            fh.close()


def pin_cpu() -> int:
    """The CPU that paired operations run on: the last one this process may use."""
    return max(os.sched_getaffinity(0))


def load_nominal(path: Path = NOMINAL) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seconds"]


def timed_run(cmd: list[str], env: dict) -> tuple[int, str, float]:
    start = time.perf_counter()
    rc, output = run_child(cmd, env)
    return rc, output, time.perf_counter() - start


def cold_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "wres6.cli", *argv]


def child_cmd(mode: str, report: Path, argv) -> list[str]:
    return [sys.executable, str(CHILD), "once", f"--{mode}",
            "--report", str(report), "--", *argv]


class Worker:
    """A warm ``child.py serve`` process; ``ready`` holds its first message."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "serve"], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            encoding="utf-8")
        self.ready = self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"warm worker exited with {self.proc.returncode}")
        return json.loads(line)

    def send(self, argv, mode: str = "plain") -> None:
        self.proc.stdin.write(json.dumps({"argv": list(argv), "mode": mode}) + "\n")
        self.proc.stdin.flush()

    def request(self, argv, mode: str = "plain") -> dict:
        self.send(argv, mode)
        return self.read()

    def close(self) -> int:
        """Stop the worker; returns its peak RSS in KiB."""
        self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
        self.proc.stdin.flush()
        maxrss = self.read()["maxrss_kb"]
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return maxrss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
