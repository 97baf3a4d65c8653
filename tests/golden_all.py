"""Check every benchmark argv against its golden digest, in one process.

    PYTHONHASHSEED=0 python tests/golden_all.py

Runs each distinct argv of ``perfbench.common.cold_universe()`` and
``sweep_universe()`` through ``wres6.cli.main`` in this process and scores
its exit status and output with ``perfbench.common.score`` against
``perfbench/golden/digests.json``.  Prints each mismatch, then
``checked N bad M``, and exits 1 if any argv is bad.  It needs only the
standard library, so it runs on interpreters that have no pytest; pytest
does not collect it, as its name has no ``test_`` prefix.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import (cold_universe, key, load_golden,  # noqa: E402
                              score, sweep_universe)
from wres6.cli import main  # noqa: E402


def check() -> tuple[int, int]:
    """(argv checked, argv that differ from the golden run)."""
    golden = load_golden()
    os.chdir(ROOT)  # the ledger argv name a path relative to the repo root
    checked = bad = 0
    for argv in dict.fromkeys(cold_universe() + sweep_universe()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(list(argv))
        why = score(golden, argv, rc, out.getvalue())
        checked += 1
        if why is not None:
            bad += 1
            print(f"{key(argv)}: {why}")
    return checked, bad


if __name__ == "__main__":
    n, m = check()
    print(f"checked {n} bad {m}")
    sys.exit(1 if m else 0)
