"""Reports must stay byte-identical to the committed golden copies.

``perfbench/golden/verify_all.json`` is the output of
``wres6 verify all --format json`` captured before any refactor or speedup;
``perfbench/golden/digests.json`` holds the sha256 and exit status of every
argv the benchmark draws, captured at the same commit.  A change that alters
a single byte of one of these reports fails here.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from wres6.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "verify_all.json"
DIGESTS = ROOT / "perfbench" / "golden" / "digests.json"


def test_verify_all_json_matches_golden(capsys):
    code = main(["verify", "all", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("argv", [
    "verify boundary --case all --format json",
    "verify all --format json --specialize fh=1",
    "verify all --format json --specialize f=1,h=1",
    "verify all --format json --specialize f=u^2,h=u^-2",
    "verify all --format text --specialize f=u^-1,h=u^2 "
    "--ledger perfbench/data/empty_ledger.json",
    "verify all --format text",
    "verify all --format text --specialize fh=1 "
    "--ledger perfbench/data/empty_ledger.json",
])
def test_report_matches_golden_digest(argv, capsys, monkeypatch):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))["outputs"][argv]
    monkeypatch.chdir(ROOT)  # the ledger path is relative to the repo root
    code = main(shlex.split(argv))
    out = capsys.readouterr().out
    assert code == want["rc"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]
