"""Reports must stay byte-identical to the committed golden copies.

``perfbench/golden/verify_all.json`` is the output of
``wres6 verify all --format json`` captured before any refactor or speedup;
``perfbench/golden/digests.json`` holds the sha256 and exit status of every
argv the benchmark draws, captured at the same commit.  A change that alters
a single byte of one of these reports fails here.

``DUMP_DIGESTS`` pins the ``dump`` outputs, the only ones that print the
odd-degree coefficients of a symbol (``i*Gam[6] + (-2*i)*sig[6]``); they
were captured before the symbols were stored in the real gauge.
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


# sha256 of every valid ``dump symbols`` and ``dump term-table`` argv; each
# exits 0 (``Qinv2 --context boundary`` is refused)
DUMP_DIGESTS = {
    "dump symbols --operator D":
        "342ad8f8f767861c4e4307c1f4a8ebe049be2fac674cadbdefcf03f02e846bd4",
    "dump symbols --operator D --context interior":
        "342ad8f8f767861c4e4307c1f4a8ebe049be2fac674cadbdefcf03f02e846bd4",
    "dump symbols --operator D --context boundary":
        "342ad8f8f767861c4e4307c1f4a8ebe049be2fac674cadbdefcf03f02e846bd4",
    "dump symbols --operator D2":
        "6e4ce7cf9562eeb62fd5ce59b7db3c519c8ca9abe1a5462b1cb90f79d590c1f3",
    "dump symbols --operator D2 --context interior":
        "6e4ce7cf9562eeb62fd5ce59b7db3c519c8ca9abe1a5462b1cb90f79d590c1f3",
    "dump symbols --operator D2 --context boundary":
        "6e4ce7cf9562eeb62fd5ce59b7db3c519c8ca9abe1a5462b1cb90f79d590c1f3",
    "dump symbols --operator Q":
        "fb2d5d9f5387b6e5e3828ef2b687bdcd8eeb5a7b6a93426b906d748703c5ca4b",
    "dump symbols --operator Q --context interior":
        "26b3302ed66eef985a91155dda9e8bfadf86ed144bad9d5561a0e53265958971",
    "dump symbols --operator Q --context boundary":
        "980ea07f39862c7a2deb6aab980d2b2c050e35222c899bc09b2f68df1158228a",
    "dump symbols --operator Qinv":
        "3e34c329e5891f3074a75198ceaf7c4c6f69c146b625697e92fc71df3f2f2a4e",
    "dump symbols --operator Qinv --context interior":
        "3e34c329e5891f3074a75198ceaf7c4c6f69c146b625697e92fc71df3f2f2a4e",
    "dump symbols --operator Qinv --context boundary":
        "4aba58b574473c85f699602d5969a03ed5454248c3b51cde95d25d1493373a1c",
    "dump symbols --operator Qinv2":
        "31b93f94f4af348d9ca57781f57b7e4ac02cc2880304054498f99123d6b2e0a6",
    "dump symbols --operator Qinv2 --context interior":
        "31b93f94f4af348d9ca57781f57b7e4ac02cc2880304054498f99123d6b2e0a6",
    "dump term-table --format text":
        "4c1f09814622122001f08c002a656cf14a8833d6242f49c1ebf4c9851aea4990",
    "dump term-table --format json":
        "72bf6979ffb4cb3c5154f5d9a2d6c87e4f20a58e350e377646be860926186985",
}


@pytest.mark.parametrize("argv", DUMP_DIGESTS)
def test_dump_matches_golden_digest(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DUMP_DIGESTS[argv]
