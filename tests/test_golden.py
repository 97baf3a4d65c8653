"""The full JSON report must stay byte-identical to the committed golden copy.

``perfbench/golden/verify_all.json`` is the output of
``wres6 verify all --format json`` captured before any refactor or speedup;
a change that alters a single byte of the report fails here.
"""

from pathlib import Path

from wres6.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "verify_all.json"


def test_verify_all_json_matches_golden(capsys):
    code = main(["verify", "all", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == GOLDEN.read_bytes()
