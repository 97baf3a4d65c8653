import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wres6
from wres6 import report as report_mod
from wres6 import tables
from wres6.cli import CliError, main, parse_specialization
from wres6.scalars import ScalarExpr, f_pow, sc, u_pow

from oracles import dfunc


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_interior_passes(capsys):
    code, out = run_cli(["verify", "interior"], capsys)
    assert code == 0
    assert "status: pass" in out


def test_verify_boundary_passes(capsys):
    code, out = run_cli(["verify", "boundary"], capsys)
    assert code == 0
    assert "total: 0 (expected 0) -> match" in out


def test_verify_all_passes(capsys):
    code, out = run_cli(["verify", "all", "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["interior"] and rep["boundary"]


def _child_env(**extra):
    # the child must import the same wres6 as this process
    src = str(Path(wres6.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_reports_are_byte_identical(capsys):
    _, out1 = run_cli(["verify", "all", "--format", "json"], capsys)
    _, out2 = run_cli(["verify", "all", "--format", "json"], capsys)
    assert out1.encode() == out2.encode()
    # the bytes must not depend on the hash seed either, which sets the
    # iteration order of every set of atoms, words and monomials
    argv = "verify boundary --case all --format json"
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    digests = json.loads((golden / "digests.json").read_text(encoding="utf-8"))
    want = digests["outputs"][argv]["sha256"]
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "wres6.cli", *argv.split()],
                              capture_output=True, env=_child_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == want


def test_report_round_trip(capsys):
    _, out = run_cli(["verify", "interior", "--format", "json"], capsys)
    rep = json.loads(out)
    assert report_mod.to_json(rep) == out


def test_specialize_flat_case(capsys):
    code, out = run_cli(["verify", "interior", "--specialize", "f=1,h=1",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    th = rep["interior"]["theorem"]
    assert th["verdict"] == "match"
    assert th["computed"] == "-(4/3)*s*pi^3"


def test_specialize_flat_case_text_shows_density(capsys):
    code, out = run_cli(["verify", "interior", "--specialize", "f=1,h=1"], capsys)
    assert code == 0
    assert "status: pass" in out
    assert "-(4/3)*s*pi^3" in out


def test_specialize_constant_product(capsys):
    # h := f^-1 makes every ledgered interior diff vanish: clean pass
    code, out = run_cli(["verify", "interior", "--specialize", "fh=1",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(r["verdict"] == "match" for r in rep["interior"]["terms"])
    assert rep["interior"]["theorem"]["verdict"] == "match"


def test_specialize_powers_runs_end_to_end(capsys):
    code, out = run_cli(["verify", "boundary", "--specialize", "f=u^3,h=u^-2",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"


def test_specialize_rational_exponent_rejected(capsys, monkeypatch):
    # int() alone would accept the digit separator and the Arabic-Indic one
    for spec in ("f=u^-7/2,h=u^1", "f=u^1_0,h=u^1", "f=u^\u0661,h=u^1"):
        code = main(["verify", "interior", "--specialize", spec])
        assert code == 2
        assert "exponents must be integers" in capsys.readouterr().err
    # the report of a 2,000-digit exponent still prints ...
    code, out = run_cli(["verify", "interior", "--specialize",
                         "f=u^" + "9" * 2000 + ",h=u^1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"

    # ... and a longer one is refused before any work
    def fail(*args, **kwargs):
        raise AssertionError("build_report ran for an oversized exponent")

    monkeypatch.setattr(report_mod, "build_report", fail)
    for digits in (2001, 5000):   # 5,000: more than int() converts
        for spec in ("f=u^" + "9" * digits + ",h=u^1",
                     "f=u^1,h=u^-" + "9" * digits):
            code = main(["verify", "interior", "--specialize", spec])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                "error: unsupported specialization")


def test_specialize_unknown_text_rejected(capsys):
    code = main(["verify", "interior", "--specialize", "g=2"])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code = main(["verify", "interior", "--nonsense"])
    assert code == 2


def test_case_filter(capsys):
    code, out = run_cli(["verify", "boundary", "--case", "b",
                         "--format", "json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert [r["case"] for r in rep["boundary"]["cases"]] == ["b"]
    assert "total" not in rep["boundary"]


def test_case_names_pick_the_same_rows_as_all(capsys):
    code, out = run_cli(["verify", "boundary", "--case", "all",
                         "--format", "json"], capsys)
    assert code == 0
    every = {r["case"]: r for r in json.loads(out)["boundary"]["cases"]}
    names = {"a1": "a.I", "a2": "a.II", "a3": "a.III", "b": "b", "c": "c"}
    for name, case in names.items():
        code, out = run_cli(["verify", "boundary", "--case", name,
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["boundary"]["cases"] == [every[case]], name
    assert set(every) == set(names.values())


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(["verify", "boundary", "--case", "a1",
                       "--format", "json", "--out", str(target)], capsys)
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["schema"] == "wres-report/1"


def test_case_outside_verify_boundary_exits_2(capsys):
    for target in ("all", "interior"):
        assert main(["verify", target, "--case", "b"]) == 2
        assert "error: --case applies to verify boundary only" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["verify", "boundary", "--case", "a1", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_unwritable_out_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("build_report ran for an unwritable --out")

    monkeypatch.setattr(report_mod, "build_report", fail)
    target = tmp_path / "missing" / "x.json"
    assert main(["verify", "all", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")
    assert main(["verify", "all", "--out", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")


def test_dump_qinv2_at_boundary_exits_2(capsys):
    code = main(["dump", "symbols", "--operator", "Qinv2", "--context", "boundary"])
    assert code == 2
    assert "error: Qinv2 is an interior-point computation" in capsys.readouterr().err


@pytest.mark.parametrize("name, arg, section, rows, key", [
    ("printed_term_value", 8, "interior", "terms", "index"),
    ("printed_boundary_value", "b", "boundary", "cases", "case"),
])
def test_changed_printed_value_of_ledgered_row_is_a_diff(
        name, arg, section, rows, key, monkeypatch, capsys):
    # scaling the printed value by 5/4 (term 8: 4 -> 5) keeps the row in the
    # ledger, but computed - printed no longer equals its frozen difference
    printed = getattr(tables, name)
    monkeypatch.setattr(tables, name, lambda x: printed(x) * (
        sc(5, 4) if x == arg else sc(1)))
    code, out = run_cli(["verify", "all", "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    verdicts = {r[key]: r["verdict"] for r in rep[section][rows]}
    assert verdicts[arg] == "diff"
    assert rep["status"] == "fail"


def test_every_ledgered_verdict_row_has_a_frozen_difference():
    locations = {e["location"] for e in tables.discrepancy_ledger()}
    rows = {loc for loc in locations
            if loc.startswith(("interior/term-", "boundary/case-"))
            or loc == "interior/theorem-density"}
    assert set(tables.FROZEN_DIFFERENCES) <= locations
    assert rows == set(tables.FROZEN_DIFFERENCES)


def test_malformed_ledger_exits_2(tmp_path, capsys):
    bad = tmp_path / "ledger.json"
    bad.write_text("{not json")
    code = main(["verify", "interior", "--ledger", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({"location": "x"}))
    code = main(["verify", "interior", "--ledger", str(bad)])
    assert code == 2
    entry = {"location": "interior/term-08", "printed": "", "forced": "",
             "note": ""}
    bad.write_text(json.dumps([dict(entry, location=["interior/term-08"])]))
    capsys.readouterr()
    code = main(["verify", "interior", "--ledger", str(bad)])
    assert code == 2
    assert "must be strings" in capsys.readouterr().err
    bad.write_text(json.dumps([entry, dict(entry, note="again")]))
    code = main(["verify", "interior", "--ledger", str(bad)])
    assert code == 2
    assert "duplicate location 'interior/term-08'" in capsys.readouterr().err
    # not UTF-8, an integer with more digits than int() converts, and
    # nesting deeper than the JSON decoder recurses
    for raw in (b"[\xff]", b"[" + b"9" * 5000 + b"]", b"[" * 100000):
        bad.write_bytes(raw)
        code = main(["verify", "interior", "--ledger", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed ledger file")


def test_empty_ledger_turns_diffs_into_failures(tmp_path, capsys):
    empty = tmp_path / "ledger.json"
    empty.write_text("[]")
    code, out = run_cli(["verify", "interior", "--ledger", str(empty),
                         "--format", "json"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    verdicts = {r["index"]: r["verdict"] for r in rep["interior"]["terms"]}
    assert verdicts[8] == "diff"


def test_dump_symbols_qinv(capsys):
    code, out = run_cli(["dump", "symbols", "--operator", "Qinv",
                         "--order", "-2"], capsys)
    assert code == 0
    assert out.strip() == "order=-2 | f^-2*h^-2 | xi=|xi|^-2 | cliff=1"


def test_dump_symbols_q_symbolic_atoms(capsys):
    code, out = run_cli(["dump", "symbols", "--operator", "Q",
                         "--order", "1"], capsys)
    assert code == 0
    assert "Gam[" in out and "sig[" in out and "cliff=c[" in out


def test_dump_symbols_boundary_context(capsys):
    code, out = run_cli(["dump", "symbols", "--operator", "Qinv",
                         "--order", "-3", "--context", "boundary"], capsys)
    assert code == 0
    assert "wp" in out


def test_dump_term_table_json(capsys):
    code, out = run_cli(["dump", "term-table", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 21
    assert {r["verdict"] for r in rows} == {"match", "diff (ledgered)"}


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "wres6.cli",
                           "verify", "boundary", "--case", "a1"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0


# First- and second-order chain rules of each specialization, written out by
# hand: an oracle independent of ScalarExpr.derive_x.
def _oracle_const_one(atom):
    return ScalarExpr.one() if not atom[1] else ScalarExpr.zero()


def _oracle_fh1(atom):
    base, beta = atom[0], atom[1]
    if base != "h":
        return ScalarExpr.atom(atom)
    if not beta:
        return f_pow(-1)
    if len(beta) == 1:
        return f_pow(-2) * sc(-1) * dfunc("f", *beta)
    j, l = beta
    return (f_pow(-3) * sc(2) * dfunc("f", j) * dfunc("f", l)
            - f_pow(-2) * dfunc("f", j, l))


def _oracle_power(base: str, p: int):
    def run(atom):
        if atom[0] != base:
            return ScalarExpr.atom(atom)
        beta = atom[1]
        if not beta:
            return u_pow(p)
        if len(beta) == 1:
            return sc(p) * u_pow(p - 1) * dfunc("u", *beta)
        j, l = beta
        return (sc(p * (p - 1)) * u_pow(p - 2) * dfunc("u", j) * dfunc("u", l)
                + sc(p) * u_pow(p - 1) * dfunc("u", j, l))
    return run


def _oracle(spec: str):
    if spec == "f=1,h=1":
        return _oracle_const_one
    if spec == "fh=1":
        return _oracle_fh1
    p, q = (int(e) for e in spec.replace("f=u^", "").split(",h=u^"))
    return lambda atom: (_oracle_power("f", p) if atom[0] == "f"
                         else _oracle_power("h", q))(atom)


FUNC_ATOMS = [(base, beta) for base in ("f", "h")
              for beta in [()] + [(j,) for j in range(1, 7)]
              + [(j, l) for j in range(1, 7) for l in range(j, 7)]]


@pytest.mark.parametrize("spec", ["f=1,h=1", "fh=1"] + [
    f"f=u^{p},h=u^{q}" for p in (-3, 0, 1, 2) for q in (-2, -1, 0, 1, 3)])
def test_specialization_matches_hand_chain_rule(spec):
    images, want = parse_specialization(spec), _oracle(spec)
    for atom in FUNC_ATOMS:
        assert ScalarExpr.atom(atom).map_func_atoms(images) == want(atom), atom


def test_parse_specialization_function_values():
    images = parse_specialization("fh=1")
    assert images == {"h": f_pow(-1)}
    assert f_pow(2).map_func_atoms(images) == f_pow(2)
    with pytest.raises(CliError):
        parse_specialization("f=u^0.5,h=u^1")
