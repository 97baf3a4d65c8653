"""Dimension 4 as an oracle: ``scalars.N`` is the only home of the dimension.

The package is copied with ``N = 6`` set to 4 and no other edit, and the
copy runs in a subprocess.  There the parametrix identities must still hold,
the spinor trace is 2^(4/2) = 4, and the unit-sphere integral of tr b_-4 is
the Kastler-Kalau-Walze density (Kastler, Commun. Math. Phys. 166, 1995;
Kalau and Walze, J. Geom. Phys. 16, 1995): area * tr(E + s/6) with E = -s/4,
taken through the conformal change of the Laplace-type Q, whose metric is
g / w^2 for w = fh,

    s' = w^2 s + 2(n - 1) w lap(w) - n(n - 1) |grad w|^2,   n = 4,

so the density is -(1/3) area (w^-2 s + 6 w^-3 lap(w) - 12 w^-4 |grad w|^2).
The area atom S6 then stands for area(S^3).  No frozen output is involved.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import wres6

CHECK = textwrap.dedent("""
    from wres6.boundary import boundary_parametrix
    from wres6.calculus import build_q_symbols, interior_parametrix, interior_q
    from wres6.clifford import TRACE_ID
    from wres6.interior import integrate_trace
    from wres6.scalars import (
        ScalarExpr, area_s6, fh_pow, grad_dot, lap, s_atom, sc, u_pow)
    from wres6.symbols import BOUNDARY, INTERIOR, XIM_ONE, SymbolExpr, compose

    one = SymbolExpr.scalar_term(XIM_ONE, ScalarExpr.one())
    par = interior_parametrix()
    assert compose(interior_q(), par.b2 + par.b3 + par.b4_recursion, -2,
                   INTERIOR) == one, "interior parametrix identity"
    bpar = boundary_parametrix()
    assert compose(build_q_symbols(BOUNDARY), bpar.b2 + bpar.b3, -1,
                   BOUNDARY) == one, "boundary parametrix identity"
    assert TRACE_ID == 4, TRACE_ID


    def kkw(w_pow):
        w = w_pow(1)
        return sc(-1, 3) * area_s6() * (
            w_pow(-2) * s_atom() + sc(6) * w_pow(-3) * lap(w)
            - sc(12) * w_pow(-4) * grad_dot(w, w))


    density = integrate_trace(par.b4)
    for p in range(-2, 3):
        for q in range(-2, 3):
            got = density.map_func_atoms({"f": u_pow(p), "h": u_pow(q)})
            assert got == kkw(lambda k: u_pow(k * (p + q))), (p, q, str(got))
    # for every f and h, a function of w = fh alone
    assert density == kkw(fh_pow), str(density)
    print("ok")
""")


def test_dimension_4_copy_gives_the_kkw_density(tmp_path):
    src = Path(wres6.__file__).resolve().parent
    copy = tmp_path / "wres6"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    scalars = copy / "scalars.py"
    text = scalars.read_text(encoding="utf-8")
    assert text.count("\nN = 6") == 1
    scalars.write_text(text.replace("\nN = 6", "\nN = 4"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", CHECK], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
