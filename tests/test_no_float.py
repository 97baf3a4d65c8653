"""The package computes exactly: no module of ``src/wres6`` holds a float or
complex literal or calls ``float`` or ``complex``, and none names the
Gaussian-rational layer the real gauge replaced (``GaussRat``, its
constants and its coercion), so that layer cannot come back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wres6"
MODULES = sorted(SRC.glob("*.py"))


GAUSS_NAMES = frozenset(["GaussRat", "G_I", "G_ONE", "G_ZERO", "as_gauss"])


def _float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node.lineno, f"{node.func.id}(...)"


def test_modules_found():
    assert len(MODULES) >= 9


def _gauss_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in names:
            if name in GAUSS_NAMES:
                yield node.lineno, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_float_sites(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_gaussian_rational(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_gauss_sites(tree)) == []


def test_checker_sees_floats():
    tree = ast.parse("x = 0.5\ny = 2j\nz = float(1) + complex(0, 1)\n")
    assert [line for line, _ in _float_sites(tree)] == [1, 2, 3, 3]


def test_checker_sees_gaussian_rationals():
    tree = ast.parse("from .scalars import G_I, as_gauss as g\n"
                     "class GaussRat:\n    pass\n"
                     "x = scalars.G_ONE * G_ZERO\n")
    assert sorted(name for _, name in _gauss_sites(tree)) == [
        "G_I", "G_ONE", "G_ZERO", "GaussRat", "as_gauss"]
