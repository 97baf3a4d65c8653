"""The package computes exactly: no module of ``src/wres6`` holds a float or
complex literal or calls ``float`` or ``complex``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wres6"
MODULES = sorted(SRC.glob("*.py"))


def _float_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node.lineno, f"{node.func.id}(...)"


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_float_sites(tree)) == []


def test_checker_sees_floats():
    tree = ast.parse("x = 0.5\ny = 2j\nz = float(1) + complex(0, 1)\n")
    assert [line for line, _ in _float_sites(tree)] == [1, 2, 3, 3]
