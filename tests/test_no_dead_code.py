"""The package holds only what the package uses: every function, method,
class and module-level constant of ``src/wres6`` is read somewhere in
``src/wres6`` outside its own definition, apart from the allow-listed names
below; every keyword default is overridden by some call in ``src/wres6``,
so that no parameter is set by tests alone; and every module-level import is
used by the module that makes it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wres6"

# name -> why it stays although no package module uses it
ALLOWED = {
    "phi_total": "benchmark span target (perfbench/child.py SPAN_TARGETS)",
    "printed_qinv_order": "printed data that is still to get a verdict",
    "forced_qinv4_correction": "printed data that is still to get a verdict",
    "expected_sigma6_diff": "printed data that is still to get a verdict",
}

# function.parameter -> why its default stays although no package call sets it
ALLOWED_DEFAULTS = {
    "main.argv": "entry point: the console script calls main() without argv",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(tree):
    """(class, name) of each definition, class None outside a class body."""
    owner = {item: node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, _FUNCTIONS)}
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            if not _dunder(node.name):
                yield owner.get(node), node.name
    for node in tree.body:  # module-level constants
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not _dunder(name.id):
                    yield None, name.id


def _used(tree):
    """(owner, name) of each read; the owner is the name K of an access
    written K.name, else None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):  # an assignment is no use
                yield None, node.id
        elif isinstance(node, ast.Attribute):
            value = node.value
            yield (value.id if isinstance(value, ast.Name) else None), node.attr
        elif isinstance(node, ast.alias):
            yield None, node.asname or node.name
            yield None, node.name


def unused_names(sources) -> set:
    """The unused definitions, a method whose name several definitions share
    written as K.name.  An access K.name, where class K defines name, uses
    K's method only; any other access uses every definition of the name."""
    trees = [ast.parse(text) for text in sources]
    defined = {d for tree in trees for d in _defined(tree)}
    used = set()
    for owner, name in (u for tree in trees for u in _used(tree)):
        used.add((owner, name) if (owner, name) in defined else name)
    shared = Counter(name for _, name in defined)
    return {f"{cls}.{name}" if cls and shared[name] > 1 else name
            for cls, name in defined
            if name not in used and (cls, name) not in used}


def _defaults(tree):
    """(function, parameter, position) of each parameter with a default; the
    position counts the arguments a call passes, None for keyword-only."""
    methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, _FUNCTIONS)}
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS) or _dunder(node.name):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = node in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield node.name, positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls(tree):
    """(name, positional arguments, keywords) of each call, a starred
    argument counted as any number and ``**`` as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        every = any(k.arg is None for k in node.keywords)
        yield (name, float("inf") if starred else len(node.args),
               None if every else {k.arg for k in node.keywords})


def unset_defaults(sources) -> set:
    """``function.parameter`` of each default that no call overrides, by
    keyword or by position; calls match definitions by name alone."""
    trees = [ast.parse(text) for text in sources]
    calls = [c for tree in trees for c in _calls(tree)]
    return {f"{fn}.{param}"
            for tree in trees for fn, param, pos in _defaults(tree)
            if not any(name == fn and (keywords is None or param in keywords
                                       or (pos is not None and npos > pos))
                       for name, npos, keywords in calls)}


def _module_imports(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def unused_imports(text) -> set:
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(_module_imports(tree)) - used


def test_every_definition_has_a_package_caller():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert len(sources) >= 9
    assert unused_names(sources) == set(ALLOWED)


def test_checker_sees_unused_definitions():
    sources = ["from .b import used\n\nclass K:\n    def m(self):\n"
               "        return used()\n\n    def __eq__(self, o):\n"
               "        return K\n",
               "def used():\n    return 1\n\ndef spare():\n    return 2\n"]
    assert unused_names(sources) == {"m", "spare"}


def test_checker_reads_class_qualified_access_as_that_class_only():
    # A.m and B.m share a name: A.m is used through A, B.m by nothing; n is
    # read through an instance, which may be of either class; k is read
    # through C, which does not define it, so both definitions count
    sources = ["class A:\n    def m(self):\n        return 1\n\n"
               "    def n(self):\n        return 2\n\n"
               "    def k(self):\n        return 3\n\n"
               "class B:\n    def m(self):\n        return 4\n\n"
               "    def n(self):\n        return 5\n\n"
               "    def k(self):\n        return 6\n\n"
               "class C(A):\n    pass\n\n"
               "A.m(C())\nC().n()\nC.k(B())\n"]
    assert unused_names(sources) == {"B.m"}


def test_checker_sees_unused_module_constants():
    sources = ["from .b import READ\n\n__version__ = '1'\nDIM = 6\n"
               "ALIAS: type = tuple\nLO, HI = 0, 1\n\n"
               "def f(x: ALIAS):\n    return READ + HI\n",
               "from .a import f\n\nREAD = 2\n"
               "DIM = 7  # rebinding a constant is no read of it\n\n"
               "class K:\n    SLOT = 1  # not a module-level constant\n\n"
               "f(K())\n"]
    assert unused_names(sources) == {"DIM", "LO"}


def test_every_default_is_set_by_a_package_call():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unset_defaults(sources) == set(ALLOWED_DEFAULTS)


def test_checker_sees_defaults_only_tests_set():
    # f.a is set by position, f.b by keyword, g's parameters by ** and f.e
    # never; h.t is keyword-only, so *c does not set it; m's self takes no
    # argument and the static s has none, so one argument sets only p
    sources = ["def f(x, a=1, b=2, *, e=3):\n    return g()\n\n"
               "def g(c=0, d=1):\n    return h(*c)\n\n"
               "class K:\n    def m(self, p=1, q=2):\n        return p\n\n"
               "    @staticmethod\n    def s(p=1, q=2):\n        return q\n\n"
               "    def __init__(self, r=0):\n        pass\n\n"
               "f(0, 1, b=2)\ng(**{})\nK().m(5)\nK.s(5)\n",
               "def h(*args, t=None):\n    return args, t\n"]
    assert unset_defaults(sources) == {"f.e", "h.t", "m.q", "s.q"}


def test_every_module_import_is_used():
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_checker_sees_unused_imports():
    text = ("from __future__ import annotations\n\nimport os.path\n"
            "import json as js\nfrom typing import Iterable, Mapping\n\n"
            "def f(x: Iterable):\n    import sys\n    return js.dumps(x), sys\n")
    assert unused_imports(text) == {"os", "Mapping"}
