"""The benchmark's hooks must still name functions of the package.

``perfbench/child.py`` patches ``SPAN_TARGETS`` by name and counts the
``COUNTED`` functions by qualified name; a renamed function would otherwise
only show up when the benchmark is run with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_install_and_uninstall():
    child = _load_child()
    tracer = child.Tracer()
    try:
        tracer.install()  # raises if a SPAN_TARGETS name is gone
        patched = list(tracer._restore)
    finally:
        tracer.uninstall()
    assert {attr.split(".")[-1] for _, attr, _ in child.SPAN_TARGETS} <= {
        key for _, key, _ in patched}
    for owner, key, original in patched:
        assert getattr(owner, key) is original


# counters of functions the package no longer has: the Gaussian-rational
# layer was deleted when the symbols moved to the real gauge, so these read
# 0 until the benchmark drops them
RETIRED_COUNTERS = {"scalars.gaussrat_init_calls", "scalars.gaussrat_mul_calls"}


def _resolve(suffix, qualname):
    stem = suffix[:-len(".py")]
    obj = importlib.import_module(stem if stem == "fractions" else f"wres6.{stem}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            break
    return obj


def test_counted_names_resolve():
    child = _load_child()
    unresolved = {metric for metric, (suffix, qualname) in child.COUNTED.items()
                  if not callable(_resolve(suffix, qualname))}
    assert unresolved == RETIRED_COUNTERS


def test_output_sizes_count_the_sigma6_and_b4_terms():
    # the benchmark's count mode reads these through ``SymbolExpr.orders``
    from wres6 import calculus

    child = _load_child()
    calculus.qinv_square_sigma6()
    assert child.output_sizes() == {"calculus.sigma6_terms": 1342,
                                    "calculus.b4_terms": 1342}


def test_profiled_counts_see_the_memoized_and_flat_products():
    # cProfile sees a memoized function's code only on a cache miss, and the
    # Clifford product only where it is still called; a cache or a helper
    # that hid either code object would read 0 here without any error
    import cProfile

    from wres6 import calculus, scalars
    from wres6.symbols import BOUNDARY

    child = _load_child()
    scalars._mono_mul.cache_clear()
    profile = cProfile.Profile()
    profile.runcall(calculus.build_q_symbols.__wrapped__, BOUNDARY)
    counts = child.profile_counts(profile)
    assert counts["scalars.mono_mul_calls"] > 0
    assert counts["clifford.mul_calls"] > 0
