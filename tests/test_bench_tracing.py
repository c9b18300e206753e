"""The traced benchmark wraps qal functions by name; they must stay put.

bench/tracing.py replaces each function it lists in the module that
defines it (and every qal module holding it by name).  A refactor that
moves, renames or re-signs one would crash `bench/run.py --trace 1`; this
test makes it fail the suite instead.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _tracing()
ENTRIES = list(tracing.SPANS) + list(tracing.COUNTERS.values())


@pytest.mark.parametrize("module,path", ENTRIES,
                         ids=[f"{m}:{p}" for m, p in ENTRIES])
def test_traced_function_resolves(module, path):
    owner, attr = tracing._resolve(module, path)
    fn = getattr(owner, attr)
    assert callable(fn)
    if "." not in path:
        # a module-level function must be defined where the tracer looks
        assert fn.__module__ == module
        assert importlib.import_module(module).__dict__[attr] is fn


def test_critical_value_eval_keeps_n_second():
    # the tracer sums the step counts from the second positional argument
    from qal.params import critical_value_eval
    assert list(inspect.signature(critical_value_eval).parameters) == \
        ["c", "n", "p"]
