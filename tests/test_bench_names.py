"""Every function the benchmark counts still exists in `premex`.

`perfbench/tracer.py` counts calls of the functions named in its
`COUNTERS` ("<layer>.<function>" or "<layer>.<Class>.<method>"), and a
traced run that misses one reports `correct: false`.  This test fails as
soon as a change deletes or renames a counted name, without running the
benchmark.  It reads the tracer and does not install it.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def counted_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.COUNTERS)


@pytest.mark.parametrize("name", counted_names())
def test_counted_name_resolves(name):
    layer, attr, *method = name.split(".")
    module = importlib.import_module(f"premex.{layer}")
    obj = getattr(module, attr, None)
    assert obj is not None, f"premex.{layer} has no {attr}"
    # the tracer wraps only what the layer module itself defines
    assert getattr(obj, "__module__", None) == module.__name__, f"{name} is defined elsewhere"
    if method:
        assert inspect.isclass(obj), f"{layer}.{attr} is not a class"
        assert inspect.isfunction(vars(obj).get(method[0])), f"{name} is not a method"
    else:
        assert inspect.isfunction(obj), f"{name} is not a function"
