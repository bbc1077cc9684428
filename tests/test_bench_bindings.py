"""The names the benchmark's tracer wraps must exist in arud.

``perfbench/spans.py`` wraps functions, methods and import bindings by
name, and a traced run fails on a missing one.  This test reads those
names from the file (without changing it) so that a rename fails the
normal test run too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def arud_module(name):
    return importlib.import_module(f"arud.{name}")


@pytest.mark.parametrize("module,func", sorted(spans.FUNCTIONS))
def test_function_resolves(module, func):
    assert callable(getattr(arud_module(module), func))


@pytest.mark.parametrize("module,cls,method", sorted(spans.METHODS))
def test_method_resolves(module, cls, method):
    assert callable(getattr(getattr(arud_module(module), cls), method))


@pytest.mark.parametrize("site", sorted(spans.REQUIRED_SITES))
def test_import_site_binds_the_traced_function(site):
    module, attr = site.split(".")
    originals = {getattr(arud_module(m), f)
                 for m, f in spans.FUNCTIONS if f == attr}
    assert originals, f"{site} names no traced function"
    assert getattr(arud_module(module), attr) in originals
