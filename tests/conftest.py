"""Shared test settings.

``--hypothesis-profile=ci`` runs every property test with at least 1,000
examples and no deadline: a test that sets its own example count takes
it through `at_least`, so the profile can raise it.

``--memo-size N`` cuts every memo of `arud` (`module_memos`) to N entries
and empties it before any test runs, so a result that holds only while a
memo keeps its entries fails.  Tests that count memo hits fail under it
by design; the CI step that passes ``--memo-size 1`` names the files it
runs, and none of them holds such a test.
"""

import importlib
import pkgutil

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)


def at_least(max_examples: int) -> int:
    """`max_examples`, or the loaded profile's count when that is larger.

    Test modules are imported after the profile is loaded, so a test's
    ``@settings(max_examples=at_least(n))`` runs `n` examples in the
    default profile and 1,000 under ``ci``.
    """
    return max(max_examples, settings.default.max_examples)


def module_memos() -> list:
    """Every `script.Memo` bound at module level in `arud`'s modules,
    each once."""
    import arud
    from arud.script import Memo

    memos = {}
    for info in pkgutil.iter_modules(arud.__path__):
        module = importlib.import_module(f"arud.{info.name}")
        for value in vars(module).values():
            if isinstance(value, Memo):
                memos[id(value)] = value
    return list(memos.values())


def pytest_addoption(parser):
    parser.addoption("--memo-size", type=int, metavar="N",
                     help="hold at most N entries in every memo of arud")


def pytest_configure(config):
    size = config.getoption("memo_size")
    if size is not None:
        if size < 1:
            raise pytest.UsageError("--memo-size must be at least 1")
        for memo in module_memos():
            memo.size = size
            memo.clear()
