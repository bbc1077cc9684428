"""Every annotation in the `arud` modules names something it can reach.

With ``from __future__ import annotations`` an annotation is kept as
text, so one naming a type its module never imports only fails when a
tool such as `typing.get_type_hints` resolves it.
"""

import importlib
import inspect
import pkgutil
import typing

import arud


def _annotated():
    """(qualified name, object) of each function, method and class that
    the `arud` modules define."""
    for info in pkgutil.iter_modules(arud.__path__):
        module = importlib.import_module(f"arud.{info.name}")
        for obj in vars(module).values():
            obj = inspect.unwrap(obj) if callable(obj) else obj
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, property):
                        member = member.fget
                    members.append(member)
            for member in members:
                if inspect.isfunction(member) or inspect.isclass(member):
                    yield f"{module.__name__}.{member.__qualname__}", member


def test_type_hints_resolve():
    found, failed = set(), {}
    for name, obj in _annotated():
        found.add(name)
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            failed[name] = repr(exc)
    assert {"arud.cli._executor", "arud.cli.build_parser",
            "arud.scansion.scan_text", "arud.filler.FillQuery.__post_init__",
            "arud.masking.MaskedExample.to_json"} <= found
    assert failed == {}
