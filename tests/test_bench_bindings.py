"""The names the benchmark's tracer wraps must exist in arud and be called.

``perfbench/spans.py`` wraps functions, methods and import bindings by
name, and a traced run fails on a missing one or on one its workload
never calls.  These tests read those names from the file (without
changing it) so that a rename, or a CLI path that stops going through a
traced binding, fails the normal test run too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SNAPSHOT_DIR = Path(__file__).parent / "data" / "behaviour_snapshot"


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


def test_no_memo_computes_with_a_traced_function():
    # The tracer rebinds module attributes; a function a `Memo` captured
    # at import would still run untraced.
    from arud.script import Memo
    traced = {getattr(arud_module(m), f) for m, f in spans.FUNCTIONS} | {
        getattr(getattr(arud_module(m), c), f) for m, c, f in spans.METHODS}
    memos = {f"{module}.{name}": value.compute
             for module in spans.MODULES
             for name, value in vars(arud_module(module)).items()
             if isinstance(value, Memo)}
    assert memos
    assert [name for name, compute in memos.items() if compute in traced] \
        == []


# Runs in a fresh interpreter: installing the tracer rebinds module
# attributes for the rest of the process.
TRACED_COMMANDS = r"""
import importlib.util
import json
import sys
from pathlib import Path

spans_path, snap, tmp = map(Path, sys.argv[1:])
spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()

from arud.cli import main

commands = [
    ["scan", "--golden", "-i", snap / "mask_input.txt",
     "-o", tmp / "scan.out"],
    ["normalize", "--hemistichs", "--stats", tmp / "stats",
     "--reject-log", tmp / "rejects", "-i", snap / "raw.txt",
     "-o", tmp / "norm.out"],
    ["mask", "--seed", "1", "--per-line", "4", "-i", tmp / "norm.out",
     "-o", tmp / "mask.out"],
    ["fill", "--lexicon", snap / "lexicon.txt", "--target", "11010",
     "-o", tmp / "fill.out"],
    ["eval", "-i", snap / "predictions.jsonl", "-o", tmp / "eval.out"],
]
codes = [main([str(arg) for arg in argv]) for argv in commands]
snapshot = tracer.snapshot()
print(json.dumps({
    "codes": codes,
    "errors": {w: spans.coverage_errors(w, snapshot)
               for w in ("scan", "prepare", "infill")},
}))
"""


def test_cli_commands_reach_every_traced_binding(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("ARUD_TABLE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, str(SPANS),
         str(SNAPSHOT_DIR), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 5
    assert result["errors"] == {"scan": [], "prepare": [], "infill": []}
