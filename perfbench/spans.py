"""In-memory span tracing of arud's layers, installed from outside.

``install`` wraps the public functions the per-layer metrics name, at
every module binding that refers to them (``from .scansion import scan``
makes ``filler.scan`` a second binding of the same function), and the
methods on their classes.  Nothing under ``src/`` changes.  Each span
adds to a per-name aggregate: calls, total seconds, and self seconds
(duration minus the time covered by traced child spans).  The tracer's
own bookkeeping after a span ends is counted in neither the span nor its
parent.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("script", "scansion", "corpus", "masking", "filler", "metrics",
           "tables", "cli")

SCAN_RULES = (
    "apply_special_words", "remove_silent_graphemes", "expand_madda",
    "process_hamzat_wasl", "expand_gemination", "expand_tanwin",
    "apply_isba", "validate_scansion",
)
CORPUS_STAGES = (
    "clean_line", "diacritize_known_words", "filter_line", "apply_lam_kasra",
    "apply_wasl_heuristic", "mark_silent_letters", "assign_default_sukun",
)

# (module, function) -> workload that must call it.
FUNCTIONS = {
    ("script", "parse_line"): "scan",
    ("script", "render_line"): "scan",
    ("script", "fix_diacritic_order"): "prepare",
    ("scansion", "scan"): "scan",
    ("scansion", "scan_text"): "scan",
    ("scansion", "beat_segments"): "scan",
    **{("scansion", rule): "scan" for rule in SCAN_RULES},
    ("corpus", "process_line"): "prepare",
    **{("corpus", stage): "prepare" for stage in CORPUS_STAGES},
    ("masking", "build_training_example"): "prepare",
    ("masking", "reduce_context_diacritics"): "prepare",
    ("filler", "index_lexicon"): "infill",
    ("filler", "fill"): "infill",
    ("filler", "phrase_beats_in_context"): "infill",
    ("filler", "matches_target"): "infill",
    ("metrics", "read_prediction_file"): "infill",
    ("metrics", "evaluate_predictions"): "infill",
    ("metrics", "edit_distance"): "infill",
}
# (module, class, method) -> workload that must call it.
METHODS = {
    ("corpus", "DiacriticStats", "add_line"): "prepare",
    ("masking", "MaskedExample", "to_json"): "prepare",
    ("tables", "TableSet", "load"): "all",
}
# Import sites the benchmark's command lines reach; each must see calls.
REQUIRED_SITES = {
    "masking.scan": "prepare",
    "filler.scan": "infill",
    "cli.scan_text": "scan",
    "metrics.scan_text": "infill",
    "metrics.phrase_beats_in_context": "infill",
    "cli.parse_line": "prepare",
    "corpus.parse_line": "prepare",
    "scansion.parse_line": "scan",
    "filler.parse_line": "infill",
    "metrics.parse_line": "infill",
    "tables.parse_line": "all",
}
# (span, ancestor) pairs whose nested calls are counted separately.
NESTED = (("scansion.scan", "masking.build_training_example"),
          ("filler.phrase_beats_in_context", "filler.fill"))


class Tracer:
    def __init__(self):
        self.stack = []
        self.depth = defaultdict(int)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.sites = defaultdict(int)
        self.changed = defaultdict(int)
        self.nested = defaultdict(int)
        self.reasons = defaultdict(int)
        self.eval_n = 0
        self.eval_failures = 0
        self.matches = 0
        self.gc_collections = [0, 0, 0]
        self.gc_collected = 0
        self.unwrapped = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        frame = [0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def _exit(self, name, frame, t0, t1):
        self.stack.pop()
        self.depth[name] -= 1
        rec = self.agg[name]
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += t1 - t0 - frame[0]
        for child, ancestor in NESTED:
            if child == name and self.depth[ancestor]:
                self.nested[child, ancestor] += 1

    def _close(self, t0):
        if self.stack:
            self.stack[-1][0] += time.perf_counter() - t0

    @contextmanager
    def span(self, name):
        """Span opened by the benchmark itself, e.g. one CLI call."""
        frame = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._exit(name, frame, t0, t1)
            self._close(t0)

    def wrap(self, name, site, fn, observe=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._enter(name)
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                self._exit(name, frame, t0, t1)
                self.sites[site] += 1
                if observe is not None:
                    observe(args, result, raised)
                self._close(t0)

        return traced

    # -- observers -----------------------------------------------------

    def _changed(self, name):
        def observe(args, result, raised):
            self.changed[name] += raised or result != args[0]
        return observe

    def _rejected(self, name):
        def observe(args, result, raised):
            self.changed[name] += raised or not result.accepted
        return observe

    def _observe_process_line(self, args, result, raised):
        if not raised:
            self.reasons[result[1]] += 1

    def _observe_match(self, args, result, raised):
        self.matches += bool(result)

    def _observe_eval(self, args, result, raised):
        if not raised:
            self.eval_n += result.n
            self.eval_failures += result.scan_failure_count

    def _observer(self, name):
        module, func = name.split(".", 1)
        if (module == "scansion" and func in SCAN_RULES) or (
                module == "corpus" and func in CORPUS_STAGES
                and func != "filter_line"):
            return self._changed(name)
        return {
            "corpus.filter_line": self._rejected(name),
            "corpus.process_line": self._observe_process_line,
            "filler.matches_target": self._observe_match,
            "metrics.evaluate_predictions": self._observe_eval,
        }.get(name)

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function; start GC counts."""
        for name in MODULES:
            importlib.import_module(f"arud.{name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "arud" or name.startswith("arud."))}
        originals = {}
        for module, func in FUNCTIONS:
            name = f"{module}.{func}"
            originals[name] = getattr(modules[f"arud.{module}"], func)
        for name, original in originals.items():
            observe = self._observer(name)
            for modname, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        site = f"{modname.rpartition('.')[2]}.{attr}"
                        setattr(mod, attr,
                                self.wrap(name, site, original, observe))
        for module, cls_name, method in METHODS:
            cls = getattr(modules[f"arud.{module}"], cls_name)
            name = f"{module}.{cls_name}.{method}"
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(
                    self.wrap(name, name, raw.__func__)))
            else:
                setattr(cls, method, self.wrap(name, name, raw))
            originals[name] = raw
        # Coverage: no module or class may still refer to an original.
        ids = {id(v) for v in originals.values()}
        ids |= {id(v.__func__) for v in originals.values()
                if isinstance(v, classmethod)}
        for modname, mod in modules.items():
            for attr, value in vars(mod).items():
                if id(value) in ids:
                    self.unwrapped.append(f"{modname}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        inner = getattr(cvalue, "__func__", cvalue)
                        if id(cvalue) in ids or id(inner) in ids:
                            self.unwrapped.append(
                                f"{modname}.{attr}.{cattr}")
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        # Only collections inside a traced span count: the benchmark's own
        # input generation and checks allocate between CLI calls.
        if phase == "stop" and self.stack:
            self.gc_collections[info["generation"]] += 1
            self.gc_collected += info["collected"]

    def snapshot(self) -> dict:
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "sites": dict(self.sites),
            "changed": dict(self.changed),
            "nested": {f"{c}<{a}": n for (c, a), n in self.nested.items()},
            "reasons": dict(self.reasons),
            "eval_n": self.eval_n,
            "eval_failures": self.eval_failures,
            "matches": self.matches,
            "gc_collections": list(self.gc_collections),
            "gc_collected": self.gc_collected,
            "unwrapped": list(self.unwrapped),
        }


def coverage_errors(workload: str, snap: dict) -> list:
    """Wrapped names and required sites that this workload left at 0 calls."""
    errors = [f"binding not wrapped: {site}" for site in snap["unwrapped"]]
    calls = {name: rec[0] for name, rec in snap["agg"].items()}
    wanted = [(f"{m}.{f}", w) for (m, f), w in FUNCTIONS.items()]
    wanted += [(f"{m}.{c}.{f}", w) for (m, c, f), w in METHODS.items()]
    for name, owner in wanted:
        if owner in (workload, "all") and not calls.get(name):
            errors.append(f"{name}: 0 calls on {workload}")
    for site, owner in REQUIRED_SITES.items():
        if owner in (workload, "all") and not snap["sites"].get(site):
            errors.append(f"site {site}: 0 calls on {workload}")
    return errors
