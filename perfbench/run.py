"""arud benchmark: seeded workloads through ``arud.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Workloads (all in a fresh child process, see ``child.py``):

* ``scan``: ``scan --golden --jobs 1`` over 256-line verse chunks.
* ``prepare``: ``normalize --hemistichs --stats --reject-log`` over a raw
  chunk, then ``mask --per-line 4`` over its accepted lines, at ``--jobs 1``.
* ``prepare-jobs2``: the same inputs and commands at ``--jobs 2``.
* ``infill``: a closed loop with one client sending ``fill`` queries, then
  ``eval`` over prediction files.

``--trace 0`` prints the end-to-end metrics of the chosen workload, with
timings scaled to a reference interpreter speed (see ``README.md``).
``--trace 1`` runs the traced suite instead, whatever the workload: fixed
work for ``scan``, ``prepare`` and ``infill`` at ``--jobs 1``, each once
untraced and once traced, plus ``prepare-jobs2`` untraced, and prints the
per-layer metrics.  The last line of standard output is the result JSON;
the line before it holds the run's record (environment, input digests,
repeat shares, output digest, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import loadgen
from child import CALIBRATION_UNITS
from spans import CORPUS_STAGES, SCAN_RULES, coverage_errors

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"scan": 1, "prepare": 1, "prepare-jobs2": 2, "infill": 1}
SETUP_REPEATS = 7
CHILD_TIMEOUT = 150
FRESH_TIMEOUT = 30
# Fixed work of each traced workload, so per-layer counts repeat exactly
# for a seed: batches for scan and prepare, (fill queries, eval calls).
TRACE_OPS = {"scan": 24, "prepare": 16, "infill": [48, 4]}
# Calibration units per second that timings other than setup_s are scaled
# to.  Fixed for good: changing it would shift every scaled metric.
REFERENCE_UNITS_PER_S = 5000.0
# A sample's machine speed comes from the calibration slices of this many
# samples on each side of it, and its own.
SPEED_WINDOW = 2

SHOULD_MOVE = {
    "script.": "lines_per_s @ scan, prepare",
    "scansion.": "lines_per_s @ scan, prepare; query_p50_ms, query_p90_ms "
                 "@ infill",
    "corpus.": "lines_per_s @ prepare, prepare-jobs2",
    "masking.": "lines_per_s @ prepare",
    "filler.": "query_p50_ms, query_p90_ms @ infill",
    "filler.index_lexicon": "setup_s @ infill; query_p50_ms @ infill",
    "metrics.": "records_per_s @ infill",
    "tables.": "setup_s @ all workloads",
    "cli.": "lines_per_s @ scan, prepare-jobs2",
    "cli.pool.": "lines_per_s @ prepare-jobs2",
    "py.gc.": "lines_per_s @ scan, prepare",
    "trace.": "none: cost of tracing itself",
}


class BenchError(Exception):
    """The benchmark cannot produce a result in this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ARUD_TABLE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_proc(argv, timeout, cwd):
    """Run a process in its own process group; kill the group on timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {argv[:4]}")
    return proc.returncode, out.decode(), err.decode(), \
        time.perf_counter() - t0


def arud(work: Path, *args):
    return run_proc([sys.executable, "-m", "arud.cli", *args],
                    FRESH_TIMEOUT, work)


def golden_rows() -> list:
    """Golden verses scanned without --verse-final, from the test data."""
    rows = []
    path = ROOT / "tests" / "data" / "golden_scansion.tsv"
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            text, verse_final, beats = line.split("\t")
            if verse_final == "0":
                rows.append([text, beats])
    return rows


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def segment_beats(transcription: str) -> list:
    """Per-word beats of a scan transcription (one of four marks each)."""
    marks = {loadgen.FATHA: "1", loadgen.DAMMA: "1", loadgen.KASRA: "1",
             loadgen.SUKUN: "0"}
    return ["".join(marks[ch] for ch in word if ch in marks)
            for word in transcription.split(" ")]


def scanned_queries(seed: int, vocab: list, work: Path):
    """Fill queries with targets from one fresh ``scan --golden`` process.

    The target is the planted phrase's beats in its context; queries
    whose line does not scan or loses word alignment are dropped.
    """
    queries = loadgen.fill_queries(seed, vocab)
    lines = [" ".join((q["left"], q["phrase"], q["right"])) for q in queries]
    (work / "queries.txt").write_text("\n".join(lines) + "\n", "utf-8")
    rc, _, err, _ = arud(work, "scan", "--golden", "-i", "queries.txt",
                         "-o", "queries.out")
    if rc != 0:
        raise BenchError(f"query scan failed: {err}")
    out = (work / "queries.out").read_text("utf-8").splitlines()
    kept = []
    for q, row in zip(queries, out):
        transcription, _, beats = row.partition("\t")
        segments = segment_beats(transcription) if transcription else []
        lo = len(q["left"].split())
        hi = lo + len(q["phrase"].split())
        if len(segments) != hi + len(q["right"].split()) \
                or "".join(segments) != beats:
            continue
        kept.append(dict(q, beats="".join(segments[lo:hi]), line_beats=beats))
    (work / "lexicon.txt").write_text("\n".join(loadgen.FILL_LEXICON) + "\n",
                                      "utf-8")
    return kept, len(queries) - len(kept)


def measure_setup(workload: str, work: Path, golden, queries):
    """Median fresh-process wall time to the output of a one-item input."""
    jobs = str(WORKLOADS[workload])
    text, beats = golden[0]
    (work / "one.txt").write_text(text + "\n", "utf-8")
    if queries:
        q = queries[0]
        record = {"target_beats": q["beats"], "generated_text": q["phrase"],
                  "left_context": q["left"], "right_context": q["right"]}
        (work / "one.jsonl").write_text(json.dumps(record) + "\n", "utf-8")
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        if workload == "scan":
            steps = [("scan", "--golden", "--jobs", jobs, "-i", "one.txt",
                      "-o", "one.out")]
        elif workload == "infill":
            steps = [("fill", "--lexicon", "lexicon.txt", "--target",
                      q["beats"], "--left", q["left"], "--right", q["right"],
                      "--max-words", "1", "-o", "one.out"),
                     ("eval", "-i", "one.jsonl", "-o", "one.eval")]
        else:
            steps = [("normalize", "--hemistichs", "--stats", "one.stats",
                      "--reject-log", "one.rej", "--jobs", jobs,
                      "-i", "one.txt", "-o", "one.norm"),
                     ("mask", "--seed", "1", "--per-line", "4", "--jobs",
                      jobs, "-i", "one.norm", "-o", "one.out")]
        for stale in ("one.out", "one.eval"):
            (work / stale).unlink(missing_ok=True)
        total = 0.0
        for step in steps:
            rc, _, err, seconds = arud(work, *step)
            total += seconds
            if rc != 0 or err:
                failures.append(f"set-up {step[0]} exit {rc}: {err[:300]}")
        out_path = work / "one.out"
        out = out_path.read_text("utf-8").splitlines() \
            if out_path.exists() else []
        if workload == "scan":
            ok = len(out) == 1 and out[0].endswith("\t" + beats)
        elif workload == "infill":
            report = work / "one.eval"
            ok = q["phrase"] in out and report.exists() and \
                report.read_text("utf-8").startswith("n: 1\n")
        else:
            ok = len(out) == 4
        if not ok:
            failures.append(f"set-up {workload} output wrong: {out[:2]}")
        times.append(total)
    return statistics.median(times), times, failures


def run_child(spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec), "utf-8")
    rc, out, err, _ = run_proc(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         str(spec_path), str(result_path)], CHILD_TIMEOUT, work)
    if rc != 0:
        raise BenchError(f"child exited {rc}: {err[-2000:]}")
    return json.loads(result_path.read_text("utf-8"))


def percentile(samples, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(samples, n=100)[q - 1]


def speed(calibration) -> float:
    """Machine speed over some calibration slices, 1.0 at the reference."""
    rate = CALIBRATION_UNITS * len(calibration) / sum(calibration)
    return rate / REFERENCE_UNITS_PER_S


def scaled(samples, calibration) -> list:
    """Each sample times the machine speed measured around it.

    A slow moment of the machine lengthens a sample and lowers the speed
    of the calibration slices next to it alike, so the product cancels
    most of the machine's drift.
    """
    return [seconds * speed(calibration[max(0, i - SPEED_WINDOW):
                                        i + SPEED_WINDOW + 1])
            for i, seconds in enumerate(samples)]


def end_to_end(workload: str, res: dict, setup_s: float) -> tuple:
    """Metrics at the reference interpreter speed, and as measured.

    Memory and ``setup_s`` are not scaled: fresh-process start-up is mostly
    kernel and file work, which the calibration slices do not track.
    """
    run_speed = speed(res["calibration"] + res["eval_calibration"])
    metrics = {}
    for name, samples, evals in (
            ("scaled", scaled(res["samples"], res["calibration"]),
             scaled(res["eval_samples"], res["eval_calibration"])),
            ("raw", res["samples"], res["eval_samples"])):
        busy = sum(samples)
        records_per_s = res["eval_records"] / sum(evals) \
            if workload == "infill" else res["records"] / busy
        metrics[name] = {
            "lines_per_s": (res["lines"] / busy, "1/s"),
            "records_per_s": (records_per_s, "1/s"),
            "query_p50_ms": (1000 * statistics.median(samples), "ms"),
            "query_p90_ms": (1000 * percentile(samples, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(res["rss_kb"], res["worker_rss_kb"]) / 1024,
                            "MB"),
        }
    return metrics["scaled"], metrics["raw"], run_speed


def spec_for(workload, seed, work, golden, queries, seconds=None, ops=None,
             trace=False):
    return {"workload": "prepare" if workload == "prepare-jobs2"
            else workload, "jobs": WORKLOADS[workload], "seed": seed,
            "seconds": seconds, "ops": ops, "trace": trace,
            "workdir": str(work), "golden": golden, "queries": queries,
            "lexicon": str(work / "lexicon.txt")}


def input_record(workload: str, seed: int, vocab, golden, queries) -> dict:
    """Digest and repeat shares of the first PREFIX_CHUNKS input chunks."""
    n = loadgen.PREFIX_CHUNKS
    if workload == "scan":
        lines = [ln for i in range(n)
                 for ln in loadgen.scan_chunk(seed, i, vocab, golden)["lines"]]
    elif workload == "infill":
        lines = [json.dumps([q["left"], q["phrase"], q["right"], q["beats"]],
                            ensure_ascii=False) for q in queries]
        return {"query_set_sha256": loadgen.digest(lines),
                "queries": len(queries),
                "lexicon_size": len(loadgen.FILL_LEXICON),
                "max_words": loadgen.FILL_MAX_WORDS,
                **loadgen.repeat_shares(q["left"] + " " + q["right"]
                                        for q in queries)}
    else:
        lines = [ln for i in range(n)
                 for ln in loadgen.raw_chunk(seed, i, vocab)["lines"]]
    return {"input_sha256": loadgen.digest(lines), "prefix_lines": len(lines),
            **loadgen.repeat_shares(lines)}


def e2e_run(args, work, golden) -> tuple:
    vocab = loadgen.vocabulary(args.seed)
    rc, _, err, _ = arud(work, "--version")  # also writes bytecode caches
    if rc != 0:
        raise BenchError(f"arud --version failed: {err}")
    queries, dropped = [], 0
    if args.workload == "infill":
        queries, dropped = scanned_queries(args.seed, vocab, work)
    setup_s, setup_times, setup_failures = measure_setup(
        args.workload, work, golden, queries)
    res = run_child(spec_for(args.workload, args.seed, work, golden, queries,
                             seconds=args.seconds), work)
    metrics, raw, speed = end_to_end(args.workload, res, setup_s)
    attempted = res["attempted"] + SETUP_REPEATS
    failed = res["failed"] + len(setup_failures)
    info = {
        "input": input_record(args.workload, args.seed, vocab, golden,
                              queries),
        "output_sha256": res["output_sha256"],
        "samples": len(res["samples"]),
        "machine_speed": speed,
        "unscaled": {name: value for name, (value, _) in raw.items()},
        "samples_beyond_p90": sum(
            s * 1000 > raw["query_p90_ms"][0] for s in res["samples"]),
        "setup_times_s": setup_times,
        "errors": (setup_failures + res["errors"])[:10],
    }
    if args.workload == "infill":
        info.update(queries_dropped=dropped, eval_calls=len(
            res["eval_samples"]), fill_results_max=max(res["fill_results"]),
            fill_results_median=statistics.median(res["fill_results"]))
    if args.workload.startswith("prepare"):
        info.update(accept_share=res["accepted"] / res["lines"],
                    reject_mix=res["rejects"], worker_rss_mb=res[
                        "worker_rss_kb"] / 1024, main_rss_mb=res[
                        "rss_kb"] / 1024)
    return metrics, attempted, failed, info


def trace_run(args, work, golden) -> tuple:
    vocab = loadgen.vocabulary(args.seed)
    queries, _ = scanned_queries(args.seed, vocab, work)
    attempted = failed = 0
    errors = []
    plain, traced = {}, {}
    for workload in ("scan", "prepare", "infill", "prepare-jobs2"):
        for trace in (False, True) if workload != "prepare-jobs2" \
                else (False,):
            res = run_child(spec_for(workload, args.seed, work, golden,
                                     queries, ops=TRACE_OPS[
                                         workload.split("-")[0]],
                                     trace=trace), work)
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
            (traced if trace else plain)[workload] = res
    for workload, res in traced.items():
        problems = coverage_errors(workload, res["trace"])
        if res["output_sha256"] != plain[workload]["output_sha256"]:
            problems.append(f"{workload}: traced output differs")
        attempted += 1
        failed += bool(problems)
        errors += problems
    metrics = layer_metrics(plain, traced)
    overhead = {w: metrics[f"trace.overhead.{w}"][0] for w in traced}
    info = {"should_move": {name: should_move(name) for name in metrics},
            "trace_overhead": overhead, "errors": errors[:20],
            "sites": {w: r["trace"]["sites"] for w, r in traced.items()}}
    return metrics, attempted, failed, info


def should_move(name: str) -> str:
    best = max((p for p in SHOULD_MOVE if name.startswith(p)), key=len)
    return SHOULD_MOVE[best]


def layer_metrics(plain: dict, traced: dict) -> dict:
    snaps = {w: r["trace"] for w, r in traced.items()}
    agg = {}
    for snap in snaps.values():
        for name, rec in snap["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]

    def total(key):
        return sum(s[key] for s in snaps.values())

    changed = {}
    for snap in snaps.values():
        for name, n in snap["changed"].items():
            changed[name] = changed.get(name, 0) + n
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (agg[name][0], "count")

    def self_s(name):
        m[f"{name}.self_s"] = (agg[name][2], "s")

    def share(name):
        m[f"{name}.changed_share"] = (changed.get(name, 0) / agg[name][0],
                                      "ratio")

    prep = snaps["prepare"]
    calls("script.parse_line")
    self_s("script.parse_line")
    m["script.parse_line.calls_per_input_line"] = (
        prep["agg"]["script.parse_line"][0] / traced["prepare"]["lines"],
        "ratio")
    self_s("script.render_line")
    self_s("script.fix_diacritic_order")
    calls("scansion.scan")
    self_s("scansion.scan")
    for rule in SCAN_RULES:
        self_s(f"scansion.{rule}")
        share(f"scansion.{rule}")
    self_s("scansion.beat_segments")
    calls("corpus.process_line")
    self_s("corpus.process_line")
    for stage in CORPUS_STAGES:
        self_s(f"corpus.{stage}")
        share(f"corpus.{stage}")
    reasons = prep["reasons"]
    m["corpus.accept_share"] = (
        reasons.get("ok", 0) / prep["agg"]["corpus.process_line"][0], "ratio")
    for reason in ("too_few_words", "word_undiacritized",
                   "below_letter_ratio", "foreign_residue",
                   "under_diacritized"):
        m[f"corpus.reject.{reason}"] = (reasons.get(reason, 0), "count")
    self_s("corpus.DiacriticStats.add_line")
    calls("masking.build_training_example")
    self_s("masking.build_training_example")
    m["masking.scans_per_line"] = (
        prep["nested"].get("scansion.scan<masking.build_training_example", 0)
        / traced["prepare"]["accepted"], "ratio")
    self_s("masking.reduce_context_diacritics")
    self_s("masking.MaskedExample.to_json")
    infill = snaps["infill"]
    m["filler.index_lexicon.s"] = (agg["filler.index_lexicon"][1], "s")
    calls("filler.fill")
    self_s("filler.fill")
    m["filler.rescans_per_query"] = (
        infill["nested"].get("filler.phrase_beats_in_context<filler.fill", 0)
        / agg["filler.fill"][0], "ratio")
    m["filler.match_share"] = (
        infill["matches"] / agg["filler.matches_target"][0], "ratio")
    self_s("filler.phrase_beats_in_context")
    m["metrics.read_prediction_file.s"] = (
        agg["metrics.read_prediction_file"][1], "s")
    m["metrics.evaluate_predictions.s"] = (
        agg["metrics.evaluate_predictions"][1], "s")
    calls("metrics.edit_distance")
    self_s("metrics.edit_distance")
    m["metrics.scan_failure_share"] = (
        infill["eval_failures"] / infill["eval_n"], "ratio")
    calls("tables.TableSet.load")
    m["tables.TableSet.load.s"] = (agg["tables.TableSet.load"][1], "s")
    for sub in ("scan", "normalize", "mask", "fill", "eval"):
        m[f"cli.{sub}.wall_s"] = (agg[f"cli.{sub}"][1], "s")
        self_s(f"cli.{sub}")

    def rate(res):
        return res["lines"] / sum(scaled(res["samples"], res["calibration"]))

    speedup = rate(plain["prepare-jobs2"]) / rate(plain["prepare"])
    m["cli.pool.speedup"] = (speedup, "ratio")
    m["cli.pool.efficiency"] = (speedup / WORKLOADS["prepare-jobs2"], "ratio")
    gc_counts = [sum(s["gc_collections"][g] for s in snaps.values())
                 for g in range(3)]
    for g in range(3):
        m[f"py.gc.collections.gen{g}"] = (gc_counts[g], "count")
    m["py.gc.collected"] = (total("gc_collected"), "count")
    def busy(res):
        return sum(scaled(res["samples"], res["calibration"])) + sum(
            scaled(res["eval_samples"], res["eval_calibration"]))

    for workload, res in traced.items():
        m[f"trace.overhead.{workload}"] = (busy(res) / busy(plain[workload]),
                                           "ratio")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/arud/cli.py", "tests/data/golden_scansion.tsv",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; run from "
                  f"the root of an arud checkout", file=sys.stderr)
            return 2
    declared = declared_metrics(args.trace)
    golden = golden_rows()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    env = environment()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        try:
            if args.trace:
                metrics, attempted, failed, info = trace_run(args, work,
                                                             golden)
            else:
                metrics, attempted, failed, info = e2e_run(args, work,
                                                           golden)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"perfbench: metrics {sorted(set(got) ^ set(declared))} do "
              f"not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": env, **info}, ensure_ascii=False))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
