"""One workload run in a fresh process, driving ``arud.cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json RESULT.json``.  ``run.py``
starts it with ``PYTHONPATH`` set to the checkout's ``src`` and
``ARUD_TABLE_DIR`` unset, and never passes ``--tables``: in-process
``--tables`` is ignored once the default tables are cached, so that CLI
defect is avoided here, not measured.  Every command writes to files, not
pipes, which avoids the broken-pipe exit as well.

Only the ``main`` call is timed.  Generating the next input, reading the
outputs back and checking them happen between calls, outside the timed
region.  The checks never use arud as their oracle; an operation fails
when the command exits non-zero, raises, or fails a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import loadgen

DIAGNOSTIC = re.compile(r"^line (\d+): ")
MARKERS = ("[E0]", "[E1]", "[E2]")
KNOWN_REASONS = {"too_few_words", "word_undiacritized", "below_letter_ratio",
                 "foreign_residue", "under_diacritized", "dangling_wasl",
                 "scan_error"}
FILLS_PER_EVAL = 3  # the infill client runs eval after every 3rd fill query
CALIBRATION_UNITS = 20  # calibration units run after every operation


def calibration_unit():
    """Fixed interpreter work, no arud: dict, str, list and sort.

    Timing it between operations measures how fast this machine runs
    Python at that moment; run.py scales the run's timings by it.
    """
    table = {}
    pairs = []
    for i in range(300):
        table[str(i)] = i * 3
        pairs.append((i, str(i)))
    return sum(table.values()) + len(sorted(pairs, key=lambda p: p[1]))


class Run:
    def __init__(self, spec: dict, cli_main, tracer):
        self.spec = spec
        self.cli_main = cli_main
        self.tracer = tracer
        self.work = Path(spec["workdir"])
        self.jobs = str(spec["jobs"])
        self.seed = spec["seed"]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = []        # seconds per batch or fill query
        self.eval_samples = []   # seconds per eval call
        self.lines = 0
        self.records = 0
        self.eval_records = 0
        self.accepted = 0
        self.rejects = Counter()
        self.fill_results = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.calibration = []       # calibration seconds after each sample
        self.eval_calibration = []  # the same for eval_samples

    # -- plumbing ------------------------------------------------------

    def call(self, argv):
        """Run one CLI command; return (exit code or None, stderr, secs)."""
        err = io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stderr(err), span:
            t0 = time.perf_counter()
            try:
                rc = self.cli_main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        return rc, err.getvalue(), seconds

    def sample(self, seconds: float, evaluation: bool = False):
        """Keep one timed sample and the calibration slice run after it."""
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_UNITS):
            calibration_unit()
        calibration = time.perf_counter() - t0
        if evaluation:
            self.eval_samples.append(seconds)
            self.eval_calibration.append(calibration)
        else:
            self.samples.append(seconds)
            self.calibration.append(calibration)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, name: str, lines) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)
        return path

    def read(self, name: str) -> str:
        return Path(self.path(name)).read_text(encoding="utf-8")

    def record(self, problems, count: bool = True, digest=None):
        if not count:
            return
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(problems[0][:500])
        if digest is not None and self.digested < loadgen.PREFIX_CHUNKS:
            self.digested += 1
            for part in digest:
                self.digest.update(part.encode("utf-8"))

    # -- workloads -----------------------------------------------------

    def scan_op(self, index, vocab, count=True):
        chunk = loadgen.scan_chunk(self.seed, index, vocab,
                                   self.spec["golden"])
        inp = self.write("scan.in", chunk["lines"])
        rc, err, seconds = self.call(["scan", "--golden", "--jobs", self.jobs,
                                      "-i", inp, "-o", self.path("scan.out")])
        out = self.read("scan.out") if rc == 0 else ""
        problems = check_scan(chunk, rc, out, err)
        if count:
            self.sample(seconds)
            self.lines += len(chunk["lines"])
            self.records += len(chunk["lines"])
        self.record(problems, count, (out, err))

    def prepare_op(self, index, vocab, count=True):
        chunk = loadgen.raw_chunk(self.seed, index, vocab)
        raw = self.write("raw.in", chunk["lines"])
        rc1, err1, s1 = self.call([
            "normalize", "--hemistichs", "--stats", self.path("stats.txt"),
            "--reject-log", self.path("rejects.tsv"), "--jobs", self.jobs,
            "-i", raw, "-o", self.path("norm.out")])
        rc2, err2, s2 = self.call([
            "mask", "--seed", str(self.seed), "--per-line", "4",
            "--jobs", self.jobs, "-i", self.path("norm.out"),
            "-o", self.path("mask.out")])
        parts = [self.read(n) if rc1 == 0 and rc2 == 0 else ""
                 for n in ("norm.out", "rejects.tsv", "stats.txt", "mask.out")]
        problems, accepted, reasons = check_prepare(chunk, rc1, rc2,
                                                    err1 + err2, *parts)
        if count:
            self.sample(s1 + s2)
            self.lines += len(chunk["lines"])
            self.records += 4 * accepted
            self.accepted += accepted
            self.rejects.update(reasons)
        self.record(problems, count, parts)

    def fill_op(self, query, lexicon, count=True):
        rc, err, seconds = self.call([
            "fill", "--lexicon", lexicon, "--target", query["beats"],
            "--left", query["left"], "--right", query["right"],
            "-o", self.path("fill.out")])
        results = self.read("fill.out").splitlines() if rc == 0 else []
        problems = []
        if rc != 0 or err:
            problems.append(f"fill exit {rc}: {err}")
        elif query["phrase"] not in results:
            problems.append(f"planted phrase {query['phrase']!r} missing "
                            f"for target {query['beats']}")
        if count:
            self.sample(seconds)
            self.lines += 1
            self.fill_results.append(len(results))
        self.record(problems, count, results)

    def eval_op(self, index, count=True):
        records = loadgen.eval_records(self.seed, index,
                                       self.spec["queries"])
        inp = self.write("pred.jsonl", (json.dumps(r, ensure_ascii=False)
                                        for r in records))
        rc, err, seconds = self.call(["eval", "-i", inp,
                                      "-o", self.path("eval.out")])
        report = self.read("eval.out") if rc == 0 else ""
        problems = []
        if rc != 0 or err:
            problems.append(f"eval exit {rc}: {err}")
        elif report.splitlines()[:1] != [f"n: {len(records)}"]:
            problems.append(f"eval n mismatch: {report[:40]!r} "
                            f"for {len(records)} records")
        if count:
            self.sample(seconds, evaluation=True)
            self.eval_records += len(records)
        self.record(problems, count, [report])

    # -- workload loops ------------------------------------------------

    def run(self):
        workload = self.spec["workload"]
        vocab = loadgen.vocabulary(self.seed)
        fixed = self.spec.get("ops")
        if workload == "infill":
            self.run_infill(fixed)
            return
        op = self.scan_op if workload == "scan" else self.prepare_op
        if fixed is not None:
            for index in range(fixed):
                op(index, vocab)
            return
        op("warm", vocab, count=False)
        deadline = time.perf_counter() + self.spec["seconds"]
        index = 0
        while time.perf_counter() < deadline:
            op(index, vocab)
            index += 1

    def run_infill(self, fixed):
        queries = self.spec["queries"]
        lexicon = self.spec["lexicon"]
        if fixed is not None:
            n_fill, n_eval = fixed
            for k in range(n_fill):
                self.fill_op(queries[k % len(queries)], lexicon)
            for index in range(n_eval):
                self.eval_op(index)
            return
        self.fill_op(queries[0], lexicon, count=False)
        self.eval_op("warm", count=False)
        deadline = time.perf_counter() + self.spec["seconds"]
        k = 0
        while time.perf_counter() < deadline:
            self.fill_op(queries[k % len(queries)], lexicon)
            k += 1
            if k % FILLS_PER_EVAL == 0:
                self.eval_op(k // FILLS_PER_EVAL - 1)
        if not self.eval_samples:
            self.eval_op(0)

    def result(self) -> dict:
        out = {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "samples": self.samples,
            "eval_samples": self.eval_samples, "lines": self.lines,
            "records": self.records, "eval_records": self.eval_records,
            "accepted": self.accepted, "rejects": dict(self.rejects),
            "fill_results": self.fill_results,
            "calibration": self.calibration,
            "eval_calibration": self.eval_calibration,
            "output_sha256": self.digest.hexdigest(),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "worker_rss_kb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.snapshot()
        return out


def check_scan(chunk, rc, out, err):
    """Line alignment, planted bad lines and the golden verse's beats."""
    if rc != 0:
        return [f"scan exit {rc}: {err}"]
    problems = []
    lines = out.split("\n")
    if lines[-1] != "" or len(lines) - 1 != len(chunk["lines"]):
        return [f"scan not line-aligned: {len(lines) - 1} out for "
                f"{len(chunk['lines'])} in"]
    bad = set(chunk["bad"])
    for lineno, line in enumerate(lines[:-1], start=1):
        if lineno in bad:
            if line:
                problems.append(f"bad line {lineno} scanned: {line!r}")
            continue
        transcription, _, beats = line.partition("\t")
        if not transcription or not beats or set(beats) - {"0", "1"}:
            problems.append(f"line {lineno} gave {line!r}")
    diagnosed = set()
    for line in err.splitlines():
        m = DIAGNOSTIC.match(line)
        if m is None:
            problems.append(f"unexpected stderr: {line!r}")
        else:
            diagnosed.add(int(m.group(1)))
    if diagnosed != bad:
        problems.append(f"diagnostics for {sorted(diagnosed)}, "
                        f"planted {sorted(bad)}")
    for lineno, want in chunk["golden"].items():
        got = lines[int(lineno) - 1].partition("\t")[2]
        if got != want:
            problems.append(f"golden line {lineno}: {got} != {want}")
    return problems


def check_prepare(chunk, rc1, rc2, err, norm, rejects, stats, masked):
    """Accept/reject bookkeeping, planted rejects and mask record shape."""
    if rc1 != 0 or rc2 != 0 or err:
        return [f"prepare exits {rc1}/{rc2}: {err}"], 0, Counter()
    problems = []
    accepted = norm.splitlines()
    reasons = Counter()
    rejected = {}
    for row in rejects.splitlines():
        lineno, _, reason = row.partition("\t")
        rejected[lineno] = reason
        reasons[reason] += 1
        if reason not in KNOWN_REASONS:
            problems.append(f"unknown reject reason {reason!r}")
    if len(accepted) + len(rejected) != len(chunk["lines"]):
        problems.append(f"{len(accepted)} accepted + {len(rejected)} "
                        f"rejected != {len(chunk['lines'])} lines")
    for lineno, reason in chunk["expect"].items():
        if rejected.get(lineno) != reason:
            problems.append(f"raw line {lineno}: want {reason}, "
                            f"got {rejected.get(lineno)}")
    if stats.splitlines()[:1] != [f"lines: {len(accepted)}"]:
        problems.append(f"stats report {stats[:30]!r}")
    records = masked.splitlines()
    if len(records) != 4 * len(accepted):
        problems.append(f"{len(records)} mask records for "
                        f"{len(accepted)} accepted lines")
        return problems, len(accepted), reasons
    for k, text in enumerate(records):
        rec = json.loads(text)
        words = accepted[k // 4].split(" ")
        start, length = rec["span"]
        if rec["target"] != " ".join(words[start:start + length]):
            problems.append(f"mask record {k}: target is not its span")
        if any(rec["input"].count(m) != 1 for m in MARKERS):
            problems.append(f"mask record {k}: markers not once each")
        if not rec["beats"] or set(rec["beats"]) - {"0", "1"}:
            problems.append(f"mask record {k}: beats {rec['beats']!r}")
    return problems, len(accepted), reasons


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    from arud.cli import main as cli_main
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    run = Run(spec, cli_main, tracer)
    run.run()
    Path(argv[2]).write_text(json.dumps(run.result()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
