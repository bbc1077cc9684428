"""Command-line front end for the prosody toolkit.

Streams-first: every subcommand reads newline-delimited UTF-8 from
standard input and writes data to standard output unless file paths are
given.  Diagnostics always go to the error stream so commands compose
in shell pipelines.  Exit codes: 0 success, 1 usage error, 2 I/O error,
input that is not UTF-8, or malformed data table.  A broken pipe (the
reader stopped early, as in ``arud scan | head -1``) ends the command
with exit code 2 and no message.

Each subcommand is declared once, as one entry of `COMMANDS`: its help
line, the argument naming the file it reads (``--input``, or
``--lexicon`` for ``fill``), its settings class, its run and its
options; `build_parser` is one loop over the table.  An option that sets
a settings field is named as the field and takes its default from the
class, so the settings are built from the parsed arguments by field
name.  `main` is the one driver: it parses the arguments, loads the
tables, builds the settings (a value they refuse is a usage error),
opens the input and then the output, and calls the run, which reads and
writes those two streams.  Only
``normalize`` opens files of its own, its ``--reject-log`` and
``--stats``, so a run that fails leaves no empty report.

``--jobs N`` above 1 runs the per-line work in a pool of N worker
processes; N is at most `MAX_JOBS`.  The pool is fed `_BATCH` lines at a
time, so a parallel command holds at most that many lines and their
results, however long its input.  Each batch is split into one chunk
per worker, so a parallel command's first output line waits for the
first worker's whole chunk: up to 2,048 lines at ``--jobs 2``.  A
process keeps one pool for its lifetime, so a program that calls `main`
many times forks its workers once and they keep their memos warm.  The
workers are forked at the first parallel command and see module state
from that moment.  A pool of another size replaces it, and a forked
child builds its own.  A one-shot command forks its workers once and
stops them when it exits.

A bare ``os.fork()`` child of a process that has run a parallel command
inherits `multiprocessing`'s record of the pool's workers.  When that
child exits normally, `multiprocessing`'s exit hook prints an ignored
``AssertionError: can only join a child process``; the child's output
and exit status are still right.  End such a child with `os._exit`, or
start it through `multiprocessing`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import itertools
import math
import os
import sys
from contextlib import ExitStack

from . import __version__, corpus, masking, metrics
from .errors import ScriptError, TableError
from .filler import FillQuery, fill, index_lexicon
from .masking import MaskConfig
from .scansion import scan_text
from .script import parse_line, render_line
from .tables import TableSet, data_version, default_tables

ENV_TABLE_DIR = "ARUD_TABLE_DIR"
# Largest --jobs: a fork pool starts all its workers at once, each with
# its own copy of the tables and memos.
MAX_JOBS = 64
# Lines a parallel command sends to its pool at once, cut into one
# contiguous chunk per worker.
_BATCH = 4096


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    if jobs > MAX_JOBS:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_JOBS}, got {jobs}")
    return jobs


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _open(stack: ExitStack, path: str, mode: str):
    """`path` opened for reading ("r") or writing ("w"), or the standard
    stream for "-"."""
    if path == "-":
        return sys.stdin if mode == "r" else sys.stdout
    return stack.enter_context(open(path, mode, encoding="utf-8"))


# The process's worker pool as (pid that built it, workers, executor),
# or None before the first parallel command.
_pool = None


def _executor(jobs: int):
    """This process's `concurrent.futures.ProcessPoolExecutor` of `jobs`
    workers, built on first use.

    A pool of another size is shut down first; a pool inherited through
    a fork belongs to the parent and is left alone.  The pool machinery
    is imported here, so a command at ``--jobs 1`` never loads it.
    """
    global _pool
    import multiprocessing.util
    from concurrent.futures import ProcessPoolExecutor

    if _pool is not None:
        pid, workers, executor = _pool
        if pid == os.getpid() and workers == jobs:
            return executor
        _drop_pool()
    _pool = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs))
    # A multiprocessing child joins its own children on exit before the
    # pool would stop its workers, so a finalizer stops them first.  It
    # must run before those of the pool's queues (exit priority 10).
    multiprocessing.util.Finalize(None, _drop_pool, exitpriority=20)
    return _pool[2]


def _drop_pool():
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown()
    _pool = None


def _pmap(fn, items, jobs: int):
    """Order-preserving map, optionally across processes."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures.process import BrokenProcessPool

    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        # One chunk per worker: each chunk costs a round trip to the pool.
        chunksize = math.ceil(len(batch) / jobs)
        # Executor.map submits every chunk of the batch before it yields
        # a result, so a pool found broken at submission can be replaced
        # and the batch sent again: none of it has run.
        try:
            results = _executor(jobs).map(fn, batch, chunksize=chunksize)
        except BrokenProcessPool:
            _drop_pool()
            results = _executor(jobs).map(fn, batch, chunksize=chunksize)
        try:
            yield from results
        except BrokenProcessPool:
            _drop_pool()
            raise


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _write(results, dst):
    """Write per-line results: (output lines, error text or None) each.

    The lines are written to `dst` directly, each with its newline, and
    an error goes to stderr under its 1-based line number.
    """
    write = dst.write
    for lineno, (lines, err) in enumerate(results, start=1):
        for line in lines:
            write(line + "\n")
        if err is not None:
            print(f"line {lineno}: {err}", file=sys.stderr)


# Worker functions must be importable for multiprocessing; each command
# binds its run's settings to one with functools.partial.  Each returns
# what `_write` takes for its line.

def _scan_one(line, verse_final, sentence_initial, golden, tables):
    """The line's beats, or an empty line and an error text: output
    stays line-aligned."""
    try:
        scansion_line, beats = scan_text(
            line.rstrip("\n"), verse_final=verse_final, tables=tables,
            sentence_initial=sentence_initial)
    except ScriptError as exc:
        return ("",), _describe(exc)
    if golden:
        transcription = render_line(scansion_line) if scansion_line.words \
            else ""
        return (f"{transcription}\t{beats}",), None
    return (beats,), None


def _mask_one(numbered_line, cfg, tables):
    """JSON records of the line at 0-based `index`, or an error text."""
    index, line = numbered_line
    try:
        examples = masking.line_examples(parse_line(line.rstrip("\n")),
                                         index, cfg, tables)
    except ScriptError as exc:
        return (), _describe(exc)
    return [example.to_json() for example in examples], None


# Each subcommand's run: it reads `src`, writes its data to `dst` and
# returns its exit code, or None for 0.  A subcommand with settings gets
# them built from its arguments as a fourth argument.

def _cmd_scan(args, src, dst):
    scan_one = functools.partial(
        _scan_one, verse_final=args.verse_final,
        sentence_initial=not args.mid_sentence, golden=args.golden,
        tables=args.tables)
    _write(_pmap(scan_one, src, args.jobs), dst)


def _cmd_normalize(args, src, dst, cfg):
    stats = corpus.DiacriticStats() if args.stats else None
    # The side files are opened here, not by `main`: a run that fails
    # before its end leaves no empty statistics report.
    with ExitStack() as stack:
        reject = _open(stack, args.reject_log, "w") if args.reject_log \
            else sys.stderr

        def rows():
            for raw in src:
                raw = raw.rstrip("\n")
                if args.hemistichs and "\t" in raw:
                    first, _, second = raw.partition("\t")
                    try:
                        raw = corpus.join_hemistichs(first, second)
                    except ScriptError:
                        raw = ""
                yield raw

        for lineno, text, reason in corpus.normalize_lines(
                rows(), cfg, args.tables, stats,
                map=functools.partial(_pmap, jobs=args.jobs)):
            if text is None:
                reject.write(f"{lineno}\t{reason}\n")
            else:
                dst.write(text + "\n")
        if stats is not None:
            with open(args.stats, "w", encoding="utf-8") as f:
                f.write(stats.render_report() + "\n")


def _cmd_filter(args, src, dst, cfg):
    for raw in src:
        _, reason = corpus.accept_line(raw.rstrip("\n"), cfg, args.tables)
        dst.write(reason + "\n")


def _cmd_stats(args, src, dst):
    stats = corpus.DiacriticStats()

    def add(raw):
        raw = raw.strip()
        if raw:
            try:
                stats.add_line(corpus.parse_line(raw))
            except ScriptError as exc:
                return (), _describe(exc)
        return (), None

    _write(map(add, src), dst)
    dst.write(stats.render_report() + "\n")


def _cmd_mask(args, src, dst, cfg):
    mask_one = functools.partial(_mask_one, cfg=cfg, tables=args.tables)
    _write(_pmap(mask_one, enumerate(src), args.jobs), dst)


def _cmd_fill(args, src, dst, query):
    # Decoded whole, so a lexicon that is not UTF-8 is refused before any
    # of its words is indexed or warned about; the lines are those that
    # iterating `src` gives.
    lexicon = index_lexicon(io.StringIO(src.read()), args.tables)
    for phrase in fill(query, lexicon, args.tables):
        dst.write(phrase + "\n")


def _cmd_eval(args, src, dst):
    records, bad = metrics.read_prediction_file(src)
    try:
        report = metrics.evaluate_predictions(records, args.tables)
    except ScriptError as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return 1
    dst.write(report.render_report() + "\n")
    if bad:
        print(f"malformed records skipped: {bad}", file=sys.stderr)


def _opt(*flags, **kwargs):
    return flags, kwargs


# Options that more than one subcommand takes.
_JOBS = _opt("--jobs", type=_jobs, default=1)
_THRESHOLDS = (_opt("--min-words", type=int),
               _opt("--min-ratio", type=_finite))
_VERSE_FINAL = _opt("--verse-final", action="store_true")

# Each subcommand as (its help line, the argument naming the file it
# reads, its settings class or None, its run, its options after
# ``-i/--input``, given when it reads "input", and ``-o/--output``).  An
# option that sets a settings field is named as the field and takes its
# default from the class.
COMMANDS = {
    "scan": ("lines -> beat patterns", "input", None, _cmd_scan, (
        _VERSE_FINAL,
        _opt("--mid-sentence", action="store_true",
             help="treat lines as sentence-medial"),
        _opt("--golden", action="store_true",
             help="also emit the prosodic transcription"),
        _JOBS)),
    "normalize": ("raw lines -> scan-ready lines", "input",
                  corpus.PipelineConfig, _cmd_normalize, (
        _opt("--hemistichs", action="store_true",
             help="input is tab-separated hemistich pairs"),
        _opt("--reject-log", metavar="PATH",
             help="write rejection records here instead of stderr"),
        _opt("--stats", metavar="PATH",
             help="write a diacritic statistics report"),
        *_THRESHOLDS,
        *(_opt(f"--no-{name.replace('_', '-')}", action="store_false",
               dest=name, help=f"disable the {name.replace('_', ' ')} stage")
          for name in corpus.STAGE_FLAGS),
        _JOBS)),
    # No stage switches: `filter` runs every stage.
    "filter": ("report acceptance decisions", "input", corpus.PipelineConfig,
               _cmd_filter, _THRESHOLDS),
    "stats": ("diacritic statistics report", "input", None, _cmd_stats, ()),
    "mask": ("corpus -> masked training records", "input", MaskConfig,
             _cmd_mask, (
        _opt("--seed", type=int, required=True),
        _opt("--span-p", type=float),
        _opt("--keep-p", type=float),
        _opt("--sukun-drop", type=float),
        _opt("--per-line", type=int,
             help=f"examples per line, 1 to {masking.MAX_PER_LINE}"),
        _opt("--no-reduce", action="store_false", dest="reduce_context",
             help="keep context diacritics intact"),
        _JOBS)),
    "fill": ("rhythm-constrained phrase search", "lexicon", FillQuery,
             _cmd_fill, (
        _opt("--lexicon", required=True, metavar="PATH",
             help="lexicon path or -"),
        _opt("--target", required=True, metavar="BEATS"),
        _opt("--left", dest="left_context", metavar="LEFT",
             help="left context text"),
        _opt("--right", dest="right_context", metavar="RIGHT",
             help="right context text"),
        _opt("--max-words", type=int),
        _opt("--max-results", type=int),
        _VERSE_FINAL)),
    "eval": ("prediction records -> rhythm report", "input", None, _cmd_eval,
             ()),
}


@functools.cache
def build_parser() -> Parser:
    """The argument parser, built once per process and shared."""
    parser = Parser(prog="arud", description="A prosody engine and dataset "
                    "toolkit for classical Arabic verse.")
    parser.add_argument("--version", action="store_true",
                        help="print tool and table-data versions")
    parser.add_argument("--tables", metavar="DIR", dest="table_dir",
                        help="data table directory (default: "
                        f"${ENV_TABLE_DIR}, else the shipped tables)")
    sub = parser.add_subparsers(dest="command")
    for name, (text, reads, cls, _, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if reads == "input":
            p.add_argument("-i", "--input", default="-",
                           help="input path or -")
        p.add_argument("-o", "--output", default="-",
                       help="output path or -")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        if cls is not None:
            p.set_defaults(**{f.name: f.default
                              for f in dataclasses.fields(cls)
                              if f.default is not dataclasses.MISSING})
    return parser


def _settings(cls, args):
    """The settings of class `cls` from the parsed arguments, each field
    from the argument of its name."""
    return cls(**{f.name: getattr(args, f.name)
                  for f in dataclasses.fields(cls)})


def main(argv=None) -> int:
    """Run one subcommand: parse `argv`, load the tables, build the
    settings, open the input and then the output, and call the run."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        table_dir = args.table_dir or os.environ.get(ENV_TABLE_DIR)
        if args.version:
            print(f"arud {__version__} (tables {data_version(table_dir)})")
            return 0
        if not args.command:
            raise UsageError(parser.format_usage())
        _, reads, cls, run, _ = COMMANDS[args.command]
        args.tables = TableSet.load(table_dir) if table_dir \
            else default_tables()
        try:
            settings = [] if cls is None else [_settings(cls, args)]
        except ValueError as exc:
            raise UsageError(f"arud {args.command}: {exc}") from None
        with ExitStack() as stack:
            src = _open(stack, getattr(args, reads), "r")
            dst = _open(stack, args.output, "w")
            return run(args, src, dst, *settings) or 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr, end="" if str(exc).endswith("\n")
              else "\n")
        return 1
    except TableError as exc:
        print(f"arud: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        path = getattr(args, reads)
        name = "<stdin>" if path == "-" else path
        print(f"arud: {name}: not valid UTF-8 ({exc})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Subclass of OSError, so it must be caught first.
        _quiet_broken_stdout()
        return 2
    except OSError as exc:
        print(f"arud: I/O error: {exc}", file=sys.stderr)
        return 2


def _quiet_broken_stdout():
    """Point stdout at the null device if its reader has gone.

    Output still buffered in sys.stdout would otherwise be flushed into
    the closed pipe at interpreter exit, which prints an error and
    changes the exit code.  A pipe that broke elsewhere (an ``-o`` FIFO)
    leaves stdout as it is.
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
