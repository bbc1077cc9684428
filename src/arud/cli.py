"""Command-line front end for the prosody toolkit.

Streams-first: every subcommand reads newline-delimited UTF-8 from
standard input and writes data to standard output unless file paths are
given.  Diagnostics always go to the error stream so commands compose
in shell pipelines.  Exit codes: 0 success, 1 usage error, 2 I/O error.
A broken pipe (the reader stopped early, as in ``arud scan | head -1``)
ends the command with exit code 2 and no message.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

from . import __version__, corpus, masking, metrics
from .errors import ScriptError
from .filler import FillQuery, fill, index_lexicon
from .masking import MaskConfig, line_rng
from .scansion import scan_text
from .script import parse_line, render_line
from .tables import ENV_TABLE_DIR, data_version


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
    return jobs


def _open_in(stack: ExitStack, path: str):
    if path == "-":
        return sys.stdin
    return stack.enter_context(open(path, "r", encoding="utf-8"))


def _open_out(stack: ExitStack, path: str):
    if path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _pmap(fn, items, jobs: int):
    """Order-preserving map, optionally across processes."""
    if jobs <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        yield from executor.map(fn, items, chunksize=64)


# Worker functions must be importable for multiprocessing.

def _scan_one(args):
    text, verse_final, sentence_initial, golden = args
    try:
        scansion_line, beats = scan_text(
            text, verse_final=verse_final, sentence_initial=sentence_initial)
    except ScriptError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if golden:
        transcription = render_line(scansion_line) if scansion_line.words \
            else ""
        return True, f"{transcription}\t{beats}"
    return True, beats


def _normalize_one(args):
    raw, cfg = args
    return corpus.process_line(raw, cfg)


def _mask_one(args):
    index, text, cfg = args
    try:
        line = parse_line(text)
    except ScriptError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"
    out = []
    for repeat in range(cfg.per_line):
        rng = line_rng(cfg.seed, index, repeat)
        try:
            example = masking.build_training_example(line, cfg, rng)
        except ScriptError as exc:
            return index, None, f"{type(exc).__name__}: {exc}"
        out.append(example.to_json())
    return index, out, None


def _add_io_args(p: argparse.ArgumentParser):
    p.add_argument("-i", "--input", default="-", help="input path or -")
    p.add_argument("-o", "--output", default="-", help="output path or -")


def build_parser() -> Parser:
    parser = Parser(prog="arud", description=__doc__)
    parser.add_argument("--version", action="store_true",
                        help="print tool and table-data versions")
    parser.add_argument("--tables", metavar="DIR",
                        help="override the data table directory")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("scan", help="lines -> beat patterns")
    _add_io_args(p)
    p.add_argument("--verse-final", action="store_true")
    p.add_argument("--mid-sentence", action="store_true",
                   help="treat lines as sentence-medial")
    p.add_argument("--golden", action="store_true",
                   help="also emit the prosodic transcription")
    p.add_argument("--jobs", type=_jobs, default=1)

    p = sub.add_parser("normalize", help="raw lines -> scan-ready lines")
    _add_io_args(p)
    p.add_argument("--hemistichs", action="store_true",
                   help="input is tab-separated hemistich pairs")
    p.add_argument("--reject-log", metavar="PATH",
                   help="write rejection records here instead of stderr")
    p.add_argument("--stats", metavar="PATH",
                   help="write a diacritic statistics report")
    p.add_argument("--min-words", type=int, default=4)
    p.add_argument("--min-ratio", type=float, default=0.5)
    p.add_argument("--verse-final", action="store_true")
    for stage in ("known-words", "lam-kasra", "wasl-heuristic",
                  "silent-marking", "sukun-defaults"):
        p.add_argument(f"--no-{stage}", action="store_true",
                       help=f"disable the {stage.replace('-', ' ')} stage")
    p.add_argument("--jobs", type=_jobs, default=1)

    p = sub.add_parser("filter", help="report acceptance decisions")
    _add_io_args(p)
    p.add_argument("--min-words", type=int, default=4)
    p.add_argument("--min-ratio", type=float, default=0.5)

    p = sub.add_parser("stats", help="diacritic statistics report")
    _add_io_args(p)

    p = sub.add_parser("mask", help="corpus -> masked training records")
    _add_io_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--span-p", type=float, default=0.2)
    p.add_argument("--keep-p", type=float, default=0.2)
    p.add_argument("--sukun-drop", type=float, default=0.5)
    p.add_argument("--per-line", type=int, default=1)
    p.add_argument("--no-reduce", action="store_true",
                   help="keep context diacritics intact")
    p.add_argument("--jobs", type=_jobs, default=1)

    p = sub.add_parser("fill", help="rhythm-constrained phrase search")
    _add_io_args(p)
    p.add_argument("--lexicon", required=True, metavar="PATH")
    p.add_argument("--target", required=True, metavar="BEATS")
    p.add_argument("--left", default="", help="left context text")
    p.add_argument("--right", default="", help="right context text")
    p.add_argument("--max-words", type=int, default=3)
    p.add_argument("--max-results", type=int, default=100)
    p.add_argument("--verse-final", action="store_true")

    p = sub.add_parser("eval", help="prediction records -> rhythm report")
    _add_io_args(p)

    return parser


def _cmd_scan(args) -> int:
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        work = ((line.rstrip("\n"), args.verse_final,
                 not args.mid_sentence, args.golden) for line in src)
        for lineno, (ok, payload) in enumerate(
                _pmap(_scan_one, work, args.jobs), start=1):
            if ok:
                print(payload, file=dst)
            else:
                print("", file=dst)
                print(f"line {lineno}: {payload}", file=sys.stderr)
    return 0


def _cmd_normalize(args) -> int:
    cfg = corpus.PipelineConfig(
        min_words=args.min_words,
        min_ratio=args.min_ratio,
        known_words=not args.no_known_words,
        lam_kasra=not args.no_lam_kasra,
        wasl_heuristic=not args.no_wasl_heuristic,
        silent_marking=not args.no_silent_marking,
        sukun_defaults=not args.no_sukun_defaults,
        verse_final=args.verse_final,
    )
    stats = corpus.DiacriticStats()
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        reject = _open_out(stack, args.reject_log) if args.reject_log \
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
                yield raw, cfg

        for lineno, (text, reason) in enumerate(
                _pmap(_normalize_one, rows(), args.jobs), start=1):
            if text is None:
                print(f"{lineno}\t{reason}", file=reject)
                continue
            print(text, file=dst)
            stats.add_line(corpus.parse_line(text))
        if args.stats:
            with open(args.stats, "w", encoding="utf-8") as f:
                print(stats.render_report(), file=f)
    return 0


def _cmd_filter(args) -> int:
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        for raw in src:
            cleaned = corpus.clean_line(raw.rstrip("\n"))
            if not cleaned:
                print(corpus.REASON_FOREIGN_RESIDUE, file=dst)
                continue
            try:
                line = corpus.parse_line(cleaned)
            except ScriptError:
                print(corpus.REASON_FOREIGN_RESIDUE, file=dst)
                continue
            decision = corpus.filter_line(line, args.min_words,
                                          args.min_ratio)
            print(decision.reason, file=dst)
    return 0


def _cmd_stats(args) -> int:
    stats = corpus.DiacriticStats()
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        for lineno, raw in enumerate(src, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                stats.add_line(corpus.parse_line(raw))
            except ScriptError as exc:
                print(f"line {lineno}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        print(stats.render_report(), file=dst)
    return 0


def _cmd_mask(args) -> int:
    try:
        cfg = MaskConfig(
            span_p=args.span_p,
            keep_p=args.keep_p,
            sukun_drop=args.sukun_drop,
            seed=args.seed,
            per_line=args.per_line,
            reduce_context=not args.no_reduce,
        )
    except ValueError as exc:
        raise UsageError(f"arud mask: {exc}") from None
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        work = ((index, line.rstrip("\n"), cfg)
                for index, line in enumerate(src))
        for index, records, err in _pmap(_mask_one, work, args.jobs):
            if err is not None:
                print(f"line {index}: {err}", file=sys.stderr)
                continue
            for record in records:
                print(record, file=dst)
    return 0


def _cmd_fill(args) -> int:
    try:
        query = FillQuery(
            target=args.target,
            left_context=args.left,
            right_context=args.right,
            max_words=args.max_words,
            max_results=args.max_results,
            verse_final=args.verse_final,
        )
    except ValueError as exc:
        raise UsageError(f"arud fill: {exc}") from None
    with open(args.lexicon, "r", encoding="utf-8") as f:
        lexicon = index_lexicon(f)
    with ExitStack() as stack:
        dst = _open_out(stack, args.output)
        for phrase in fill(query, lexicon):
            print(phrase, file=dst)
    return 0


def _cmd_eval(args) -> int:
    with ExitStack() as stack:
        src = _open_in(stack, args.input)
        dst = _open_out(stack, args.output)
        records, bad = metrics.read_prediction_file(src)
        try:
            report = metrics.evaluate_predictions(records)
        except ScriptError as exc:
            print(f"eval: {exc}", file=sys.stderr)
            return 1
        print(report.render_report(), file=dst)
        if bad:
            print(f"malformed records skipped: {bad}", file=sys.stderr)
    return 0


COMMANDS = {
    "scan": _cmd_scan,
    "normalize": _cmd_normalize,
    "filter": _cmd_filter,
    "stats": _cmd_stats,
    "mask": _cmd_mask,
    "fill": _cmd_fill,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"arud {__version__} (tables {data_version(args.tables)})")
            return 0
        if args.tables:
            os.environ[ENV_TABLE_DIR] = args.tables
        if not args.command:
            raise UsageError(parser.format_usage())
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr, end="" if str(exc).endswith("\n")
              else "\n")
        return 1
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
