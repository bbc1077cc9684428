"""Subcommand behavior, exit codes and stream separation."""

import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_least

import arud
from arud import cli, corpus, filler
from arud.cli import main
from arud.filler import FillQuery
from arud.masking import MAX_PER_LINE, MaskConfig, generate_dataset
from arud.script import ARABIC_LETTERS, MARKS, TATWEEL, WASL_ALIF


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScan:
    def test_single_line(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, err = run(capsys, "scan", "-i", src)
        assert code == 0
        assert out == "1011\n"

    def test_bad_line_keeps_alignment(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\nبَمّ\nمَا\n")
        code, out, err = run(capsys, "scan", "-i", src)
        assert code == 0
        assert out == "1011\n\n10\n"
        assert "line 2" in err

    def test_golden_mode_emits_transcription(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, err = run(capsys, "scan", "--golden", "-i", src)
        assert code == 0
        transcription, beats = out.strip().split("\t")
        assert beats == "1011"
        assert transcription == "عَلْلَمَ"

    def test_verse_final_flag(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "قَتَلَ\n")
        _, plain, _ = run(capsys, "scan", "-i", src)
        _, final, _ = run(capsys, "scan", "--verse-final", "-i", src)
        assert plain == "111\n"
        assert final == "1110\n"

    def test_jobs_preserve_order(self, tmp_path, capsys):
        lines = ["عَلَّمَ", "مَا", "لَهُ مَا", "مَعًا"] * 5
        src = write(tmp_path, "in.txt", "\n".join(lines) + "\n")
        _, serial, _ = run(capsys, "scan", "-i", src)
        _, parallel, _ = run(capsys, "scan", "--jobs", "3", "-i", src)
        assert serial == parallel


# Line text without the two characters that end a line in a text file.
ANY_CHAR = st.characters(blacklist_categories=("Cs",),
                         blacklist_characters="\n\r")
ARABIC_CHAR = st.sampled_from(sorted(ARABIC_LETTERS | MARKS)
                              + [WASL_ALIF, TATWEEL, " ", "\t"])
LINES = st.lists(st.one_of(st.text(ANY_CHAR, max_size=12),
                           st.text(ARABIC_CHAR, max_size=24)),
                 min_size=1, max_size=6)
SCAN_FLAGS = st.sets(st.sampled_from(["--golden", "--verse-final",
                                      "--mid-sentence"]))


class TestScanFuzz:
    @given(LINES, SCAN_FLAGS)
    @settings(max_examples=300, deadline=None)
    def test_any_lines(self, lines, flags):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp, "in.txt")
            dst = Path(tmp, "out.txt")
            src.write_text("\n".join(lines) + "\n", encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["scan", *sorted(flags), "-i", str(src),
                             "-o", str(dst)])
            out = dst.read_text(encoding="utf-8").split("\n")
        assert code in (0, 1, 2)
        assert out[-1] == ""
        assert len(out) - 1 == len(lines)
        diagnostics = err.getvalue().split("\n")
        assert diagnostics[-1] == ""
        numbers = []
        for diagnostic in diagnostics[:-1]:
            match = re.match(r"line (\d+): ", diagnostic)
            assert match, diagnostic
            numbers.append(int(match.group(1)))
        assert numbers == sorted(set(numbers))
        assert all(1 <= n <= len(lines) and out[n - 1] == ""
                   for n in numbers)


FIG_LINE = "مِكَرٍّ مِفَرٍّ مُقْبِلٍ مُدْبِرٍ مَعًا"
SNAPSHOT_DIR = Path(__file__).parent / "data" / "behaviour_snapshot"
# Words of raw and scan-ready verse, so that fuzzed lines also reach the
# stages past filtering and the examples past scanning.
VERSE_WORDS = sorted({
    word
    for name in ("raw.txt", "mask_input.txt")
    for word in (SNAPSHOT_DIR / name).read_text(encoding="utf-8").split()})
VERSE_LINE = st.lists(st.tuples(st.sampled_from(VERSE_WORDS),
                                st.sampled_from([" ", " ", " ", "\t"])),
                      max_size=12).map(
    lambda pairs: "".join(word + gap for word, gap in pairs).strip(" "))
CORPUS_LINES = st.lists(st.one_of(st.text(ANY_CHAR, max_size=12),
                                  st.text(ARABIC_CHAR, max_size=24),
                                  VERSE_LINE),
                        min_size=1, max_size=6)


def _run_main(argv, lines):
    """`main(argv)` on `lines` as ``-i IN -o OUT``: the exit code, output
    lines, stderr lines, warnings logged under ``arud`` and side files.
    ``{tmp}`` in `argv` names the temporary directory for side files."""
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    logger = logging.getLogger("arud")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.txt")
        dst = Path(tmp, "out.txt")
        src.write_text("".join(line + "\n" for line in lines),
                       encoding="utf-8")
        err = io.StringIO()
        logger.addHandler(handler)
        try:
            with contextlib.redirect_stderr(err):
                code = main([arg.replace("{tmp}", tmp) for arg in argv]
                            + ["-i", str(src), "-o", str(dst)])
        finally:
            logger.removeHandler(handler)
        out = dst.read_text(encoding="utf-8").split("\n") \
            if dst.exists() else [""]
        sides = {path.name: path.read_text(encoding="utf-8")
                 for path in Path(tmp).iterdir()
                 if path.name not in ("in.txt", "out.txt")}
    assert out[-1] == ""
    diagnostics = err.getvalue().split("\n")
    assert diagnostics[-1] == ""
    return code, out[:-1], diagnostics[:-1], warnings, sides


def _line_numbers(texts, pattern, count):
    """The line numbers `pattern` reads from `texts`; each must name one
    of `count` input lines, in order, once."""
    numbers = []
    for text in texts:
        match = re.match(pattern, text)
        assert match, text
        numbers.append(int(match.group(1)))
    assert numbers == sorted(set(numbers))
    assert all(1 <= n <= count for n in numbers)
    return numbers


NORMALIZE_FLAGS = st.sets(st.sampled_from([
    "--hemistichs", "--no-known-words", "--no-lam-kasra",
    "--no-wasl-heuristic", "--no-silent-marking", "--no-sukun-defaults"]))


class TestNormalizeFuzz:
    @given(CORPUS_LINES, NORMALIZE_FLAGS, st.integers(-1, 8),
           st.floats(-0.5, 1.5), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_lines(self, lines, flags, min_words, min_ratio, reject_log):
        argv = ["normalize", *sorted(flags), f"--min-words={min_words}",
                f"--min-ratio={min_ratio}", "--stats", "{tmp}/stats"]
        if reject_log:
            argv += ["--reject-log", "{tmp}/rejects"]
        code, out, diagnostics, warnings, sides = _run_main(argv, lines)
        assert code == 0
        assert not warnings
        rows = sides["rejects"].split("\n") if reject_log else \
            diagnostics + [""]
        assert rows[-1] == ""
        rejected = _line_numbers(rows[:-1], r"(\d+)\t[a-z_]+$", len(lines))
        # Every input line is accepted or rejected, never both.
        assert len(out) + len(rejected) == len(lines)
        assert f"lines: {len(out)}" in sides["stats"]


# Flags that change only normalize's stages past filtering; `filter`
# has neither --hemistichs nor --no-known-words.
FILTER_COMPARABLE_FLAGS = NORMALIZE_FLAGS.map(
    lambda flags: flags - {"--hemistichs", "--no-known-words"})


class TestFilterAgreesWithNormalize:
    @given(CORPUS_LINES, FILTER_COMPARABLE_FLAGS, st.integers(-1, 8),
           st.floats(-0.5, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_any_lines(self, lines, flags, min_words, min_ratio):
        bounds = [f"--min-words={min_words}", f"--min-ratio={min_ratio}"]
        code, _, _, _, sides = _run_main(
            ["normalize", *sorted(flags), *bounds,
             "--reject-log", "{tmp}/rejects"], lines)
        assert code == 0
        rejected = dict(row.split("\t")
                        for row in sides["rejects"].split("\n")[:-1])
        code, reasons, diagnostics, warnings, _ = _run_main(
            ["filter", *bounds], lines)
        assert code == 0
        assert not diagnostics and not warnings
        assert len(reasons) == len(lines)
        assert set(reasons) <= set(corpus.FILTER_REASONS)
        for lineno, reason in enumerate(reasons, start=1):
            verdict = rejected.get(str(lineno), corpus.REASON_OK)
            # A line the verification scan rejects has passed the filter.
            if verdict not in corpus.FILTER_REASONS:
                verdict = corpus.REASON_OK
            assert reason == verdict, (lineno, lines[lineno - 1])


class TestMaskFuzz:
    @given(CORPUS_LINES, st.integers(1, 3), st.integers(-10, 10**6),
           st.floats(0.05, 0.95), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_lines(self, lines, per_line, seed, span_p, no_reduce):
        argv = ["mask", f"--seed={seed}", f"--per-line={per_line}",
                f"--span-p={span_p}"] + (["--no-reduce"] if no_reduce else [])
        code, out, diagnostics, warnings, _ = _run_main(argv, lines)
        assert code == 0
        assert not warnings
        failed = _line_numbers(diagnostics, r"line (\d+): ", len(lines))
        # A line gives all its examples or one diagnostic.
        assert len(out) == per_line * (len(lines) - len(failed))
        for record in out:
            assert set(json.loads(record)) == {"v", "input", "target",
                                               "beats", "span"}

    # MaskConfig rejects a --per-line above MAX_PER_LINE, so any integer
    # is safe to try.
    @given(st.one_of(
        st.tuples(st.sampled_from(["--span-p", "--keep-p", "--sukun-drop"]),
                  st.one_of(st.floats(), st.integers())),
        st.tuples(st.just("--per-line"), st.integers())))
    @settings(max_examples=100, deadline=None)
    def test_any_setting(self, setting):
        flag, value = setting
        code, out, diagnostics, warnings, _ = _run_main(
            ["mask", "--seed", "1", f"{flag}={value}"], [FIG_LINE])
        assert code in (0, 1)
        if code == 1:
            assert out == []
            assert diagnostics[0].startswith("arud mask")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)
RECORD_FIELDS = ["target_beats", "beats", "generated_text", "left_context",
                 "right_context", "verse_final", "coherence"]
CONTEXTS = st.sampled_from(VERSE_WORDS + ["", "   ", FIG_LINE])
# Well-formed records, each with up to two fields then set to any value.
RECORDS = st.builds(
    lambda record, changes: {**record, **changes},
    st.fixed_dictionaries(
        {"target_beats": st.text("01", min_size=1, max_size=8),
         "generated_text": CONTEXTS},
        optional={"left_context": CONTEXTS, "right_context": CONTEXTS,
                  "verse_final": st.booleans(),
                  "coherence": st.floats(0, 5)}),
    st.dictionaries(st.sampled_from(RECORD_FIELDS), JSON_VALUES,
                    max_size=2))
EVAL_LINES = st.lists(
    st.one_of(st.builds(json.dumps, st.one_of(JSON_VALUES, RECORDS)),
              st.text(ANY_CHAR, max_size=12)),
    min_size=1, max_size=6)
EVAL_REPORT = re.compile(
    r"n: (\d+)\nexact_accuracy: \d+\.\d\d\n"
    r"mean_levenshtein_similarity: -?\d+\.\d\d\n"
    r"scan_failure_count: \d+\n(mean_coherence: \S+\n)?$")


class TestEvalFuzz:
    @given(EVAL_LINES)
    @settings(max_examples=300, deadline=None)
    def test_any_records(self, lines):
        code, out, diagnostics, warnings, _ = _run_main(["eval"], lines)
        assert code in (0, 1)
        bad = _line_numbers(warnings, r"record (\d+) malformed, skipped: ",
                            len(lines))
        records = sum(1 for line in lines if line.strip()) - len(bad)
        if records == 0:
            assert code == 1
            assert diagnostics[0] == "eval: no records to evaluate"
            return
        assert code == 0
        report = EVAL_REPORT.match("".join(line + "\n" for line in out))
        assert report, out
        assert int(report.group(1)) == records
        assert diagnostics == ([f"malformed records skipped: {len(bad)}"]
                               if bad else [])


GOLDEN_WORDS = sorted({
    word
    for row in (Path(__file__).parent / "data" / "golden_scansion.tsv")
    .read_text(encoding="utf-8").splitlines() if not row.startswith("#")
    for word in row.split("\t")[0].split()})
FILL_TEXT = st.one_of(st.sampled_from(GOLDEN_WORDS),
                      st.text(ARABIC_CHAR, max_size=6),
                      st.text(ANY_CHAR, max_size=6))
FILL_CONTEXT = st.lists(FILL_TEXT, max_size=3).map(" ".join)
LEXICON_BYTES = st.one_of(
    st.lists(st.lists(FILL_TEXT, min_size=1, max_size=2).map(" ".join),
             max_size=8).map(
        lambda rows: "".join(row + "\n" for row in rows).encode("utf-8")),
    st.binary(max_size=40))


def _main_on_file(argv, data, *after):
    """`main` on `argv`, the path of a file holding the bytes `data`, then
    `after` and ``-o OUT``: the exit code, output text and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in")
        src.write_bytes(data)
        dst = Path(tmp, "out.txt")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, str(src), *after, "-o", str(dst)])
        out = dst.read_text(encoding="utf-8") if dst.exists() else ""
    return code, out, err.getvalue().replace(str(src), "IN")


def _utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


class TestFillFuzz:
    # Up to 50 words is safe only because `filler.MAX_PHRASES` bounds
    # every query.
    @given(LEXICON_BYTES, st.text("01", max_size=10), FILL_CONTEXT,
           FILL_CONTEXT, st.integers(0, 50), st.integers(0, 5),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_any_query(self, lexicon, target, left, right, max_words,
                       max_results, verse_final):
        flags = ["--target", target, f"--left={left}", f"--right={right}",
                 "--max-words", str(max_words), "--max-results",
                 str(max_results), *(["--verse-final"] if verse_final
                                     else [])]
        code, out, err = _main_on_file(["fill", *flags, "--lexicon"],
                                       lexicon)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert not _utf8(lexicon)
            assert err.startswith("arud: IN: not valid UTF-8 (")
        if code != 0:
            assert out == ""
            return
        phrases = out.splitlines()
        assert phrases == sorted(set(phrases))
        assert len(phrases) <= max_results
        assert all(1 <= len(phrase.split()) <= max_words
                   for phrase in phrases)

    def test_lexicon_not_utf8_refused_before_indexing(self, caplog):
        # The whole lexicon is decoded before any word is indexed, so
        # the decodable first line gives no skip warning of its own.
        with caplog.at_level("WARNING", logger="arud"):
            code, out, err = _main_on_file(["fill", "--target", "1",
                                            "--lexicon"], b"x\n\xc2")
        assert code == 2
        assert out == ""
        assert err.startswith("arud: IN: not valid UTF-8 (")
        assert err.count("\n") == 1
        assert caplog.records == []

    def test_lexicon_lines_as_file_iteration_gives_them(self, tmp_path,
                                                        caplog):
        # CRLF and CR end lines; U+2028 does not (a two-word entry).
        data = "مَا\r\nلَا\rمِنْ\u2028عَنْ\nقَدْ\n".encode("utf-8")
        path = tmp_path / "lex.txt"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as f:
            lexicon = filler.index_lexicon(f)
        expected = filler.fill(filler.FillQuery(target="1010", max_words=2),
                               lexicon)
        caplog.clear()
        with caplog.at_level("WARNING", logger="arud.filler"):
            code, out, _ = _main_on_file(
                ["fill", "--target", "1010", "--max-words", "2",
                 "--lexicon"], data)
        assert code == 0
        assert out.splitlines() == expected != []
        assert [r.getMessage() for r in caplog.records] == [
            "lexicon word 'مِنْ\\u2028عَنْ' skipped: "
            "lexicon entries must be single words"]

    @given(st.binary(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_scan_bytes(self, data):
        code, out, err = _main_on_file(["scan", "-i"], data)
        assert code == (0 if _utf8(data) else 2)
        if code == 2:
            # `scan` streams: the lines decoded before the bad bytes (a
            # sequence cut short at the end, as in b"\x00\n\xc2") are
            # scanned and diagnosed first.
            *diagnostics, last = err.rstrip("\n").split("\n")
            assert last.startswith("arud: IN: not valid UTF-8 (")
            assert all(re.match(r"line \d+: ", text) for text in diagnostics)

    @given(st.binary(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_eval_bytes(self, data):
        code, out, err = _main_on_file(["eval", "-i"], data)
        assert code in ((0, 1) if _utf8(data) else (2,))
        if code == 2:
            assert err.startswith("arud: IN: not valid UTF-8 (")


class TestNormalize:
    VERSE = "قِفَا نَبْكِ مِنْ ذِكْرَى حَبِيبٍ وَمَنْزِلِ"

    def test_accept_and_reject(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{self.VERSE}\nمَا لَهُ\n")
        out_path = str(tmp_path / "out.txt")
        code, out, err = run(capsys, "normalize", "-i", src, "-o", out_path)
        assert code == 0
        accepted = Path(out_path).read_text(encoding="utf-8").splitlines()
        assert len(accepted) == 1
        assert "too_few_words" in err

    def test_hemistich_mode(self, tmp_path, capsys):
        first = "مِكَرٍّ مِفَرٍّ مُقْبِلٍ"
        second = "مُدْبِرٍ مَعًا"
        src = write(tmp_path, "in.txt", f"{first}\t{second}\n")
        code, out, err = run(capsys, "normalize", "--hemistichs", "-i", src)
        assert code == 0
        assert len(out.strip().split()) == 5

    def test_stats_file(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{self.VERSE}\n")
        stats = str(tmp_path / "stats.txt")
        code, _, _ = run(capsys, "normalize", "-i", src, "--stats", stats)
        assert code == 0
        assert "lines: 1" in Path(stats).read_text(encoding="utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("with_stats", [False, True])
    def test_stats_built_only_when_asked(self, tmp_path, capsys, monkeypatch,
                                         jobs, with_stats):
        calls = []
        add_line = cli.corpus.DiacriticStats.add_line
        monkeypatch.setattr(cli.corpus.DiacriticStats, "add_line",
                            lambda self, line: calls.append(line)
                            or add_line(self, line))
        src = write(tmp_path, "in.txt",
                    f"{self.VERSE}\nمَا لَهُ\n{FIG_LINE}\n")
        argv = ["normalize", "--jobs", jobs, "-i", src,
                "-o", str(tmp_path / "out.txt")]
        if with_stats:
            argv += ["--stats", str(tmp_path / "stats.txt")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        accepted = (tmp_path / "out.txt").read_text(encoding="utf-8")
        assert len(accepted.splitlines()) == 2
        assert len(calls) == (2 if with_stats else 0)


    # Lines that pass the filter but whose scan drops a word: a lone
    # connective alif after a vowel, and a silent-only word.
    WORD_LOSING = ["مَا لَهُ ٱ عَلَّمَ مَعًا", "مَا لَهُ عَلَّمَ ا۠ مَعًا"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_mask_accepts_the_output(self, tmp_path, capsys, jobs):
        src = write(tmp_path, "in.txt",
                    "\n".join([self.VERSE, *self.WORD_LOSING, FIG_LINE])
                    + "\n")
        normalized, rejects = tmp_path / "out.txt", tmp_path / "rejects.tsv"
        code, _, _ = run(capsys, "normalize", "--jobs", jobs, "-i", src,
                         "-o", str(normalized), "--reject-log", str(rejects))
        assert code == 0
        assert rejects.read_text(encoding="utf-8").splitlines() == [
            "2\tscan_error", "3\tscan_error"]
        code, out, err = run(capsys, "mask", "--seed", "3", "--jobs", jobs,
                             "-i", str(normalized))
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 2


class TestLibraryDefaults:
    """The CLI's defaults and stage flags are the library's."""

    def parse(self, *argv):
        return cli.build_parser().parse_args(list(argv))

    @pytest.mark.parametrize("command", ["normalize", "filter"])
    def test_filter_thresholds(self, command):
        args = self.parse(command)
        cfg = corpus.PipelineConfig()
        assert (args.min_words, args.min_ratio) == (cfg.min_words,
                                                    cfg.min_ratio)

    def test_filter_line_defaults(self):
        params = inspect.signature(corpus.filter_line).parameters
        cfg = corpus.PipelineConfig()
        assert params["min_words"].default == cfg.min_words
        assert params["min_ratio"].default == cfg.min_ratio

    def test_mask(self):
        args = self.parse("mask", "--seed", "0")
        cfg = MaskConfig(seed=0)
        assert (args.span_p, args.keep_p, args.sukun_drop, args.seed,
                args.per_line, not args.no_reduce) == (
            cfg.span_p, cfg.keep_p, cfg.sukun_drop, cfg.seed,
            cfg.per_line, cfg.reduce_context)

    def test_fill(self):
        args = self.parse("fill", "--lexicon", "x", "--target", "1")
        query = FillQuery(target="1")
        assert (args.left, args.right, args.max_words, args.max_results,
                args.verse_final) == (
            query.left_context, query.right_context, query.max_words,
            query.max_results, query.verse_final)

    def test_stage_flags_are_config_switches(self):
        defaults = {f.name: f.default
                    for f in dataclasses.fields(corpus.PipelineConfig)}
        assert all(defaults[name] is True for name in corpus.STAGE_FLAGS)

    @pytest.mark.parametrize("name", [None, *corpus.STAGE_FLAGS])
    def test_no_flag_turns_off_its_stage(self, tmp_path, capsys,
                                         monkeypatch, name):
        built = []

        def normalize_lines(lines, cfg, *args, **kwargs):
            built.append(cfg)
            return iter(())

        monkeypatch.setattr(corpus, "normalize_lines", normalize_lines)
        src = write(tmp_path, "in.txt", "")
        argv = ["normalize", "-i", src]
        if name is not None:
            argv.append(f"--no-{name.replace('_', '-')}")
        assert run(capsys, *argv)[0] == 0
        expected = corpus.PipelineConfig()
        if name is not None:
            expected = dataclasses.replace(expected, **{name: False})
        assert built == [expected]


# Per subcommand, each on/off switch and a line whose output it changes.
SWITCH_WITNESSES = {
    "normalize": {
        # an empty second half rejects the line
        "--hemistichs": "قَالَ فِي بَيْتِهِ كَتَبَ\t",
        "--no-known-words": "قَالَ في بَيْتِهِ كَتَبَ",
        "--no-lam-kasra": "قَالَ لبَيْتِهِ مَا كَتَبَ",
        "--no-wasl-heuristic": "قَالَ لَهُ اسْمُ مَا كَتَبَ",
        "--no-silent-marking": "قَالُوْا لَهُ مَا كَتَبَ",
        "--no-sukun-defaults": "قَالَ مِن بَيْتِهِ كَتَبَ",
    },
    "scan": {
        "--verse-final": "قَتَلَ",
        "--mid-sentence": "ٱبْنُ مَا",
        "--golden": "مَا",
    },
}


def _switches(command):
    """The on/off flags the parser gives `command`."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return sorted(flag for action in sub.choices[command]._actions
                  if isinstance(action, argparse._StoreTrueAction)
                  for flag in action.option_strings)


class TestEverySwitchMatters:
    """A switch that changes no output fails here."""

    @pytest.mark.parametrize("command", sorted(SWITCH_WITNESSES))
    def test_every_switch_has_a_witness(self, command):
        assert _switches(command) == sorted(SWITCH_WITNESSES[command])

    @pytest.mark.parametrize("command, switch", [
        (command, switch) for command, witnesses in SWITCH_WITNESSES.items()
        for switch in witnesses])
    def test_switch_changes_its_witness(self, command, switch):
        line = SWITCH_WITNESSES[command][switch]
        off = _run_main([command], [line])
        on = _run_main([command, switch], [line])
        assert off[0] == on[0] == 0
        # output lines and diagnostics
        assert off[1:3] != on[1:3]

    def test_normalize_has_no_verse_final(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "مَا\n")
        code, out, err = run(capsys, "normalize", "--verse-final", "-i", src)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --verse-final" in err


def _workers():
    return {p.pid for p in multiprocessing.active_children()}


def _wait_gone(pids, seconds=30):
    """Wait until none of `pids` is a live child of this process."""
    deadline = time.monotonic() + seconds
    while _workers() & pids and time.monotonic() < deadline:
        time.sleep(0.01)
    return not _workers() & pids


def _pool_script(body):
    """A ``python -c`` program that runs `body` after defining
    ``normalize(out, jobs)``, which calls `main` on FIG_LINE, and
    ``workers()``."""
    return textwrap.dedent(f"""\
        import json, multiprocessing, os, sys, tempfile
        from arud.cli import main
        tmp = tempfile.mkdtemp()
        src = os.path.join(tmp, "in.txt")
        with open(src, "w", encoding="utf-8") as f:
            f.write({FIG_LINE!r} + "\\n")
        def normalize(out, jobs="2"):
            assert main(["normalize", "--jobs", jobs, "-i", src,
                         "-o", os.path.join(tmp, out)]) == 0
            with open(os.path.join(tmp, out), encoding="utf-8") as f:
                return f.read()
        def workers():
            return sorted(p.pid for p in multiprocessing.active_children())
        """) + textwrap.dedent(body)


def _run_script(body):
    """Run `_pool_script(body)`; kill its process group if it hangs."""
    env = dict(os.environ, PYTHONPATH=str(Path(arud.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _pool_script(body)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    assert err == ""
    return json.loads(out)


def _assert_dead(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestWorkerPool:
    """`--jobs N` above 1 reuses one pool of N workers per process."""

    def normalize(self, tmp_path, capsys, jobs="2"):
        src = write(tmp_path, "in.txt", (FIG_LINE + "\n") * 130)
        code, out, err = run(capsys, "normalize", "--jobs", jobs, "-i", src)
        assert code == 0
        return out

    def test_calls_share_the_workers(self, tmp_path, capsys):
        first = self.normalize(tmp_path, capsys)
        workers = _workers()
        assert len(workers) == 2
        assert self.normalize(tmp_path, capsys) == first
        assert _workers() == workers

    def test_other_worker_count_replaces_the_pool(self, tmp_path, capsys):
        first = self.normalize(tmp_path, capsys)
        workers = _workers()
        assert self.normalize(tmp_path, capsys, jobs="3") == first
        assert len(_workers()) == 3
        assert not _workers() & workers

    def test_killed_worker_is_replaced(self, tmp_path, capsys):
        first = self.normalize(tmp_path, capsys)
        workers = _workers()
        os.kill(min(workers), signal.SIGKILL)
        # The pool notices the death and stops its other worker.
        assert _wait_gone(workers)
        assert self.normalize(tmp_path, capsys) == first
        assert len(_workers()) == 2
        assert not _workers() & workers

    def test_pool_is_fed_in_batches(self):
        pulled = 0

        def items():
            nonlocal pulled
            for i in range(3 * cli._BATCH):
                pulled += 1
                yield f"a{i}"

        results = cli._pmap(str.upper, items(), 2)
        assert next(results) == "A0"
        assert pulled <= cli._BATCH
        assert list(results) == [f"A{i}" for i in range(1, 3 * cli._BATCH)]

    @pytest.mark.parametrize("jobs", [2, 3, 64])
    @pytest.mark.parametrize("count", [1, 2, 3, 100, 192, 4096, 4097])
    def test_each_worker_gets_one_chunk_per_batch(self, monkeypatch, jobs,
                                                  count):
        sent = []

        class Executor:
            def map(self, fn, batch, chunksize):
                sent.append((len(batch), chunksize))
                return map(fn, batch)

        monkeypatch.setattr(cli, "_executor", lambda workers: Executor())
        items = [f"a{i}" for i in range(count)]
        assert list(cli._pmap(str.upper, items, jobs)) == \
            [item.upper() for item in items]
        assert [size for size, _ in sent] == \
            [min(cli._BATCH, count - start)
             for start in range(0, count, cli._BATCH)]
        for size, chunksize in sent:
            chunks = [min(chunksize, size - start)
                      for start in range(0, size, chunksize)]
            # No worker takes a second chunk, and the largest chunk is as
            # small as any split of the batch among the workers allows.
            assert len(chunks) <= min(jobs, size)
            assert chunksize == -(-size // jobs)
            assert max(chunks) - min(chunks) < chunksize

    @given(st.one_of(st.integers(0, 300),
                     st.sampled_from([cli._BATCH - 1, cli._BATCH + 1])),
           st.integers(1, 3))
    @settings(max_examples=at_least(30), deadline=None)
    def test_real_pool_keeps_order(self, count, jobs):
        items = range(count)
        assert list(cli._pmap(hex, items, jobs)) == list(map(hex, items))

    def test_process_exits_and_leaves_no_worker(self):
        report = _run_script("""\
            first = normalize("a.txt")
            pids = workers()
            same = normalize("b.txt") == first and workers() == pids
            print(json.dumps({"pids": pids, "same": same}))
            """)
        assert len(report["pids"]) == 2
        assert report["same"]
        _assert_dead(report["pids"])

    def test_forked_child_builds_its_own_pool(self):
        report = _run_script("""\
            first = normalize("a.txt")
            pids = workers()
            def child(queue):
                queue.put((normalize("c.txt") == first, workers()))
            ctx = multiprocessing.get_context("fork")
            queue = ctx.Queue()
            proc = ctx.Process(target=child, args=(queue,))
            proc.start()
            same, child_pids = queue.get(timeout=30)
            proc.join(30)
            print(json.dumps({"pids": pids, "child": child_pids,
                              "same": same, "exit": proc.exitcode,
                              "after": workers()}))
            """)
        assert report["exit"] == 0
        assert report["same"]
        assert len(report["child"]) == 2
        assert not set(report["child"]) & set(report["pids"])
        assert report["after"] == report["pids"]
        _assert_dead(report["pids"] + report["child"])


# Good and bad lines for every parallel command: verse, a hemistich pair,
# a leading mark, a shadda without vowel, Latin and a two-word line.
MIXED_LINES = [TestNormalize.VERSE, FIG_LINE, "َعَلَمَ مَا", "بَمّ مَا",
               "مِكَرٍّ مِفَرٍّ مُقْبِلٍ\tمُدْبِرٍ مَعًا", "abc", "مَا لَهُ"]


class TestJobsAreByteIdentical:
    """Lines around the chunk and batch sizes give the same bytes at
    ``--jobs 1`` and ``2``: output, diagnostics and side files."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--golden"],
        ["normalize", "--hemistichs", "--stats", "{tmp}/stats",
         "--reject-log", "{tmp}/rejects"],
        ["mask", "--seed", "5", "--per-line", "2"]],
        ids=["scan", "normalize", "mask"])
    @pytest.mark.parametrize("count", [1, 2, 3, 64, 65, 129, 193])
    def test_same_bytes(self, argv, count):
        lines = [MIXED_LINES[i % len(MIXED_LINES)] for i in range(count)]
        serial = _run_main([*argv, "--jobs", "1"], lines)
        assert _run_main([*argv, "--jobs", "2"], lines) == serial
        code, out, diagnostics, warnings, sides = serial
        assert code == 0 and out and not warnings
        if count > 2:
            assert diagnostics or sides.get("rejects")


class TestColdStart:
    def test_import_loads_no_pool_machinery(self):
        # A fresh interpreter, without `site`: a `.pth` file there may
        # import any of these at start-up.
        env = dict(os.environ, PYTHONPATH=str(Path(arud.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, arud.cli; print(sorted("
             "{'multiprocessing', 'concurrent.futures', 'importlib.resources',"
             " 'tempfile', 'shutil', 'bz2', 'lzma'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestFilterAndStats:
    def test_filter_reasons(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt",
                    "مَا لَهُ\nمَا لَهُ عَلَّمَ مَعًا\n123\n")
        code, out, _ = run(capsys, "filter", "-i", src)
        assert code == 0
        assert out.splitlines() == ["too_few_words", "ok", "foreign_residue"]

    def test_filter_applies_known_words(self, tmp_path, capsys):
        # في is bare until the known-words stage completes it.
        src = write(tmp_path, "in.txt", "قَالَ في بَيْتِهِ كَتَبَ\n")
        assert run(capsys, "filter", "-i", src) == (0, "ok\n", "")
        assert run(capsys, "normalize", "-i", src) == \
            (0, "قَاْلَ فِيْ بَيْتِهِ كَتَبَ\n", "")

    def test_silence_mark_gives_way_to_a_moved_tanwin(self, tmp_path,
                                                      capsys):
        # The tanwin-fath written on the alif moves onto the silenced ب.
        src = write(tmp_path, "in.txt", "مَا لَهُ عَلَّمَ ب۠اً\n")
        assert run(capsys, "filter", "-i", src) == (0, "ok\n", "")
        assert run(capsys, "normalize", "-i", src) == \
            (0, "مَاْ لَهُ عَلَّمَ بًاْ\n", "")

    def test_stats_report(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, _ = run(capsys, "stats", "-i", src)
        assert code == 0
        assert "fatha: 3" in out and "shadda: 1" in out

    def test_stats_reports_a_bad_line_and_counts_the_rest(self, tmp_path,
                                                          capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\nمَاx\nعَلَّمَ\n")
        code, out, err = run(capsys, "stats", "-i", src)
        assert code == 0
        assert err == "line 2: ForeignCharacter: disallowed code point 'x'\n"
        assert "lines: 2" in out and "fatha: 6" in out


    @pytest.mark.parametrize("command", ["normalize", "filter"])
    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf",
                                       "Infinity"])
    def test_non_finite_min_ratio_is_usage_error(self, tmp_path, capsys,
                                                 command, value):
        # A nan bound would accept this line: no ratio compares below it.
        src = write(tmp_path, "in.txt", "مَا لَهُ علمَت كتبَت\n")
        assert run(capsys, "filter", "-i", src)[1] == "below_letter_ratio\n"
        code, out, err = run(capsys, command, f"--min-ratio={value}",
                             "-i", src)
        assert code == 1
        assert out == ""
        assert f"--min-ratio: must be finite, got {value!r}" in err

    @pytest.mark.parametrize("command", ["normalize", "filter"])
    def test_min_ratio_not_a_number_is_usage_error(self, tmp_path, capsys,
                                                   command):
        src = write(tmp_path, "in.txt", "مَا لَهُ عَلَّمَ مَعًا\n")
        code, out, err = run(capsys, command, "--min-ratio", "x", "-i", src)
        assert code == 1
        assert out == ""
        assert "--min-ratio: invalid float value: 'x'" in err


class TestMask:
    def test_seed_required(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, _, err = run(capsys, "mask", "-i", src)
        assert code == 1
        assert "seed" in err

    def test_records_are_json(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, _ = run(capsys, "mask", "--seed", "3", "-i", src)
        assert code == 0
        record = json.loads(out.strip())
        assert set(record) == {"v", "input", "target", "beats", "span"}

    def test_deterministic_across_jobs(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", (FIG_LINE + "\n") * 8)
        _, a, _ = run(capsys, "mask", "--seed", "11", "-i", src)
        _, b, _ = run(capsys, "mask", "--seed", "11", "--jobs", "4",
                      "-i", src)
        assert a == b

    @pytest.mark.parametrize("flag,value", [
        ("--span-p", "2"), ("--keep-p", "0"), ("--per-line", "0"),
        ("--per-line", "1000000000"),
        ("--per-line", str(MAX_PER_LINE + 1))])
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys,
                                                flag, value):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, "mask", "--seed", "3", flag, value,
                             "-i", src)
        assert code == 1
        assert out == ""
        assert err.startswith("arud mask: ")

    def test_short_line_diagnosed(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "مَا\n")
        code, out, err = run(capsys, "mask", "--seed", "3", "-i", src)
        assert code == 0
        assert out == ""
        assert "line 1:" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_same_records_and_skips_as_library(self, tmp_path, capsys,
                                                jobs):
        lines = [
            FIG_LINE,
            "َعَلَمَ مَا",          # unparseable: leading mark
            "مَا",                # one word
            "بَمّ مَا",             # fails to scan
            "مَا ٱ لَهُ",           # loses word alignment
            "لَهُ مَا عَلَّمَ",
            "",
            FIG_LINE,
        ]
        src = write(tmp_path, "in.txt", "\n".join(lines) + "\n")
        code, out, err = run(capsys, "mask", "--seed", "9", "--per-line",
                             "3", "--jobs", jobs, "-i", src)
        records = list(generate_dataset(lines, MaskConfig(seed=9,
                                                          per_line=3)))
        assert code == 0
        assert out.splitlines() == [ex.to_json() for _, ex in records]
        kept = {index for index, _ in records}
        skipped = [n for n in range(1, len(lines) + 1) if n - 1 not in kept]
        assert skipped == [2, 3, 4, 5, 7]
        assert [int(re.match(r"line (\d+): \w+: ", diag)[1])
                for diag in err.splitlines()] == skipped


class TestFill:
    def test_phrases_to_stdout(self, tmp_path, capsys):
        lex = write(tmp_path, "lex.txt", "لَهُ\nمَا\nعَلَّمَ\n")
        code, out, _ = run(capsys, "fill", "--lexicon", lex,
                           "--target", "11010")
        assert code == 0
        assert out.strip() == "لَهُ مَا"

    @pytest.mark.parametrize("flags", [
        ["--target", "2"], ["--target", "10", "--max-words", "0"]])
    def test_invalid_query_is_usage_error(self, tmp_path, capsys, flags):
        lex = write(tmp_path, "lex.txt", "مَا\n")
        code, out, err = run(capsys, "fill", "--lexicon", lex, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("arud fill: ")

    @pytest.mark.parametrize("flag", ["-i", "--input"])
    def test_reads_no_input_stream(self, tmp_path, capsys, flag):
        lex = write(tmp_path, "lex.txt", "مَا\n")
        code, out, err = run(capsys, "fill", "--lexicon", lex, "--target",
                             "10", flag, lex)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag, side, text", [("--left", "left", "abc"),
                                                  ("--right", "right", "x")])
    def test_unparseable_context_is_usage_error(self, tmp_path, capsys,
                                                flag, side, text):
        lex = write(tmp_path, "lex.txt", "مَا\n")
        code, out, err = run(capsys, "fill", "--lexicon", lex, "--target",
                             "10", flag, text)
        assert code == 1
        assert out == ""
        assert err.startswith(
            f"arud fill: {side} context does not parse: ForeignCharacter: ")

    def test_budget_ends_the_search(self, tmp_path, capsys, caplog,
                                    monkeypatch):
        monkeypatch.setattr(filler, "MAX_PHRASES", 30)
        lex = write(tmp_path, "lex.txt", "مَا\nلَا\nقَدْ\nمِنْ\n")
        code, out, err = run(capsys, "fill", "--lexicon", lex, "--target",
                             "10101010", "--max-words", "4")
        assert code == 0
        assert 0 < len(out.splitlines()) < 4 ** 4
        assert [record.getMessage() for record in caplog.records] == [
            "search stopped after 30 phrases; results may be incomplete"]


class TestEval:
    def test_report(self, tmp_path, capsys):
        records = "\n".join([
            json.dumps({"target_beats": "1011", "generated_text": "عَلَّمَ"},
                       ensure_ascii=False),
            json.dumps({"target_beats": "10", "generated_text": "مَا"},
                       ensure_ascii=False),
        ])
        src = write(tmp_path, "pred.jsonl", records + "\n")
        code, out, _ = run(capsys, "eval", "-i", src)
        assert code == 0
        assert "exact_accuracy: 100.00" in out

    def test_large_coherences_average_finitely(self, tmp_path, capsys):
        records = "".join(
            json.dumps({"target_beats": "10", "generated_text": "مَا",
                        "coherence": value}) + "\n"
            for value in (1e308, 1.5e308, -1.7e308, -1.7e308))
        src = write(tmp_path, "pred.jsonl", records)
        code, out, _ = run(capsys, "eval", "-i", src)
        assert code == 0
        mean = out.splitlines()[-1].removeprefix("mean_coherence: ")
        assert float(mean) == pytest.approx(-2.25e307)

    def test_malformed_records_skipped(self, tmp_path, capsys):
        records = "\n".join([
            "[1]",
            json.dumps({"target_beats": "10", "generated_text": 7}),
            json.dumps({"target_beats": "10", "generated_text": "مَا"},
                       ensure_ascii=False),
        ])
        src = write(tmp_path, "pred.jsonl", records + "\n")
        code, out, err = run(capsys, "eval", "-i", src)
        assert code == 0
        assert "n: 1" in out
        assert "malformed records skipped: 2" in err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("arud ")
        assert "tables" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "scan", "-i", "/nonexistent/in.txt")
        assert code == 2
        assert "I/O error" in err

    @pytest.mark.parametrize("argv", [
        ["scan", "-i"], ["eval", "-i"], ["normalize", "-i"],
        ["fill", "--target", "10", "--lexicon"]])
    def test_input_not_utf8(self, tmp_path, capsys, argv):
        src = tmp_path / "in.txt"
        src.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *argv, str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"arud: {src}: not valid UTF-8 (")

    def test_stdin_not_utf8(self):
        # Strict decoding, as in a UTF-8 locale; the C locale would let
        # the bytes through as surrogates, which parsing then rejects.
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
                   PYTHONPATH=str(Path(arud.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "arud.cli", "scan"], input=b"\xff\xfe\n",
            capture_output=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith(
            "arud: <stdin>: not valid UTF-8 (")

    @pytest.mark.parametrize("argv", [
        ["scan"], ["normalize"], ["mask", "--seed", "1"]])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, argv):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, *argv, "--jobs", "0", "-i", src)
        assert code == 1
        assert out == ""
        assert "--jobs: must be at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["scan"], ["normalize"], ["mask", "--seed", "1"]])
    def test_jobs_not_an_integer_is_usage_error(self, tmp_path, capsys,
                                                argv):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, *argv, "--jobs", "x", "-i", src)
        assert code == 1
        assert out == ""
        assert "--jobs: invalid int value: 'x'" in err

    @pytest.mark.parametrize("argv", [
        ["scan"], ["normalize"], ["mask", "--seed", "1"]])
    def test_jobs_above_max_is_usage_error(self, tmp_path, capsys,
                                           monkeypatch, argv):
        # Refused while parsing: no worker pool is built.
        monkeypatch.setattr(cli, "_executor", None)
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, *argv, "--jobs",
                             str(cli.MAX_JOBS + 1), "-i", src)
        assert code == 1
        assert out == ""
        assert f"--jobs: must be at most {cli.MAX_JOBS}, got " \
            f"{cli.MAX_JOBS + 1}" in err

    def test_broken_pipe_ends_quietly(self, tmp_path):
        # Far more output than a pipe buffers, so writes continue after
        # the reader has closed its end.
        src = write(tmp_path, "in.txt", (FIG_LINE + "\n") * 3000)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(arud.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "arud.cli", "scan", "--golden", "-i", src],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b""
        assert code == 2

    def test_broken_pipe_elsewhere_keeps_stdout(self, tmp_path, monkeypatch):
        # A pipe that broke on another stream (say an -o FIFO) must not
        # redirect the stdout of a process that calls main in-process.
        def broken(args):
            raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setitem(cli.COMMANDS, "scan", broken)
        path = tmp_path / "stdout.txt"
        with open(path, "w", encoding="utf-8") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["scan"]) == 2
            out.write("still here\n")
        assert path.read_text(encoding="utf-8") == "still here\n"
