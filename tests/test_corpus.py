"""Cleaning, filtering, normalization heuristics and the full pipeline."""

import pickle
import random
import unicodedata
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arud import corpus, filler, masking, scansion, tables as tables_module
from arud.errors import (
    DanglingWasl,
    EmptyHemistich,
    ScanError,
    ScriptError,
    ShaddaWithoutVowel,
    UnderDiacritized,
)
from arud.corpus import (
    DiacriticStats,
    FilterDecision,
    PipelineConfig,
    apply_wasl_heuristic,
    assign_default_sukun,
    clean_line,
    compute_stats,
    diacritize_known_words,
    filter_line,
    join_hemistichs,
    mark_silent_letters,
    normalize_lines,
    process_line,
    run_pipeline,
)
from arud.scansion import scan, scan_text
from arud.tables import TableSet, default_tables
from arud.script import (
    ALIF,
    ALIF_MAKSURA,
    ARABIC_LETTERS,
    LAM,
    MARKS,
    MEMO_SIZE,
    SHADDA,
    TANWIN_FATH,
    TATWEEL,
    WASL_ALIF,
    WAW,
    Grapheme,
    ScriptLine,
    fix_diacritic_order,
    parse_line,
    render_line,
)


class TestJoinHemistichs:
    def test_joins_with_space(self):
        assert join_hemistichs("أ ب ج د", "ه و ز ح") == "أ ب ج د ه و ز ح"

    def test_empty_half(self):
        with pytest.raises(EmptyHemistich):
            join_hemistichs("x", "  ")


class TestCleanLine:
    def test_digits_and_punctuation_removed(self):
        assert clean_line("قَالَ 123 لَهُ!") == "قَالَ لَهُ"

    def test_diacritic_on_latin_letter_dropped(self):
        assert clean_line("aَ مَا") == "مَا"

    def test_clean_text_unchanged(self):
        assert clean_line("مَا") == "مَا"

    def test_mark_order_canonicalized(self):
        from arud.script import FATHA, SHADDA
        assert clean_line("م" + FATHA + SHADDA) == "م" + SHADDA + FATHA

    def test_nothing_left(self):
        assert clean_line("123 !!") == ""


def whole_line_clean(raw):
    """`clean_line` as one loop over the whole line, without a memo."""
    text = unicodedata.normalize("NFC", raw)
    kept = []
    host_kept = False
    for ch in text:
        if ch in ARABIC_LETTERS:
            kept.append(ch)
            host_kept = True
        elif ch in MARKS:
            if host_kept:
                kept.append(ch)
        elif ch.isspace():
            kept.append(" ")
            host_kept = False
        elif ch == TATWEEL or unicodedata.category(ch).startswith("M"):
            continue
        else:
            host_kept = False
    collapsed = " ".join("".join(kept).split())
    if not collapsed:
        return ""
    return fix_diacritic_order(collapsed)


# Arabic letters and marks, tatweel, the madda and hamza combining marks
# outside the nine-mark inventory (alone and after the letters NFC
# composes them with), and whitespace that is not a plain space, next to
# any other character.
RAW_TEXT = st.lists(st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from(sorted(ARABIC_LETTERS | MARKS) + [
        TATWEEL, "\u0653", "\u0654", "\u0655", "\u0627\u0653",
        "\u0627\u0654", "\u0627\u0655", "\u0648\u0654", "\u064a\u0654",
        " ", "\u00a0", "\u2000", "\u3000", "\u0085", "\u001c"])),
    max_size=40).map("".join)


class TestCleanLineByChunks:
    """`clean_line` cleans chunk by chunk; the result is the whole-line
    loop's."""

    @given(RAW_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_same_as_whole_line(self, raw):
        expected = whole_line_clean(raw)
        assert clean_line(raw) == expected
        assert clean_line(raw) == expected

    def test_memo_stays_at_its_size(self):
        for n in range(MEMO_SIZE + 50):
            process_line(f"{n} مَا{n}")
        assert len(corpus._words) == MEMO_SIZE


class TestFilterLine:
    def test_too_few_words(self):
        decision = filter_line(parse_line("مَا لَهُ عَلَّمَ"))
        assert decision == FilterDecision("too_few_words")

    def test_bare_word(self):
        decision = filter_line(parse_line("مَا لَهُ عَلَّمَ علم"))
        assert decision == FilterDecision("word_undiacritized")

    def test_below_ratio(self):
        # one mark on a four-letter word: 25% < 50%
        decision = filter_line(parse_line("مَا لَهُ عَلَّمَ مَنزلا"))
        assert decision == FilterDecision("below_letter_ratio")

    def test_accepted(self):
        decision = filter_line(parse_line("مَا لَهُ عَلَّمَ مَعًا"))
        assert decision == FilterDecision("ok")

    @pytest.mark.parametrize("reason", corpus.FILTER_REASONS)
    def test_accepted_only_for_ok(self, reason):
        assert FilterDecision(reason).accepted == (reason == "ok")

    def test_unknown_reason_refused(self):
        with pytest.raises(ValueError, match="unknown reason"):
            FilterDecision("too_short")

    @given(st.permutations(["مَا", "لَهُ", "عَلَّمَ", "مَعًا", "علم"]))
    def test_reorder_invariance(self, words):
        # the decision is a property of the word multiset
        decision = filter_line(parse_line(" ".join(words)))
        assert decision.reason == "word_undiacritized"


class TestWaslHeuristic:
    def test_article_after_vowel(self):
        line = apply_wasl_heuristic(parse_line("وَالشَّمْس"))
        assert line.words[0][1].is_wasl

    def test_line_initial_before_sukun(self):
        line = apply_wasl_heuristic(parse_line("انْطَلَقَ"))
        assert line.words[0][0].is_wasl

    def test_hamza_seat_untouched(self):
        line = apply_wasl_heuristic(parse_line("أَكَلَ"))
        assert not any(g.is_wasl for g in line.graphemes())

    def test_long_vowel_alif_untouched(self):
        # the alif of a long /a:/ precedes a bare letter, not an
        # explicit sukun: must not become connective
        line = apply_wasl_heuristic(parse_line("قَال"))
        assert not any(g.is_wasl for g in line.graphemes())


class TestSilentMarking:
    def test_plural_waw_alif(self):
        line = mark_silent_letters(parse_line("ذَهَبُوا"))
        assert line.words[0][-1].silent

    def test_amr_waw(self):
        line = mark_silent_letters(parse_line("عَمْرٌو"))
        assert line.words[0][-1].silent

    def test_plain_word_unchanged(self):
        line = mark_silent_letters(parse_line("كَتَبَ"))
        assert not any(g.silent for g in line.graphemes())


class TestDefaultSukun:
    def test_fills_bare_letters(self):
        # both the bare alif and the bare lam receive sukun
        line = assign_default_sukun(parse_line("قَال"))
        assert render_line(line) == "قَاْلْ"

    def test_never_overwrites(self):
        src = parse_line("لَهُو مَا")
        out = assign_default_sukun(src)
        for a, b in zip(src.graphemes(), out.graphemes()):
            if a.vowel is not None:
                assert b.vowel == a.vowel
        assert scan_text(render_line(out))[1] == "11010"


class TestKnownWords:
    def test_bare_min_diacritized(self):
        line = diacritize_known_words(parse_line("مِن"))
        assert render_line(line) == "مِنْ"

    def test_conflict_blocks(self):
        line = diacritize_known_words(parse_line("مَن"))
        assert render_line(line) == "مَن"

    def test_absent_word_unchanged(self):
        line = diacritize_known_words(parse_line("كتب"))
        assert render_line(line) == "كتب"


class TestStats:
    def test_single_word(self):
        stats = compute_stats([parse_line("مَا")])
        assert stats.counts["fatha"] == 1
        assert stats.total_diacritics == 1
        assert stats.total_letters == 2

    def test_allama(self):
        stats = compute_stats([parse_line("عَلَّمَ")])
        assert stats.counts["fatha"] == 3
        assert stats.counts["shadda"] == 1
        assert stats.total_diacritics == 4
        assert stats.total_letters == 3

    def test_empty_stream(self):
        stats = compute_stats([])
        assert stats.total_diacritics == 0 and stats.lines == 0

    def test_report_format(self):
        report = compute_stats([parse_line("مَا")]).render_report()
        assert "fatha: 1" in report and "total_letters: 2" in report


ACCEPT_LINE = "قِفَا نَبْكِ مِنْ ذِكْرَى حَبِيبٍ وَمَنْزِلِ"
# Words a scan drops: silent-only words, and a lone connective alif,
# which drops after a vowel.
VANISHING = ["و۠", "ا۠و۠", "ٱ"]
# Lines that pass the filter but whose scan drops a word.
WORD_LOSING_LINES = ["مَا لَهُ ٱ عَلَّمَ مَعًا", "مَا لَهُ عَلَّمَ ا۠ مَعًا"]


class TestPipeline:
    def test_accepts_classical_verse(self):
        text, reason = process_line(ACCEPT_LINE)
        assert reason == "ok"
        # accepted output is scan-ready
        _, beats = scan_text(text)
        assert set(beats) <= {"0", "1"}

    def test_rejects_short_line(self):
        text, reason = process_line("مَا لَهُ")
        assert text is None and reason == "too_few_words"

    def test_rejects_garbage(self):
        text, reason = process_line("123 abc !!")
        assert text is None and reason == "foreign_residue"

    def test_run_pipeline_counts(self):
        lines = [ACCEPT_LINE, "مَا لَهُ", ACCEPT_LINE]
        result = run_pipeline(lines)
        assert len(result.accepted) == 2
        assert result.rejections == [(2, "too_few_words")]
        assert result.stats.lines == 2

    def test_idempotence(self):
        first = run_pipeline([ACCEPT_LINE])
        second = run_pipeline(first.accepted)
        assert second.accepted == first.accepted
        assert not second.rejections

    def test_connective_alif_keeps_the_tanwin_after_it(self):
        # normalize writes the bare alif as a connective alif, which must
        # not take the tanwin-fath of the alif maksura after it
        text, reason = process_line("مَا لَهُ عَلَّمَ بَاىًّ")
        assert reason == "ok"
        assert text.endswith(" بَ" + WASL_ALIF + ALIF_MAKSURA + SHADDA
                             + TANWIN_FATH)
        assert process_line(text) == (text, "ok")

    def test_rejects_under_diacritized_scan(self):
        # geminated letter with no vowel survives filtering (ratio ok)
        # but fails the verification scan
        text, reason = process_line("بَمّ عَلَّمَ مَعًا مَا")
        assert text is None and reason == "under_diacritized"

    def test_stage_toggles(self):
        cfg = PipelineConfig(sukun_defaults=False)
        text, reason = process_line(ACCEPT_LINE, cfg)
        # without sukun defaults the verse still happens to scan (every
        # bare letter is a long vowel the scanner tolerates)
        assert reason in ("ok", "under_diacritized")

    @pytest.mark.parametrize("raw", WORD_LOSING_LINES)
    def test_rejects_a_line_that_loses_a_word(self, raw):
        assert process_line(raw) == (None, "scan_error")

    @pytest.mark.parametrize("error,reason", [
        (UnderDiacritized, "under_diacritized"),
        (ShaddaWithoutVowel, "under_diacritized"),
        (DanglingWasl, "dangling_wasl"),
        (ScanError, "scan_error"),
    ])
    def test_scan_failure_reasons(self, monkeypatch, error, reason):
        def failing_scan(*args, **kwargs):
            raise error("planted")
        monkeypatch.setattr(corpus.scansion, "scan", failing_scan)
        assert process_line(ACCEPT_LINE) == (None, reason)

    def test_normalize_lines_runs_through_the_given_map(self):
        batches = []

        def recording_map(fn, items):
            items = list(items)
            batches.append(len(items))
            return map(fn, items)

        stats = DiacriticStats()
        rows = list(normalize_lines([ACCEPT_LINE, "مَا لَهُ"], None, None,
                                    stats, map=recording_map))
        assert batches == [2]
        assert rows == [(1, process_line(ACCEPT_LINE)[0], "ok"),
                        (2, None, "too_few_words")]
        assert stats == compute_stats([parse_line(rows[0][1])])


# في is bare until the known-words stage completes it.
KNOWN_WORD_LINE = "قَالَ في بَيْتِهِ كَتَبَ"


class TestPipelineTables:
    @pytest.fixture(scope="class")
    def no_known_words(self, tmp_path_factory):
        """The shipped tables with an empty known-words table."""
        shipped = Path(tables_module.__file__).parent / "data"
        custom = tmp_path_factory.mktemp("tables")
        for path in shipped.iterdir():
            (custom / path.name).write_bytes(path.read_bytes())
        (custom / "known_words.tsv").write_text("", encoding="utf-8")
        return TableSet.load(str(custom))

    def test_tables_passed_as_value(self, no_known_words):
        assert process_line(KNOWN_WORD_LINE) == \
            ("قَاْلَ فِيْ بَيْتِهِ كَتَبَ", "ok")
        cfg = PipelineConfig()
        assert corpus.accept_line(KNOWN_WORD_LINE, cfg, no_known_words) \
            == (None, "word_undiacritized")
        assert process_line(KNOWN_WORD_LINE, tables=no_known_words) == \
            (None, "word_undiacritized")
        result = run_pipeline([KNOWN_WORD_LINE, KNOWN_WORD_LINE],
                              tables=no_known_words)
        assert result.rejections == [(1, "word_undiacritized"),
                                     (2, "word_undiacritized")]
        assert not result.accepted and result.stats.lines == 0


def reference_accept(raw, cfg, tables):
    """`corpus.accept_line` as it was before the word records: every
    stage on the whole line."""
    cleaned = clean_line(raw)
    if not cleaned:
        return None, "foreign_residue"
    try:
        line = parse_line(cleaned)
    except ScriptError:
        return None, "foreign_residue"
    if cfg.known_words:
        line = diacritize_known_words(line, tables.known)
    decision = filter_line(line, cfg.min_words, cfg.min_ratio)
    return (line if decision.accepted else None), decision.reason


def reference_bare(g):
    return (g.vowel is None and not g.shadda and not g.silent
            and not g.is_wasl)


def reference_heuristics(line, cfg, tables):
    """Lam-kasra, the wasl guess and silent marking as they were before
    they rewrote words one at a time, each stage over the whole line."""
    words = [list(w) for w in line.words]
    if cfg.lam_kasra:
        for word in words:
            if len(word) >= 3 and word[0].base == LAM \
                    and reference_bare(word[0]):
                word[0] = word[0].with_vowel("kasra")
    if cfg.wasl_heuristic:
        for word in words:
            for gi, g in enumerate(word):
                if g.base != ALIF or not reference_bare(g) \
                        or gi == len(word) - 1:
                    continue
                if gi > 0 and not word[gi - 1].vocalized:
                    continue
                nxt = word[gi + 1]
                connective = (nxt.vowel == "sukun" and not nxt.shadda) \
                    or nxt.shadda
                if not connective and nxt.base == LAM \
                        and gi + 2 < len(word):
                    connective = word[gi + 2].shadda
                if connective:
                    word[gi] = Grapheme(WASL_ALIF, is_wasl=True)
    if cfg.silent_marking:
        for word in words:
            idx = tables.silent.silent_index(tuple(word))
            if idx is not None and 0 <= idx < len(word) \
                    and reference_bare(word[idx]):
                word[idx] = Grapheme(word[idx].base, silent=True)
            if (len(word) >= 3 and word[-1].base == ALIF
                    and reference_bare(word[-1]) and word[-2].base == WAW):
                word[-1] = Grapheme(ALIF, silent=True)
    return ScriptLine(tuple(map(tuple, words)))


def reference_process(raw, cfg, tables):
    """`corpus.process_line` as it was before the word records."""
    line, reason = reference_accept(raw, cfg, tables)
    if line is None:
        return None, reason
    line = reference_heuristics(line, cfg, tables)
    if cfg.sukun_defaults:
        line = assign_default_sukun(line)
    try:
        transcription, _ = scan(line, tables, sentence_initial=True)
    except UnderDiacritized:
        return None, "under_diacritized"
    except DanglingWasl:
        return None, "dangling_wasl"
    except ScanError:
        return None, "scan_error"
    if len(transcription.words) != len(line.words):
        return None, "scan_error"  # a word lost its beats
    return render_line(line), "ok"


def _outcome(make):
    try:
        return make()
    except ScriptError as exc:
        return type(exc), str(exc)


# The extra table rows: a known word and a silent word, both in VOCABULARY.
EXTRA_KNOWN = "كَتَبَ"
EXTRA_SILENT = ("أولو", 1)


def _rows(path):
    return [row for row in path.read_text(encoding="utf-8").splitlines()
            if row.strip() and not row.startswith("#")]


# Words that the extra table rows (the first two) or the heuristics act
# on, in some degraded form.
TARGET_WORDS = [
    EXTRA_KNOWN, "أُو۠لُو", "لِقَوْمِهِ", "ٱلْكِتَابُ", "ٱلشَّمْسُ", "قَالُوا",
    "قَالُواْ", "دَلْوًا", "وَٱلْقَمَرِ", "بِٱلْحَقِّ", "عَمْرٌو", "هَاذَا",
    "آمَنُوا", "بَيْتًا", "عَلِمْتُمْ"]
# Fully marked words: the golden verses' words, the known words and the
# target words.
VOCABULARY = sorted(
    {word for row in _rows(Path(__file__).parent / "data"
                           / "golden_scansion.tsv")
     for word in row.split("\t")[0].split()}
    | set(_rows(Path(tables_module.__file__).parent / "data"
                / "known_words.tsv"))
    | set(TARGET_WORDS))


def degrade(word, seed):
    """`word` with marks dropped, connective alifs written plain and
    tatweel inserted, as drawn from `seed`."""
    rng = random.Random(seed)
    drop = rng.choice((0.0, 0.2, 0.5)) if rng.random() < 0.9 else 1.0
    out = []
    for ch in word:
        if ch in MARKS and rng.random() < drop:
            continue
        if ch == WASL_ALIF and rng.random() < 0.5:
            ch = ALIF
        out.append(ch)
        if ch in ARABIC_LETTERS and rng.random() < 0.1:
            out.append(TATWEEL)
    return "".join(out)


# A third of the words are target words, and one in six is a word of
# the extra table rows.
DEGRADED_LINES = st.lists(
    st.tuples(st.one_of(st.sampled_from(VOCABULARY),
                        st.sampled_from(TARGET_WORDS),
                        st.sampled_from(TARGET_WORDS[:2])),
              st.integers(0, 2**16)),
    min_size=1, max_size=8).map(
        lambda words: " ".join(degrade(w, s) for w, s in words))

RAW_LINES = st.one_of(RAW_TEXT, DEGRADED_LINES, DEGRADED_LINES,
                      st.tuples(DEGRADED_LINES, RAW_TEXT).map(" ".join))

PIPELINE_CONFIGS = st.builds(
    PipelineConfig, min_words=st.integers(0, 4),
    min_ratio=st.one_of(st.sampled_from((0.0, 0.5)), st.floats(0.0, 1.0)),
    known_words=st.booleans(), lam_kasra=st.booleans(),
    wasl_heuristic=st.booleans(), silent_marking=st.booleans(),
    sukun_defaults=st.booleans())


class TestWordRecords:
    """`accept_line` and `process_line` read each raw chunk's record from
    one memo; their results are the line-at-a-time pipeline's, whatever
    the config and tables were on the calls before."""

    @pytest.fixture(scope="class")
    def extra_tables(self, tmp_path_factory):
        """The shipped tables plus one known word and one silent word."""
        shipped = Path(tables_module.__file__).parent / "data"
        custom = tmp_path_factory.mktemp("tables")
        for path in shipped.iterdir():
            (custom / path.name).write_bytes(path.read_bytes())
        with open(custom / "known_words.tsv", "a", encoding="utf-8") as f:
            f.write(EXTRA_KNOWN + "\n")
        with open(custom / "silent_words.tsv", "a", encoding="utf-8") as f:
            f.write("%s\t%d\n" % EXTRA_SILENT)
        return TableSet.load(str(custom))

    def test_extra_rows_change_the_output(self, extra_tables):
        for word in ("كتب", "أُولُو"):
            line = f"{word} {ACCEPT_LINE}"
            assert process_line(line) \
                != process_line(line, tables=extra_tables)

    # Each word is one that a single stage completes: a bare clitic lam,
    # a plain article alif, a plural alif, a partly marked known word
    # and a bare final letter.
    FLAG_LINE = "لقَوْمِهِ الْكِتَابُ قَالُوا عَلى قَلْب"

    @pytest.mark.parametrize("flag", ["known_words", "lam_kasra",
                                      "wasl_heuristic", "silent_marking",
                                      "sukun_defaults"])
    def test_a_flag_change_rebuilds_the_records(self, flag):
        tables = default_tables()
        outputs = set()
        for value in (True, False, True, False):
            cfg = PipelineConfig(min_words=1, min_ratio=0.0,
                                 **{flag: value})
            expected = reference_process(self.FLAG_LINE, cfg, tables)
            assert process_line(self.FLAG_LINE, cfg, tables) == expected
            outputs.add(expected)
        assert len(outputs) == 2

    # Each step takes a line from a small pool, so lines recur under
    # other configs and tables; one step in five clears the memo first.
    @given(pool=st.lists(RAW_LINES, min_size=1, max_size=3),
           steps=st.lists(st.tuples(st.integers(0, 2), PIPELINE_CONFIGS,
                                    st.booleans(),
                                    st.integers(0, 4).map(lambda n: n == 4)),
                          min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_same_as_line_at_a_time(self, extra_tables, pool, steps):
        for index, cfg, extra, cold in steps:
            raw = pool[index % len(pool)]
            tables = extra_tables if extra else default_tables()
            if cold:
                corpus._words.clear()
            assert _outcome(lambda: corpus.accept_line(raw, cfg, tables)) \
                == _outcome(lambda: reference_accept(raw, cfg, tables))
            assert _outcome(lambda: process_line(raw, cfg, tables)) \
                == _outcome(lambda: reference_process(raw, cfg, tables))

    # Each memo whose entries depend on the tables, and a call that fills
    # it; هَذَا is a special word, so step 1 changes it.
    @pytest.mark.parametrize("module, name, fills", [
        pytest.param(scansion, "_in_context",
                     lambda tables: scan_text("هَذَا قَالَ", tables=tables),
                     id="scansion._in_context"),
        pytest.param(corpus, "_words",
                     lambda tables: process_line(ACCEPT_LINE, tables=tables),
                     id="corpus._words"),
        pytest.param(filler, "_windows", lambda tables: filler.fill(
            filler.FillQuery(target="1010", max_words=2),
            filler.index_lexicon(["مَا", "قَدْ"], tables), tables),
                     id="filler._windows"),
    ])
    def test_pickled_tables_keep_the_memo(self, module, name, fills):
        # A pool worker receives an equal, freshly unpickled TableSet with
        # every chunk of lines.
        memo = getattr(module, name)
        tables = TableSet.load()
        fills(tables)
        entries = dict(memo)
        assert entries

        def kept():
            return all(memo.get(key) is value
                       for key, value in entries.items())

        fills(pickle.loads(pickle.dumps(tables)))
        assert kept()
        fills(replace(tables, special=tables.known))
        assert not kept()

    def test_only_stage_flags_empty_the_memo(self):
        chunk = unicodedata.normalize("NFC", ACCEPT_LINE.split()[0])
        process_line(ACCEPT_LINE)
        record = corpus._words.get(chunk)
        assert record is not None
        process_line(ACCEPT_LINE, PipelineConfig(min_words=3))
        assert corpus._words.get(chunk) is record
        process_line(ACCEPT_LINE, PipelineConfig(lam_kasra=False))
        assert corpus._words.get(chunk) is not record


# Letters with one or two marks in any order, and bare alifs; alif, alif
# maksura and the connective alif come up more often than the other
# letters.
ALIFS = [ALIF, ALIF_MAKSURA, WASL_ALIF]
MARKED_LETTER = st.tuples(
    st.sampled_from(sorted(ARABIC_LETTERS) + ALIFS * 6),
    st.lists(st.sampled_from(sorted(MARKS)), min_size=1, max_size=2)
    .map("".join)).map("".join)
RAW_WORD = st.lists(st.one_of(MARKED_LETTER, st.sampled_from(ALIFS)),
                    min_size=1, max_size=6).map("".join)


class TestNormalizeIdempotence:
    @given(st.lists(RAW_WORD, min_size=4, max_size=6).map(" ".join))
    @settings(deadline=None)
    def test_every_accepted_line_renormalizes_to_itself(self, raw):
        text, _ = process_line(raw)
        if text is not None:
            assert process_line(text) == (text, "ok")


class TestAcceptedLinesMask:
    """`normalize` emits only lines that `mask` accepts."""

    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(VOCABULARY), st.integers(0, 2**16)).map(
            lambda word_seed: degrade(*word_seed)),
        st.sampled_from(VANISHING)), min_size=4, max_size=8).map(" ".join))
    @settings(deadline=None)
    def test_every_accepted_line_masks(self, raw):
        text, _ = process_line(raw)
        if text is not None:
            masking.line_examples(parse_line(text), 0, masking.MaskConfig())
