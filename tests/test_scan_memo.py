"""The per-word memos under `scan` and its memo of words in context: same
results as the whole-line rules, errors in the same order, bounded memos
and per-table isolation."""

import json
import logging
import os
import random
import subprocess
import sys
from collections import OrderedDict
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_least

import arud
from arud import scansion, script
from arud.cli import ENV_TABLE_DIR, main
from arud.errors import DanglingWasl, ScanError, ScriptError, \
    ShaddaWithoutVowel
from arud.scansion import (
    apply_isba,
    apply_special_words,
    assign_default_sukun,
    beat_segments,
    expand_gemination,
    expand_madda,
    expand_tanwin,
    process_hamzat_wasl,
    reading_segments,
    remove_silent_graphemes,
    scan,
    scan_readings,
    scan_text,
    validate_scansion,
    word_offsets,
)
from arud.script import ARABIC_LETTERS, FATHA, MEMO_SIZE, SUKUN, Memo, \
    ScriptLine, parse_line
from arud.tables import WordTable, default_tables

DATA = Path(__file__).parent / "data"
# Every memo of `scansion`.
MEMOS = ("_step3", "_step5", "_in_context")


def clear_memos():
    for name in MEMOS:
        getattr(scansion, name).clear()


def whole_line(line, sentence_initial, verse_final, optional_plural_m):
    """The rules composed over the whole line, as `scan` ran them before
    the memo: (line after isba, (transcription, beats) or the error)."""
    tables = default_tables()
    out = ScriptLine(tuple(filter(None, line.words)))
    out = apply_special_words(out, tables.special)
    out = remove_silent_graphemes(out)
    out = expand_madda(out)
    out = process_hamzat_wasl(out, sentence_initial, tables.juncture)
    out = expand_gemination(out)
    out = expand_tanwin(out)
    after_isba = apply_isba(out, verse_final, optional_plural_m)
    try:
        out = validate_scansion(assign_default_sukun(after_isba))
    except ScriptError as exc:
        return after_isba, error(exc)
    return after_isba, (out, "".join(beat_segments(out)))


def readings_by_rules(line, sentence_initial, verse_final):
    """`scan_readings` by `whole_line`: the plain reading, then the
    licensed one when the license changes the line's words after isba;
    or the error."""
    plain_isba, plain = whole_line(line, sentence_initial, verse_final,
                                   False)
    if not isinstance(plain[0], ScriptLine):
        return plain
    licensed_isba, licensed = whole_line(line, sentence_initial,
                                         verse_final, True)
    if licensed_isba.words == plain_isba.words:
        return [plain]
    return [plain, licensed]


def error(exc):
    return type(exc), str(exc)


def outcome(fn):
    try:
        return fn()
    except ScriptError as exc:
        return error(exc)


def _rows(path):
    return [row for row in path.read_text(encoding="utf-8").splitlines()
            if row.strip() and not row.startswith("#")]


GOLDEN = [row.split("\t")[0] for row in _rows(DATA / "golden_scansion.tsv")]
SNAPSHOT = _rows(DATA / "engine_snapshot" / "input.txt")
LEXICON = _rows(DATA / "behaviour_snapshot" / "lexicon.txt")
# A word whose gemination fails alone but not before a connective alif,
# and words that silent removal empties.
PAIR = ["بَمّ", "بَمّ ٱبْنُ"]
EMPTIED = ["و۠", "ا۠و۠"]
WORDS = sorted({word for text in GOLDEN + SNAPSHOT + LEXICON + PAIR
                for word in text.split()} | set(EMPTIED))
TEXTS = st.one_of(
    st.sampled_from(GOLDEN + SNAPSHOT + PAIR),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
    st.tuples(st.sampled_from(EMPTIED), st.sampled_from(WORDS + PAIR),
              st.sampled_from(WORDS)).map(" ".join),
)


class TestSameAsWholeLine:
    @pytest.mark.property
    @given(TEXTS, st.booleans(), st.booleans(),
           st.sampled_from(["cold", "warm", "kept"]))
    @settings(max_examples=at_least(500), deadline=None)
    def test_scan_scan_text_and_readings(self, text, verse_final,
                                         sentence_initial, memo):
        if memo == "cold":
            clear_memos()
        elif memo == "warm":
            outcome(lambda: scan_text(text, verse_final,
                                      sentence_initial=sentence_initial))
        got_text = outcome(lambda: scan_text(
            text, verse_final, sentence_initial=sentence_initial))
        try:
            line = parse_line(text)
        except ScriptError as exc:
            assert got_text == error(exc)
            return
        try:
            plain_isba, plain = whole_line(line, sentence_initial,
                                           verse_final, False)
            licensed_isba, licensed = whole_line(line, sentence_initial,
                                                 verse_final, True)
        except ScriptError as exc:
            assert got_text == error(exc)
            assert outcome(lambda: scan(
                line, sentence_initial=sentence_initial,
                verse_final=verse_final)) == error(exc)
            assert outcome(lambda: scan_readings(
                line, sentence_initial=sentence_initial,
                verse_final=verse_final)) == error(exc)
            return
        assert got_text == plain
        assert outcome(lambda: scan(
            line, sentence_initial=sentence_initial,
            verse_final=verse_final)) == plain
        expected = [plain]
        if licensed_isba.words != plain_isba.words:
            expected.append(licensed)
        readings = scan_readings(line, sentence_initial=sentence_initial,
                                 verse_final=verse_final)
        assert [error(r) if isinstance(r, ScriptError) else r
                for r in readings] == expected

    @pytest.mark.parametrize("text, beats", [
        ("بَمّ ٱبْنُ", "10101"),
        ("و۠ ٱبْنُ مَا", "10110"),
        ("مَا و۠ ٱبْنُ", "101"),
    ])
    def test_word_context_decides(self, text, beats):
        clear_memos()
        with pytest.raises(ShaddaWithoutVowel):
            scan_text("بَمّ")
        assert scan_text(text)[1] == beats
        with pytest.raises(ShaddaWithoutVowel):
            scan_text("بَمّ")

    def test_double_sakin_logged_on_every_scan(self, caplog):
        # by `scan_text`, `scan` and each reading of `scan_readings`; the
        # second scan is served from `_in_context`
        text = "بَيْتْ مَا"
        line = parse_line(text)
        for readings in (lambda: [scan_text(text)], lambda: [scan(line)],
                         lambda: scan_readings(line)):
            clear_memos()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="arud.scansion"):
                for _ in range(2):
                    assert [beats for _, beats in readings()] == ["10010"]
            assert [record.getMessage() for record in caplog.records] == \
                ["double sakin inside line: 10010"] * 2



EMPTY_SCAN = (ScriptLine(()), "")
LOST = "^word alignment lost during transformation$"
PLACES = list(product((False, True), repeat=2))


class TestNoWordsLeft:
    """A line of no words, or of words that all drop, scans to no words
    and no beats, from cold memos and from warm ones."""

    @pytest.mark.parametrize("sentence_initial, verse_final", PLACES)
    def test_a_line_of_no_words(self, sentence_initial, verse_final):
        clear_memos()
        for _ in range(2):
            assert scan(ScriptLine(()), None, sentence_initial,
                        verse_final) == EMPTY_SCAN
            assert scan_readings(ScriptLine(()), None, sentence_initial,
                                 verse_final) == [EMPTY_SCAN]

    @pytest.mark.parametrize("text", EMPTIED + [" ".join(EMPTIED)])
    @pytest.mark.parametrize("sentence_initial, verse_final", PLACES)
    def test_a_line_whose_words_all_drop(self, text, sentence_initial,
                                         verse_final):
        # A dropped word has no class, so the warm scans find its
        # `_in_context` entry and still run the rules.
        line = parse_line(text)
        clear_memos()
        for _ in range(2):
            assert scan(line, None, sentence_initial, verse_final) \
                == whole_line(line, sentence_initial, verse_final,
                              False)[1] == EMPTY_SCAN
            assert scan_readings(line, None, sentence_initial, verse_final) \
                == readings_by_rules(line, sentence_initial, verse_final) \
                == [EMPTY_SCAN]
            assert line.words[0] in scansion._in_context


# One word of each kind the locality argument in `scansion` turns on.
LOCALITY_POOL = [
    "وَ",          # one letter
    "و",           # one bare long-vowel letter: no class
    "سْمُ",          # a first letter isba finds without a vowel
    "لَهُ", "بِهِ",   # ha finals that isba lengthens
    "لَهُمْ",        # plural-m with its host, bare: the license
    "عَلَيْكُمُ",     # plural-m with its host, vocalized
    "قَلَمُ",        # mim final without a host
    "كِتَابًا",      # tanwin with alif
    "عَلَّمَ",       # shadda
    "آمَنَ",        # madda
    "هَذَا",        # a special word's spelling
    "و۠",           # silent only: dropped
    "بَمّ",          # gemination without a vowel, but before an alif
    "ٱلشَّمْسُ",     # a connective alif before a sun letter
    "ٱبْنُ",         # a connective alif before a moon letter
    "قُلْ", "مِنْ",  # a final sakin that takes the juncture vowel
    "فِي",          # a long vowel that drops before an alif
    "وٱبْنُ",        # an alif after a bare long-vowel letter: reads back
]


class TestLocality:
    """Every line of 1 to 3 pool words, at each position, by the memo of
    words in context and by the whole-line rules."""

    def check(self, by_memo, by_rules):
        # Each case once from cold memos, then in another order with warm
        # ones; the expected outcomes are returned.
        words = [parse_line(text).words[0] for text in LOCALITY_POOL]
        lines = [ScriptLine(combo) for n in (1, 2, 3)
                 for combo in product(words, repeat=n)]
        cases = [(line, si, vf) for line in lines
                 for si, vf in product((False, True), repeat=2)]
        expected = [outcome(lambda: by_rules(*case)) for case in cases]
        order = list(range(len(cases)))
        clear_memos()
        for _ in range(2):
            got = {}
            for i in order:
                got[i] = outcome(lambda: by_memo(*cases[i]))
            assert [got[i] for i in range(len(cases))] == expected
            random.Random(7).shuffle(order)
        return expected

    @pytest.mark.property
    def test_every_short_line_over_the_pool(self):
        self.check(lambda line, si, vf: scan(line, None, si, vf),
                   lambda line, si, vf: whole_line(line, si, vf, False)[1])

    @pytest.mark.property
    def test_both_readings_of_every_short_line_over_the_pool(self):
        expected = self.check(
            lambda line, si, vf: scan_readings(line, None, si, vf),
            readings_by_rules)
        # the license changes many of them
        assert sum(isinstance(e, list) and len(e) == 2
                   for e in expected) > 1000


# Ta marbuta: no rule names it, but it ends many words.
TA_MARBUTA = "\u0629"


def generated_alphabet():
    """Every grapheme, over the letters the rules name, that parses alone
    back to itself.

    The letters are `script`'s named letters, the sun letters, the
    plural-m hosts, the isba finals, ta marbuta and the connective alif;
    each takes no vowel mark, each short vowel, sukun and each tanwin,
    with and without shadda, or the silence mark alone.  A new constant
    of the rules widens the alphabet.
    """
    bases = ({value for value in vars(script).values()
              if isinstance(value, str) and value in ARABIC_LETTERS}
             | script.SUN_LETTERS | set(scansion.PLURAL_M_HOSTS)
             | scansion.ISBA_FINALS | {TA_MARBUTA, script.WASL_ALIF})
    states = [{"vowel": vowel, "shadda": shadda}
              for vowel in (None, *script.SHORT_VOWELS, "sukun",
                            *script.TANWINS)
              for shadda in (False, True)] + [{"silent": True}]
    alphabet = set()
    for base, state, is_wasl in product(sorted(bases), states,
                                        (False, True)):
        try:
            g = script.Grapheme(base, is_wasl=is_wasl, **state)
            parsed = parse_line(script.render_word((g,))).words
        except (ScriptError, ValueError):
            continue
        if parsed == ((g,),):
            alphabet.add(g)
    return sorted(alphabet, key=repr)


ALPHABET = generated_alphabet()
GENERATED_WORDS = st.lists(st.sampled_from(ALPHABET), min_size=1,
                           max_size=2).map(tuple)


class TestGeneratedAlphabet:
    """The locality argument on words of one or two graphemes drawn from
    every mark state of the letters the rules name: every line of 1 to 3
    of two drawn words, at each `sentence_initial` and `verse_final`, in
    a drawn order, by the memo of words in context and by the rules."""

    def test_alphabet_covers_every_mark_state(self):
        assert len(ALPHABET) > 200
        assert {g.vowel for g in ALPHABET} == {
            None, "sukun", *script.SHORT_VOWELS, *script.TANWINS}
        assert any(g.is_wasl for g in ALPHABET)
        assert any(g.silent for g in ALPHABET)

    @pytest.mark.property
    @given(GENERATED_WORDS, GENERATED_WORDS, st.randoms())
    @settings(max_examples=at_least(300), deadline=None)
    def test_readings_as_by_rules(self, first, second, rng):
        # A word's values for one place are stored by the first read
        # and served to the reads after it.
        cases = [(ScriptLine(words), si, vf) for n in (1, 2, 3)
                 for words in product((first, second), repeat=n)
                 for si, vf in product((False, True), repeat=2)]
        rng.shuffle(cases)
        for case in cases:
            assert outcome(lambda: scan_readings(case[0], None, *case[1:])) \
                == outcome(lambda: readings_by_rules(*case))


class TestWordOffsets:
    """`word_offsets` cuts every reading's beats into the transcription's
    `beat_segments`, which `reading_segments` gives per reading, and both
    raise when the scan lost a word."""

    @pytest.mark.property
    @given(TEXTS, st.booleans(), st.booleans())
    @settings(deadline=None)
    def test_offsets_cut_the_beat_segments(self, text, verse_final,
                                           sentence_initial):
        try:
            line = parse_line(text)
            readings = scan_readings(line, sentence_initial=sentence_initial,
                                     verse_final=verse_final)
        except ScriptError:
            return
        position = {"sentence_initial": sentence_initial,
                    "verse_final": verse_final}
        if len(readings[0][0].words) < len(line.words):
            with pytest.raises(ScanError, match=LOST):
                reading_segments(line, **position)
        else:
            assert reading_segments(line, **position) == [
                beat_segments(transcription) for transcription, _ in readings]
        for transcription, beats in readings:
            if len(transcription.words) < len(line.words):
                with pytest.raises(ScanError, match=LOST):
                    word_offsets(line.words, transcription)
                continue
            offsets = word_offsets(line.words, transcription)
            assert offsets[0] == 0 and offsets[-1] == len(beats)
            assert [beats[start:end] for start, end
                    in zip(offsets, offsets[1:])] \
                == beat_segments(transcription)

    @pytest.mark.parametrize("text", ["مَا ٱ لَهُ", "مَا لَهُ ٱ عَلَّمَ مَعًا",
                                      "مَا لَهُ عَلَّمَ ا۠ مَعًا", *EMPTIED])
    def test_a_dropped_word_raises(self, text):
        line = parse_line(text)
        with pytest.raises(ScanError, match=LOST):
            word_offsets(line.words, scan(line)[0])
        with pytest.raises(ScanError, match=LOST):
            reading_segments(line)


WORD_RULES = ("apply_special_words", "remove_silent_graphemes",
              "expand_madda", "expand_gemination", "expand_tanwin",
              "assign_default_sukun", "validate_scansion", "beat_segments")
BOUNDARY_RULES = ("process_hamzat_wasl", "apply_isba")


def count_rule_calls(monkeypatch):
    """Calls of each rule of `scansion` from now on, by name."""
    calls = dict.fromkeys(WORD_RULES + BOUNDARY_RULES, 0)

    def counting(name):
        rule = getattr(scansion, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return rule(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(scansion, name, counting(name))
    return calls


SECOND_SCAN_TEXTS = [
    "قَالَ ٱبْنُ مَالِكٍ",     # the connective alif changes its word
    "قُلْ ٱبْنُ مَالِكٍ",      # and the word before it
    "لَهُمْ مَا عَلَّمَهُ قَدْ",  # isba lengthens a word, and the license
    "و۠ آمَنَ مَعًا",          # silent removal, madda and tanwin
]


class TestWordRulesRunOncePerWord:
    @pytest.mark.parametrize("text", SECOND_SCAN_TEXTS)
    def test_second_scan_calls_only_boundary_rules(self, monkeypatch,
                                                   text):
        # A line whose words all have a class is served from
        # `_in_context` and calls no rule; one with a word keyed by
        # itself, here the silent-only word, runs the boundary rules.
        falls_back = any(scansion.lead(word) is word
                         for word in parse_line(text).words)
        assert falls_back == text.startswith("و۠")
        calls = count_rule_calls(monkeypatch)
        clear_memos()
        first = scan_text(text)
        assert all(calls[name] for name in WORD_RULES)
        calls.update(dict.fromkeys(calls, 0))
        assert scan_text(text) == first
        assert {name: calls[name] for name in WORD_RULES} == \
            dict.fromkeys(WORD_RULES, 0)
        if falls_back:
            assert all(calls[name] for name in BOUNDARY_RULES)
        else:
            assert calls == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("step5_size", [MEMO_SIZE, 1])
    @pytest.mark.parametrize("text", SECOND_SCAN_TEXTS)
    def test_second_readings_call_no_rule(self, monkeypatch, text,
                                          step5_size):
        # Both readings of a line whose words all have a class are served
        # from `_in_context`, also after `scan` of the other lines stored
        # their shared words' plain values again: with a one-entry step-5
        # memo, values equal to the licensed ones but not the same
        # objects.
        line = parse_line(text)
        falls_back = any(scansion.lead(word) is word for word in line.words)
        calls = count_rule_calls(monkeypatch)
        clear_memos()
        monkeypatch.setattr(scansion._step5, "size", step5_size)
        first = scan_readings(line)
        assert first == readings_by_rules(line, True, False)
        assert len(first) == 1 + text.startswith("لَهُمْ")
        for other in SECOND_SCAN_TEXTS:
            scan_text(other)
        calls.update(dict.fromkeys(calls, 0))
        assert scan_readings(line) == first
        if falls_back:
            assert all(calls[name] for name in BOUNDARY_RULES)
        else:
            assert calls == dict.fromkeys(calls, 0)


class TestWordRecord:
    """`lead` and `reads_back` read a word's record in `_in_context`,
    computed once per word and tables."""

    @pytest.mark.parametrize("first", ["lead", "reads_back"])
    def test_second_call_runs_no_rule(self, monkeypatch, first):
        words = [parse_line(text).words[0] for text in LOCALITY_POOL]
        calls = count_rule_calls(monkeypatch)
        clear_memos()
        for word in words:
            getattr(scansion, first)(word)
        # the record runs steps 1 to 3
        assert all(calls[name] for name in WORD_RULES[:5]
                   + ("process_hamzat_wasl",))
        calls.update(dict.fromkeys(calls, 0))
        for _ in range(2):
            for word in words:
                scansion.lead(word)
                scansion.reads_back(word)
        assert calls == dict.fromkeys(calls, 0)

    def test_lead_reads_the_special_words_of_its_tables(self):
        # لكن is a special word spelled لَاكِنْ: without its row the first
        # letter has no vowel.
        shipped = default_tables()
        without = replace(shipped, special=WordTable({
            key: rows for key, rows in shipped.special.entries.items()
            if key != "لكن"}))
        word = parse_line("لكن").words[0]
        for _ in range(2):
            assert scansion.lead(word) == 1
            assert scansion.lead(word, without) == 0


class TestErrors:
    @pytest.mark.parametrize("text, kwargs, exc", [
        ("بَمّ", {}, ShaddaWithoutVowel),
        ("مَا بَمّ", {}, ShaddaWithoutVowel),
        ("ٱبْنُ مَا", {"sentence_initial": False}, DanglingWasl),
    ])
    def test_same_error_every_time(self, text, kwargs, exc):
        clear_memos()
        seen = set()
        for _ in range(3):
            with pytest.raises(exc) as info:
                scan_text(text, **kwargs)
            seen.add(str(info.value))
        assert len(seen) == 1

    @pytest.mark.parametrize("text, kwargs, exc, message", [
        # gemination runs over every word, in order, before validation
        ("بَكّ بَمّ", {}, ShaddaWithoutVowel, "'ك'"),
        # the connective-alif rule runs before gemination
        ("ٱبْنُ بَمّ", {"sentence_initial": False}, DanglingWasl,
         "line-initial"),
    ])
    def test_whole_line_order_with_warm_memos(self, text, kwargs, exc,
                                              message):
        clear_memos()
        for word in reversed(text.split()):
            outcome(lambda: scan_text(word, **kwargs))
        with pytest.raises(exc, match=message):
            scan_text(text, **kwargs)


def _distinct_words(n, tail=""):
    letters = sorted(ARABIC_LETTERS - {"ٱ"})
    k = len(letters)
    words = [letters[i % k] + FATHA + letters[i // k % k] + FATHA
             + letters[i // k ** 2] + tail for i in range(n)]
    assert len(set(words)) == n
    return words


class TestMemoSizes:
    def test_memos_lists_every_memo(self):
        assert {name for name, value in vars(scansion).items()
                if isinstance(value, Memo)} == set(MEMOS)

    @pytest.mark.parametrize("memo", MEMOS)
    def test_each_memo_stays_at_its_size(self, memo):
        # no rule changes these words, and each is a key of every memo
        clear_memos()
        for word in _distinct_words(MEMO_SIZE + 50, SUKUN):
            scan_text(word)
        assert len(getattr(scansion, memo)) == MEMO_SIZE

    def test_readings_after_evictions(self, monkeypatch):
        # `_in_context` holds the three words of the first two lines and
        # loses them to the third; `_step5` keeps one word, so values are
        # computed again, equal to the ones before but other objects.
        # The license changes only لَهُمْ.
        unchanged, licensed, evicting = map(parse_line, [
            "قَالَ مَا قَالَ", "لَهُمْ مَا قَالَ", "قُلْ ٱبْنُ مَالِكٍ"])
        clear_memos()
        monkeypatch.setattr(scansion._in_context, "size", 3)
        monkeypatch.setattr(scansion._step5, "size", 1)
        for line in [unchanged, licensed, unchanged, evicting] * 3:
            expected = readings_by_rules(line, True, False)
            assert len(expected) == 1 + (line is licensed)
            assert scan(line) == expected[0]
            assert scan_readings(line) == expected
            assert scan(line) == expected[0]


class TestModuleMemos:
    def test_walk_finds_every_memo(self):
        # A fresh interpreter, so only the memos `arud` builds are seen.
        tests = Path(__file__).parent
        env = dict(os.environ, PYTHONPATH=str(Path(arud.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import gc, json, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import arud.cli\n"
             "from arud.script import Memo\n"
             "from conftest import module_memos\n"
             "seen = [m for m in gc.get_objects() if isinstance(m, Memo)]\n"
             "walked = {id(m) for m in module_memos()}\n"
             "print(json.dumps([len(seen), len(walked), sorted(\n"
             "    repr(m.compute) for m in seen if id(m) not in walked)]))",
             str(tests)], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        seen, walked, missed = json.loads(proc.stdout)
        assert missed == []
        assert seen == walked > 0


class Refused(Exception):
    pass


class TestMemo:
    # Each op looks a key from 0 to 6 up, clears (-3) or calls `use` with
    # a new list object: [0] for -2, [1] for -1.
    @pytest.mark.property
    @given(st.integers(1, 4), st.sets(st.integers(0, 6), max_size=3),
           st.lists(st.integers(-3, 6), max_size=40))
    def test_same_as_a_fifo_ordered_dict(self, size, refused, ops):
        calls = []

        def compute(key, arg):
            calls.append(key)
            if key in refused:
                raise Refused(key)
            return key, tuple(arg)

        arg = [0]
        memo, model = Memo(compute, arg), OrderedDict()
        memo.size = size
        misses = evictions = 0
        for op in ops:
            if op == -3:
                memo.clear()
                model.clear()
            elif op < 0:
                new = [op + 2]
                memo.use(new)
                if new != arg:
                    model.clear()
                arg = new
                assert memo.args[0] is new
            elif op in refused:
                # stores nothing, and raises again on a repeat
                for _ in range(2):
                    calls.clear()
                    with pytest.raises(Refused):
                        memo[op]
                    assert calls == [op]
                    misses += 1
            elif op in model:
                calls.clear()
                assert memo[op] is model[op]
                assert not calls
            else:
                if len(model) >= size:
                    model.popitem(last=False)
                    evictions += 1
                model[op] = memo[op]
                misses += 1
                assert model[op] == (op, tuple(arg))
            assert list(memo.items()) == list(model.items())
            assert len(memo) <= size
            # clearing and `use` drop entries but count none
            assert (memo.misses, memo.evictions) == (misses, evictions)


class TestTablesIsolation:
    """In-process `main` calls each scan by their own special words."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_default_custom_default(self, capsys, monkeypatch, tmp_path,
                                    jobs):
        monkeypatch.delenv(ENV_TABLE_DIR, raising=False)
        shipped = Path(scansion.__file__).parent / "data"
        custom = tmp_path / "tables"
        custom.mkdir()
        for name in ("juncture.tsv", "known_words.tsv", "silent_words.tsv",
                     "VERSION"):
            (custom / name).write_bytes((shipped / name).read_bytes())
        # مَا gains a second alif: 10 with the shipped tables, 100 here
        (custom / "special_words.tsv").write_text("ما\tمَاا\n",
                                                  encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("مَا\nقَالَ مَا\n", encoding="utf-8")

        def beats(*top):
            code = main([*top, "scan", "--jobs", jobs, "-i", str(src)])
            assert code == 0
            return capsys.readouterr().out

        default = "10\n10110\n"
        assert beats() == default
        assert beats() == default
        assert beats("--tables", str(custom)) == "100\n101100\n"
        assert beats() == default
