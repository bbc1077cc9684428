"""Lexicon indexing and rhythm-constrained phrase search."""

import functools
import itertools
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_least

from arud import filler, scansion
from arud.errors import ScriptError
from arud.filler import (
    FillQuery,
    context_words,
    fill,
    index_lexicon,
    matches_target,
    phrase_beats_in_context,
)
from arud.scansion import beat_segments, scan, scan_readings
from arud.script import Memo, ScriptLine, parse_line
from arud.tables import TableSet


class TestIndex:
    def test_prefix_tree_keys(self):
        # each word is found under its own isolated beats
        lex = index_lexicon(["مَا", "لَهُ"])
        assert fill(FillQuery(target="10", max_words=1), lex) == ["مَا"]
        assert fill(FillQuery(target="11", max_words=1), lex) == ["لَهُ"]
        assert len(lex) == 2

    def test_empty_stream(self):
        lex = index_lexicon([])
        assert len(lex) == 0 and fill(FillQuery(target="10"), lex) == []

    def test_unscannable_word_skipped(self):
        # geminated letter with no vowel cannot scan
        lex = index_lexicon(["مَا", "بَمّ"])
        assert len(lex) == 1

    def test_word_a_scan_drops_skipped(self, caplog):
        # ا۠ is silent only, so the scan drops it and it has no beats; a
        # lone connective alif scans where a line starts.
        with caplog.at_level(logging.WARNING, logger="arud.filler"):
            lex = index_lexicon(["ا۠", "مَا", "ٱ"])
        assert {surface for surface, _ in lex.entries} == {"مَا", "ٱ"}
        assert [record.getMessage() for record in caplog.records] == [
            "lexicon word 'ا۠' skipped: word alignment lost during "
            "transformation"]

    def test_duplicates_collapse(self):
        lex = index_lexicon(["مَا", "مَا", "مَا"])
        assert len(lex) == 1

    def test_multi_word_entry_skipped(self):
        lex = index_lexicon(["مَا لَهُ"])
        assert len(lex) == 0


class TestFill:
    def test_single_exact_match(self):
        lex = index_lexicon(["مَا"])
        assert fill(FillQuery(target="10"), lex) == ["مَا"]

    def test_juncture_beats_concatenation(self):
        # isolated beats are "11"+"10" = "1110", but in context the
        # pronoun clitic gains its long vowel: target "11010" matches
        lex = index_lexicon(["لَهُ", "مَا", "عَلَّمَ"])
        assert fill(FillQuery(target="11010"), lex) == ["لَهُ مَا"]

    def test_unvocalized_start_unsatisfiable(self):
        lex = index_lexicon(["لَهُ", "مَا", "عَلَّمَ"])
        assert fill(FillQuery(target="01"), lex) == []

    def test_verse_final_extension(self):
        # target needs the verse-final long vowel after the last fatha
        lex = index_lexicon(["قَتَلَ"])
        assert fill(FillQuery(target="1110", verse_final=True), lex) == \
            ["قَتَلَ"]
        assert fill(FillQuery(target="1110"), lex) == []

    def test_left_context_juncture(self):
        # after لَهُ the candidate مَا completes the isba pattern
        lex = index_lexicon(["مَا", "عَلَّمَ"])
        out = fill(FillQuery(target="10", left_context="لَهُ"), lex)
        assert out == ["مَا"]

    def test_max_results_truncates(self):
        lex = index_lexicon(["مَا", "لَا", "يَا"])
        out = fill(FillQuery(target="10", max_results=2), lex)
        assert len(out) == 2
        assert out == sorted(out)

    def test_optional_plural_m_in_context(self):
        # isolated لَهُمْ is "110"; only the licensed reading لَهُمُو gives
        # "1110" before مَا
        lex = index_lexicon(["لَهُمْ", "مَا", "قَدْ"])
        query = FillQuery(target="1110", right_context="مَا", max_words=1)
        assert fill(query, lex) == ["لَهُمْ"]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_context_parsed_once(self, side):
        query = FillQuery(target="10", **{f"{side}_context": "مَا لَهُ"})
        assert getattr(query, f"{side}_words") == words_of("مَا لَهُ")
        with pytest.raises(ValueError, match=f"^{side} context does not "
                                             "parse: ForeignCharacter: "):
            FillQuery(target="10", **{f"{side}_context": "abc"})

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            FillQuery(target="102")
        with pytest.raises(ValueError):
            FillQuery(target="")


def words_of(text):
    return parse_line(text).words if text.strip() else ()


# Context texts: empty, blank, words, and text that does not parse.
CONTEXT_TEXT = st.one_of(
    st.sampled_from(["", " ", "\t \n", "\u00a0", "abc", "مَا x", "َمَا",
                     "مَاَ"]),
    st.text(alphabet=[" ", "\t", "م", "ا", "ل", "ٱ", "َ", "ْ", "ّ", "x"],
            max_size=8),
    st.lists(st.sampled_from(["مَا", "لَهُ", "لَهُمْ", "ٱبْنُ", "و۠"]),
             max_size=3).map(" ".join),
)


class TestContextWords:
    @given(CONTEXT_TEXT, st.sampled_from(["left", "right"]))
    @settings(max_examples=300)
    def test_what_fill_query_stores(self, text, side):
        try:
            words = context_words(text)
        except ScriptError as exc:
            with pytest.raises(ScriptError):
                words_of(text)
            with pytest.raises(ValueError, match=(
                    f"^{side} context does not parse: "
                    f"{type(exc).__name__}: ")):
                FillQuery(target="10", **{f"{side}_context": text})
            return
        assert words == words_of(text)
        query = FillQuery(target="10", **{f"{side}_context": text})
        assert getattr(query, f"{side}_words") == words


def brute_force(query, surfaces, tables=None):
    """Oracle: enumerate every phrase up to max_words, rescan in context."""
    left = words_of(query.left_context)
    right = words_of(query.right_context)
    words = {s: parse_line(s).words[0] for s in surfaces}
    found = set()
    for n in range(1, query.max_words + 1):
        for combo in itertools.product(sorted(words), repeat=n):
            phrase = [words[s] for s in combo]
            if matches_target(phrase, left, right, query, tables):
                found.add(" ".join(combo))
    return sorted(found)[:query.max_results]


class TestBoundedCompleteness:
    LEXICON = ["مَا", "لَهُ", "عَلَّمَ", "مَعًا", "مِنْ", "قَدْ", "لَا",
               "قَتَلَ"]

    @pytest.mark.parametrize("target", ["10", "11010", "1011", "110110",
                                        "101010", "01"])
    def test_matches_brute_force(self, target):
        lex = index_lexicon(self.LEXICON)
        query = FillQuery(target=target, max_words=2)
        assert fill(query, lex) == brute_force(query, self.LEXICON)

    def test_with_context(self):
        lex = index_lexicon(self.LEXICON)
        query = FillQuery(target="1010", left_context="عَلَّمَ",
                          right_context="مَعًا", max_words=2)
        assert fill(query, lex) == brute_force(query, self.LEXICON)

    # In isolation five words scan as 10, two as 11 and two as 1010,
    # which is also 10 twice.
    SHARED_PATTERNS = ["مَا", "لَا", "يَا", "قَدْ", "مِنْ", "لَهُ", "بِهِ",
                       "لَهُمْ", "بَدْرٌ", "دَمْعٌ"]

    @pytest.mark.parametrize("target", ["1010", "101110", "11010",
                                        "1110", "10101010"])
    @pytest.mark.parametrize("left, right", [("", ""),
                                             ("عَلَّمَ", "مَعًا")])
    def test_shared_patterns_walk_once(self, monkeypatch, target, left,
                                       right):
        scanned = []
        final_beats = filler._final_beats

        def counted(window, tables):
            scanned.append(window)
            return final_beats(window, tables)

        lex = index_lexicon(self.SHARED_PATTERNS)
        query = FillQuery(target=target, left_context=left,
                          right_context=right, max_words=3)
        monkeypatch.setattr(filler, "_windows", Memo(counted, None))
        assert fill(query, lex) == brute_force(query, self.SHARED_PATTERNS)
        # Each window is scanned once, however many phrases reach it.
        assert scanned and len(scanned) == len(set(scanned))


class TestSoundness:
    def test_results_rescan_to_target(self):
        lex = index_lexicon(TestBoundedCompleteness.LEXICON)
        query = FillQuery(target="110110", max_words=2)
        for phrase in fill(query, lex):
            words = parse_line(phrase).words
            assert matches_target(list(words), (), (), query)


def reference_phrase_beats(phrase, left, right, verse_final):
    """The phrase's segments of each reading, from `beat_segments`."""
    words = tuple(left) + tuple(phrase) + tuple(right)
    try:
        readings = scan_readings(ScriptLine(words), verse_final=verse_final)
    except ScriptError:
        return []
    if len(readings[0][0].words) != len(words):
        return []
    lo, hi = len(left), len(left) + len(phrase)
    return ["".join(beat_segments(transcription)[lo:hi])
            for transcription, _ in readings]


# Words that change at a boundary (isba, plural-m, connective alifs,
# tanwin), that vanish, and plain ones.
CONTEXT_WORDS = ["لَهُمْ", "مَا", "لَهُ", "عَلَيْكُمْ", "بِهِمُ", "قُلْ",
                 "ٱبْنُ", "ٱلْبَيْتِ", "فِي", "مَعًا", "عَلَّمَ", "و۠",
                 "قَتَلَ", "بَمّ", "دَمْعٌ", "قَلْبِي"]
CONTEXT = st.lists(st.sampled_from(CONTEXT_WORDS), max_size=3).map(
    lambda ws: parse_line(" ".join(ws)).words if ws else ())


class TestPhraseBeatsSlice:
    @given(CONTEXT.filter(bool), CONTEXT, CONTEXT, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_slice_equals_segments(self, phrase, left, right, verse_final):
        assert phrase_beats_in_context(phrase, left, right, verse_final) \
            == reference_phrase_beats(phrase, left, right, verse_final)

    @pytest.mark.parametrize("left", ["", "قَالَ"])
    @pytest.mark.parametrize("verse_final", [False, True])
    def test_licensed_plural_m(self, left, verse_final):
        left_words = parse_line(left).words if left else ()
        got = phrase_beats_in_context(parse_line("لَهُمْ").words,
                                      left_words, parse_line("مَا").words,
                                      verse_final)
        assert got == ["110", "1110"]
        assert got == reference_phrase_beats(
            parse_line("لَهُمْ").words, left_words, parse_line("مَا").words,
            verse_final)


def edit_row(a, b):
    """Last row of the edit-distance DP of `a` against `b`: entry j is
    the distance from `a` to `b[:j]`."""
    row = list(range(len(b) + 1))
    for ca in a:
        left = row[0] + 1
        current = [left]
        for up, diagonal, cb in zip(row[1:], row, b):
            left = min(up + 1, left + 1, diagonal + (ca != cb))
            current.append(left)
        row = current
    return row


def reference_fill(query, surfaces, tables=None):
    """The search `fill` ran before exact pruning, as an oracle.

    A phrase was extended while the isolated beats of its words stayed
    within 2 edits per word (plus 2) of some target prefix, and every
    phrase reached was rescanned.  Testing a candidate's whole beats is
    the same as the old walk of the beat trie, since the least distance
    to a target prefix never falls as beats are appended.
    """
    left = words_of(query.left_context)
    right = words_of(query.right_context)
    lexicon = [(surface, word, scan(ScriptLine((word,)), tables)[1])
               for surface, word in index_lexicon(surfaces, tables).entries]
    found = set()

    def descend(chosen, beats):
        if chosen:
            if matches_target([word for _, word in chosen], left, right,
                              query, tables):
                found.add(" ".join(surface for surface, _ in chosen))
        if len(chosen) >= query.max_words:
            return
        slack = 2 * (len(chosen) + 1)
        for surface, word, isolated in lexicon:
            if min(edit_row(beats + isolated, query.target)) <= slack:
                descend(chosen + [(surface, word)], beats + isolated)

    descend([], "")
    return sorted(found)[:query.max_results]


# Lexicon words that change at a boundary: plural-m and pronoun clitics
# (isba), one-grapheme words, lone unvocalized letters (one a waw, which
# can be a long vowel), a word whose first letter has no vowel, which isba
# before it reads, words holding a connective alif (one after a bare
# waw, which a word before can make a long vowel), words that begin with
# one (an article before a moon letter and before a sun letter), a long
# vowel the next word's alif deletes, a word that silent removal empties,
# a special word and a madda.
FILL_POOL = ["مَا", "لَهُ", "لَهُمْ", "عَلَيْكُمْ", "بِهِمُ", "لِ", "بِ", "بْ",
             "و", "بْنُ", "وَٱبْنُ", "وٱبْنُ", "فَٱسْتَمِعْ", "ٱبْنُ",
             "ٱلْقَمَرُ", "ٱللَّهُ", "فِي", "قَلْبِي", "مَعًا", "دَمْعٌ", "قَدْ",
             "مِنْ", "و۠", "هذا", "آمَنَ", "عَلَّمَ"]
# Contexts add more words that begin with a connective alif.
FILL_CONTEXT = st.lists(
    st.sampled_from(FILL_POOL + ["ٱلْبَيْتِ", "ٱسْمُ", "قُلْ"]),
    max_size=3).map(" ".join)


@st.composite
def fill_cases(draw, tables=None, pool=FILL_POOL):
    """A lexicon from `pool` and a query on it, whose target is the
    beats of a phrase of lexicon words in context, or random."""
    surfaces = draw(st.lists(st.sampled_from(pool), min_size=1,
                             max_size=6, unique=True))
    left, right = draw(FILL_CONTEXT), draw(FILL_CONTEXT)
    verse_final = draw(st.booleans())
    max_words = draw(st.integers(1, 3))
    planted = draw(st.lists(st.sampled_from(surfaces), min_size=1,
                            max_size=max_words))
    readings = phrase_beats_in_context(
        [parse_line(surface).words[0] for surface in planted],
        words_of(left), words_of(right), verse_final, tables)
    target = draw(st.sampled_from(readings) if readings and draw(
        st.booleans()) else st.text("01", min_size=1, max_size=8))
    return surfaces, FillQuery(
        target=target, left_context=left, right_context=right,
        max_words=max_words, max_results=draw(st.integers(1, 300)),
        verse_final=verse_final)


# Words that begin with a connective alif: article nouns before a moon
# letter, a sun letter and the lam of ٱللَّهُ, and nouns with a bare
# alif; and words whose ending such an alif reads: a short vowel, a long
# vowel, a sukun and a lone consonant, and isba hosts.
WASL_POOL = ["ٱبْنُ", "ٱسْمُ", "ٱلْقَمَرُ", "ٱلشَّمْسُ", "ٱللَّهُ", "ٱلْبَيْتِ",
             "فِي", "قَلْبِي", "مَا", "لَهُ", "لَهُمْ", "بْ", "قَدْ"]


class TestConnectiveAlifWords:
    def test_indexed_and_proposed(self):
        lex = index_lexicon(["فِي", "ٱلْقَمَرُ"])
        assert len(lex) == 2
        assert fill(FillQuery(target="10111"), lex) == \
            ["فِي ٱلْقَمَرُ", "ٱلْقَمَرُ"]
        assert fill(FillQuery(target="0111", left_context="قَلْبِي"),
                    lex) == ["ٱلْقَمَرُ"]

    def test_share_one_lead(self):
        # So many article nouns add one group of next words, not one
        # each; the lead test of `TestExactPruning` checks that words
        # with one lead are alike there.
        leads = {scansion.lead(parse_line(surface).words[0])
                 for surface in WASL_POOL[:6]}
        assert len(leads) == 1

    @given(fill_cases(pool=WASL_POOL))
    @settings(max_examples=200, deadline=None)
    def test_same_results_as_brute_force(self, case):
        # Criterion 9's oracle over a pool of such words, in context.
        surfaces, query = case
        lex = index_lexicon(surfaces)
        assert len(lex) == len(surfaces)
        assert fill(query, lex) == brute_force(query, surfaces)


@functools.cache
def custom_tables():
    """The shipped tables, except that مَا gains a second alif."""
    shipped = Path(filler.__file__).parent / "data"
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("juncture.tsv", "known_words.tsv", "silent_words.tsv",
                     "VERSION"):
            Path(tmp, name).write_bytes((shipped / name).read_bytes())
        Path(tmp, "special_words.tsv").write_text("ما\tمَاا\n",
                                                  encoding="utf-8")
        return TableSet.load(tmp)


class TestExactPruning:
    @given(fill_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_results_as_slack_search(self, case, cold):
        surfaces, query = case
        if cold:
            filler._windows.clear()
        assert fill(query, index_lexicon(surfaces)) == \
            reference_fill(query, surfaces)

    @given(st.lists(st.tuples(st.booleans(), fill_cases()), min_size=2,
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_tables_switch_between_calls(self, calls):
        for custom, (surfaces, query) in calls:
            tables = custom_tables() if custom else None
            assert fill(query, index_lexicon(surfaces, tables), tables) == \
                reference_fill(query, surfaces, tables)

    def test_stale_window_would_lose_a_phrase(self):
        # With the shipped tables مَا reads 10; with `custom_tables` 100,
        # so windows kept from the first call would prune the second
        # call's only phrase after its first word.
        surfaces = ["مَا", "قَدْ"]
        query = FillQuery(target="1010", max_words=2)
        assert fill(query, index_lexicon(surfaces)) == \
            [f"{x} {y}" for x in ("قَدْ", "مَا") for y in ("قَدْ", "مَا")]
        tables = custom_tables()
        query = FillQuery(target="10010010", max_words=3)
        assert fill(query, index_lexicon(surfaces, tables), tables) == \
            ["مَا مَا قَدْ"]

    def test_next_letter_vocalized_by_the_right_context(self):
        # بْ alone reads 0, so before it لَهُمْ has no licensed reading;
        # the connective alif after it gives بْ a vowel, and only then
        # does the licensed لَهُمُو (1110) precede it.
        lex = index_lexicon(["لَهُمْ", "بْ", "مَا"])
        query = FillQuery(target="11101", right_context="ٱبْنُ")
        assert fill(query, lex) == ["لَهُمْ بْ", "لَهُمْ مَا"]
        assert fill(query, lex) == reference_fill(query, ["لَهُمْ", "بْ",
                                                          "مَا"])

    def test_word_reading_back_gets_a_wider_window(self):
        # After لَهُ the bare waw of وٱبْنُ is a long vowel, which its
        # connective alif deletes with itself; read alone, the waw would
        # take a vowel instead.
        surfaces = ["لَهُ", "وٱبْنُ", "مَا"]
        query = FillQuery(target="110110")
        assert fill(query, index_lexicon(surfaces)) == ["لَهُ وٱبْنُ مَا"]
        assert scansion.reads_back(parse_line("وٱبْنُ").words[0])
        for surface in ("مَا", "وَٱبْنُ", "لِ", "بْ"):
            assert not scansion.reads_back(parse_line(surface).words[0])

    @given(st.lists(st.sampled_from(FILL_POOL), max_size=2),
           st.sampled_from(FILL_POOL + ["ٱسْمُ"]))
    @settings(max_examples=at_least(150), deadline=None)
    def test_words_with_one_lead_are_alike_as_next_word(self, before, word):
        # What `fill` relies on to read one window per group of words.
        words = tuple(parse_line(s).words[0] for s in [*before, word])
        seen = {}
        for surface in FILL_POOL:
            x = parse_line(surface).words[0]
            beats = filler._final_beats(words + (x,), None)
            assert seen.setdefault(scansion.lead(x), beats) == beats

    @given(st.lists(st.sampled_from(FILL_POOL + ["ٱسْمُ"]),
                    min_size=2, max_size=6).map(" ".join), st.booleans())
    @settings(max_examples=at_least(300), deadline=None)
    def test_window_holds_the_line_beats(self, text, verse_final):
        words = parse_line(text).words
        try:
            readings = scan_readings(ScriptLine(words),
                                     verse_final=verse_final)
        except ScriptError:
            return
        if len(readings[0][0].words) != len(words):
            return
        segments = [beat_segments(transcription)
                    for transcription, _ in readings]
        end = filler._VERSE_END if verse_final else filler._LINE_END
        for at in range(len(words)):
            before = words[max(0, at - 2):at] \
                if scansion.reads_back(words[at]) else ()
            plain, licensed = filler._final_beats(
                before + (words[at:at + 2] + (end,))[:2], None)
            assert segments[0][at] in plain
            assert segments[-1][at] in licensed

    REPRO = ["مَا", "لَا", "لِ", "بِ", "كَ", "فَ", "وَ", "مِنْ", "عَنْ",
             "قَدْ"]

    def test_repro_is_bounded_and_complete(self, caplog, monkeypatch):
        rescans = []
        rescan = filler.matches_target

        def counted(*args):
            rescans.append(args)
            return rescan(*args)

        lex = index_lexicon(self.REPRO)
        monkeypatch.setattr(filler, "_windows",
                            Memo(filler._final_beats, None))
        monkeypatch.setattr(filler, "matches_target", counted)
        got = fill(FillQuery(target="101010", max_words=6, max_results=1000),
                   lex)
        assert not caplog.records
        assert len(got) == 125
        # Only phrases whose last word completes the target are rescanned.
        assert len(rescans) == 125
        monkeypatch.undo()
        assert got == reference_fill(
            FillQuery(target="101010", max_words=4, max_results=1000),
            self.REPRO)

    def test_golden_words_three_deep(self, caplog):
        from test_golden import load_golden
        # Every word of the golden verses, article nouns included.
        words = sorted({word for text, _, _ in load_golden()
                        for word in text.split()})
        assert len(words) == 60
        query = FillQuery(target="1011010", max_words=3, max_results=10 ** 6)
        got = fill(query, index_lexicon(words))
        assert not caplog.records
        assert any(len(phrase.split()) == 3 for phrase in got)
        assert got == reference_fill(query, words)

    def test_homophones_reach_the_budget(self, caplog):
        # Twelve words that read 10 in any line: 12 ** 4 phrases of four
        # match, and the search stops after MAX_PHRASES phrases.
        surfaces = [first + "َ" + last + "ْ"
                    for first, last in zip("بتثجدذرزسشصض", "طظعغفقكلنتبد")]
        lex = index_lexicon(surfaces)
        assert len(lex) == 12
        query = FillQuery(target="10101010", max_words=4,
                          max_results=10 ** 6)
        got = fill(query, lex)
        assert [record.getMessage() for record in caplog.records] == [
            f"search stopped after {filler.MAX_PHRASES} phrases; results "
            "may be incomplete"]
        assert got == sorted(got)
        assert 0 < len(got) < 12 ** 4
        assert all(len(phrase.split()) == 4 for phrase in got)


class TestDeepPhrases:
    def test_more_words_than_the_recursion_limit(self, tmp_path):
        # One phrase per depth down to 500 words: the search keeps its
        # own stack, so a fresh interpreter's default limit holds.
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("مَا\n", encoding="utf-8")
        env = dict(os.environ, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=str(Path(filler.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "arud.cli", "fill", "--lexicon",
             str(lexicon), "--target", "10" * 500, "--max-words", "500"],
            capture_output=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == " ".join(["مَا"] * 500) + "\n"
