"""Parsing, rendering, canonical mark order and diacritization ratio."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
import unicodedata
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from arud.errors import (
    DoubleDiacritic,
    EmptyLine,
    EmptyWord,
    ForeignCharacter,
    LeadingDiacritic,
    ScriptError,
)
from arud import script
from arud.script import (
    ALIF,
    ALIF_MAKSURA,
    ARABIC_LETTERS,
    FATHA,
    KASRA,
    MEMO_SIZE,
    SHADDA,
    SILENCE,
    SUKUN,
    TANWIN_FATH,
    TATWEEL,
    VOWEL_CHAR_TO_KIND,
    WASL_ALIF,
    Grapheme,
    ScriptLine,
    fix_diacritic_order,
    parse_line,
    render_grapheme,
    render_line,
    word_diacritization_ratio,
)

SAFE_LETTERS = sorted(ARABIC_LETTERS - {"ٱ"})
VOWELS = ["fatha", "damma", "kasra", "sukun",
          "tanwin_fath", "tanwin_damm", "tanwin_kasr", None]


def graphemes():
    return st.builds(
        Grapheme,
        base=st.sampled_from(SAFE_LETTERS),
        vowel=st.sampled_from(VOWELS),
        shadda=st.booleans(),
    )


def words():
    return st.lists(graphemes(), min_size=1, max_size=6).map(tuple)


def lines():
    return st.builds(
        ScriptLine,
        words=st.lists(words(), min_size=1, max_size=5).map(tuple),
    )


class TestParse:
    def test_two_grapheme_word(self):
        line = parse_line("مَا")
        assert line.word_count() == 1
        m, a = line.words[0]
        assert m.base == "م" and m.vowel == "fatha"
        assert a.base == "ا" and a.vowel is None

    def test_shadda_plus_vowel(self):
        line = parse_line("عَلَّمَ")
        lam = line.words[0][1]
        assert lam.shadda and lam.vowel == "fatha"

    def test_leading_diacritic(self):
        with pytest.raises(LeadingDiacritic):
            parse_line(FATHA + "مَا")

    def test_foreign_character(self):
        with pytest.raises(ForeignCharacter):
            parse_line("مَاx")

    def test_double_vowel_mark(self):
        with pytest.raises(DoubleDiacritic):
            parse_line("مَُا")

    def test_empty_line(self):
        with pytest.raises(EmptyLine):
            parse_line("   ")

    def test_wasl_alif_flagged(self):
        line = parse_line("ٱلْبَيْتِ")
        assert line.words[0][0].is_wasl


class TestRender:
    def test_canonical_mark_order(self):
        word = (Grapheme("م", vowel="fatha", shadda=True),)
        text = render_line(ScriptLine((word,)))
        assert text == "م" + SHADDA + FATHA

    def test_silence_mark_renders_last(self):
        word = (Grapheme("و", silent=True),)
        assert render_line(ScriptLine((word,))) == "و" + SILENCE

    def test_empty_line_refused(self):
        with pytest.raises(EmptyLine):
            render_line(ScriptLine(()))

    @given(lines())
    def test_round_trip(self, line):
        assert parse_line(render_line(line)) == line


def _data_words():
    """Each distinct word of the test data's verse that parses, as the
    parser gives it."""
    data = Path(__file__).parent / "data"
    texts = [row.split("\t")[0] for path in [
        data / "golden_scansion.tsv", data / "engine_snapshot" / "input.txt",
        data / "behaviour_snapshot" / "lexicon.txt"]
        for row in path.read_text(encoding="utf-8").splitlines()
        if not row.startswith("#")]
    words = set()
    for chunk in {chunk for text in texts for chunk in text.split()}:
        try:
            words.add(parse_line(chunk).words[0])
        except ScriptError:
            pass
    return sorted(words, key=script.render_word)


# Parsed verse words, which repeat as verse does, and generated ones.
POOL_WORDS = _data_words()
RENDER_WORDS = st.one_of(st.sampled_from(POOL_WORDS), words())


class TestRenderMemo:
    """`render_line` reads each word's text from `_rendered`."""

    @pytest.mark.property
    @given(st.lists(RENDER_WORDS, min_size=1, max_size=8))
    def test_same_as_joining_render_word(self, line_words):
        line = ScriptLine(tuple(line_words))
        text = render_line(line)
        assert text == " ".join([script.render_word(w) for w in line_words])
        assert parse_line(text) == line

    def test_evicted_word_is_rendered_again(self, monkeypatch):
        script._rendered.clear()
        monkeypatch.setattr(script._rendered, "size", 2)
        a, b, c = parse_line("مَا لَهُ قَالَ").words
        assert render_line(ScriptLine((a, b, c))) == "مَا لَهُ قَالَ"
        assert list(script._rendered) == [b, c]
        assert render_line(ScriptLine((c, a))) == "قَالَ مَا"
        assert list(script._rendered) == [c, a]
        assert render_line(ScriptLine((b, b))) == "لَهُ لَهُ"
        assert list(script._rendered) == [a, b]

    def test_empty_word_raises_and_is_not_stored(self):
        script._rendered.clear()
        word = parse_line("مَا").words[0]
        with pytest.raises(EmptyWord):
            render_line(ScriptLine((word, ())))
        assert list(script._rendered) == [word]
        with pytest.raises(EmptyWord):
            render_line(ScriptLine(((),)))
        assert list(script._rendered) == [word]


class TestGraphemeInvariants:
    def test_silent_excludes_vowel(self):
        with pytest.raises(DoubleDiacritic):
            Grapheme("و", vowel="fatha", silent=True)

    def test_wasl_requires_wasl_alif(self):
        with pytest.raises(ValueError):
            Grapheme("م", is_wasl=True)

    def test_non_letter_base_rejected(self):
        with pytest.raises(ForeignCharacter):
            Grapheme("x")


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestSharedGraphemes:
    @given(st.sampled_from(sorted(ARABIC_LETTERS)), st.sampled_from(VOWELS),
           st.booleans(), st.booleans(), st.booleans())
    def test_same_value_and_errors_as_direct_construction(
            self, base, vowel, shadda, silent, is_wasl):
        args = (base, vowel, shadda, silent, is_wasl)
        if _raised(lambda: Grapheme(*args)) is None:
            assert Grapheme(*args) is Grapheme(*args)

    @pytest.mark.parametrize("args", [
        ("x",),
        ("م", "schwa"),
        ("و", "fatha", False, True),
        ("م", None, False, False, True),
        ("ٱ", None, True, False, True),
    ])
    def test_invalid_values_raise_each_time(self, args):
        direct = _raised(lambda: Grapheme(*args))
        assert direct is not None
        for _ in range(2):  # a failure is not cached
            assert _raised(lambda: Grapheme(*args)) == direct

    def test_with_vowel_returns_shared_values(self):
        g = Grapheme("م", vowel="fatha")
        assert g.with_vowel("kasra") == Grapheme("م", vowel="kasra")
        assert g.with_vowel("kasra") is g.with_vowel("kasra")
        assert _raised(lambda: g.with_vowel("schwa")) == \
            _raised(lambda: Grapheme("م", vowel="schwa"))

    def test_parsed_graphemes_are_shared(self):
        first = parse_line("مَا مَا").words
        assert first[0][0] is first[1][0]
        assert parse_line("مَا").words[0][0] is first[0][0]

    def test_word_memo_stays_within_its_size(self):
        script._parsed.clear()
        letters = sorted(ARABIC_LETTERS - {"ٱ"})
        n = MEMO_SIZE + 50
        # Kasra before shadda: NFC reorders these chunks, so the memo
        # keys them as written.
        words = [letters[i % len(letters)] + SHADDA + KASRA
                 + letters[i // len(letters) % len(letters)] + SUKUN
                 + letters[i // len(letters) ** 2] for i in range(n)]
        assert len(set(words)) == n
        parsed = [parse_line(word).words[0] for word in words]
        assert len(script._parsed) == MEMO_SIZE
        # A word still held is the same Word; the first one, gone, is
        # parsed anew.
        assert parse_line(words[-1]).words[0] is parsed[-1]
        first = parse_line(words[0]).words[0]
        assert first == parsed[0] and first is not parsed[0]


# Every letter, alifs weighted up: the tanwin-fath rule acts on them.
LETTERS = st.sampled_from(
    sorted(ARABIC_LETTERS) + [ALIF, ALIF_MAKSURA] * 10)

# Combining marks outside the nine: stripped, or composed into a letter.
OUTSIDE_MARKS = ["\u0610", "\u0653", "\u0654", "\u0655", "\u0670"]
# A letter with up to two marks: of the nine, the silence mark and
# tanwin-fath weighted up, or outside them.
MARKED_LETTER = st.tuples(LETTERS, st.lists(st.sampled_from(
    sorted(script.MARKS) + [SILENCE, TANWIN_FATH] * 6 + OUTSIDE_MARKS),
    max_size=2).map("".join)).map("".join)
# Words of such letters, each followed by whitespace, tatweel or an
# outside mark.
MARKED_TEXT = st.lists(st.tuples(
    st.lists(MARKED_LETTER, min_size=1, max_size=4).map("".join),
    st.sampled_from([" ", "\u00a0", TATWEEL] + OUTSIDE_MARKS))
    .map("".join), max_size=4).map("".join)


class TestFixDiacriticOrder:
    def test_shadda_moved_before_vowel(self):
        assert fix_diacritic_order("م" + FATHA + SHADDA) == \
            "م" + SHADDA + FATHA

    def test_tanwin_after_alif_moved_before_it(self):
        # alif carrying the tanwin: mark belongs on the preceding letter
        raw = "با" + TANWIN_FATH
        assert fix_diacritic_order(raw) == "ب" + TANWIN_FATH + "ا"

    @pytest.mark.parametrize("before, after", [
        # a fatha on the letter before gives way to the tanwin
        ("ب" + FATHA + "ا" + TANWIN_FATH, "ب" + TANWIN_FATH + "ا"),
        # no vowel there: the tanwin joins its shadda
        ("ب" + SHADDA + "ا" + TANWIN_FATH, "ب" + SHADDA + TANWIN_FATH + "ا"),
        # any other vowel there: the tanwin is dropped
        ("ب" + KASRA + "ا" + TANWIN_FATH, "ب" + KASRA + "ا"),
        # an alif before the alif cannot take it: it stays
        ("ا" + "ا" + TANWIN_FATH, "ا" + "ا" + TANWIN_FATH),
        # a silence mark there gives way to it
        ("ب" + SILENCE + "ا" + TANWIN_FATH, "ب" + TANWIN_FATH + "ا"),
        # alif maksura as the orthographic alif
        ("ه" + ALIF_MAKSURA + TANWIN_FATH, "ه" + TANWIN_FATH + ALIF_MAKSURA),
        # the connective alif cannot take it either: it stays
        (WASL_ALIF + ALIF_MAKSURA + TANWIN_FATH,
         WASL_ALIF + ALIF_MAKSURA + TANWIN_FATH),
    ])
    def test_tanwin_on_alif_per_letter_before(self, before, after):
        assert fix_diacritic_order(before) == after
        assert fix_diacritic_order(after) == after

    def test_double_vowel_keeps_first(self):
        raw = "م" + FATHA + SUKUN
        assert fix_diacritic_order(raw) == "م" + FATHA

    def test_tatweel_stripped(self):
        assert fix_diacritic_order("مـَا") == "مَا"

    def test_foreign_character_rejected(self):
        with pytest.raises(ForeignCharacter):
            fix_diacritic_order("مَاx")

    def test_leading_mark_rejected(self):
        with pytest.raises(LeadingDiacritic):
            fix_diacritic_order(FATHA + "م")

    # Letters with marks in canonical order, letters with up to three
    # marks in any order, spaces, tatweel and a Latin letter: many texts
    # are canonical, many are not.
    @given(st.lists(st.one_of(
        st.tuples(LETTERS, st.sampled_from(["", SHADDA]),
                  st.sampled_from(["", SILENCE] + list(VOWEL_CHAR_TO_KIND)))
        .map("".join),
        st.tuples(LETTERS, st.lists(st.sampled_from(sorted(script.MARKS)),
                                    max_size=3).map("".join)).map("".join),
        st.sampled_from([" ", "  ", "\u00a0", "\u2000", TATWEEL, "x"])),
        max_size=12).map("".join))
    @settings(max_examples=500)
    def test_canonical_text_skips_the_reorder(self, text):
        def outcome(fix):
            try:
                return fix(text)
            except ScriptError as exc:
                return type(exc)
        assert outcome(fix_diacritic_order) \
            == outcome(script._reorder_marks)

    @pytest.mark.property
    @given(MARKED_TEXT)
    @example("ب" + SILENCE + "ا" + TANWIN_FATH)
    def test_output_is_a_parsing_fixed_point(self, text):
        out = fix_diacritic_order(text)
        assert fix_diacritic_order(out) == out
        if not out.split():
            return
        if WASL_ALIF + SHADDA in out:
            with pytest.raises(DoubleDiacritic):
                parse_line(out)
        else:
            parse_line(out)

    @given(lines())
    def test_idempotent_on_rendered_lines(self, line):
        text = render_line(line)
        once = fix_diacritic_order(text)
        assert fix_diacritic_order(once) == once

    @given(lines())
    def test_output_parses(self, line):
        parse_line(fix_diacritic_order(render_line(line)))


class TestDiacritizationRatio:
    def test_half_marked(self):
        assert word_diacritization_ratio(parse_line("مَا").words[0]) == 0.5

    def test_fully_marked(self):
        assert word_diacritization_ratio(parse_line("عَلَّمَ").words[0]) == 1.0

    def test_bare(self):
        assert word_diacritization_ratio(parse_line("علم").words[0]) == 0.0

    def test_silent_counts_as_marked(self):
        word = (Grapheme("و", silent=True), Grapheme("م"))
        assert word_diacritization_ratio(word) == 0.5

    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            word_diacritization_ratio(())

    @given(words())
    def test_reorder_invariant(self, word):
        # ratio depends on mark presence, not serialization order
        shuffled = tuple(reversed(word))
        assert word_diacritization_ratio(word) == pytest.approx(
            word_diacritization_ratio(shuffled))


class TestInterning:
    """One Grapheme instance per value, in this process and after a trip
    through pickle or copy."""

    @given(st.sampled_from(SAFE_LETTERS), st.sampled_from(VOWELS),
           st.booleans())
    def test_construction_returns_the_one_instance(self, base, vowel,
                                                   shadda):
        g = Grapheme(base, vowel, shadda)
        assert Grapheme(base, vowel=vowel, shadda=shadda) is g
        assert g.with_vowel(vowel) is g

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_instance(self, protocol):
        for g in (Grapheme("م", vowel="fatha", shadda=True),
                  Grapheme("و", silent=True), Grapheme("ٱ", is_wasl=True)):
            assert pickle.loads(pickle.dumps(g, protocol)) is g

    def test_copy_returns_the_instance(self):
        g = Grapheme("ن", vowel="tanwin_damm")
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert copy.deepcopy((g, [g]))[1][0] is g

    def test_pickled_table_set_holds_interned_graphemes(self):
        # pickled in another process, as a --jobs 2 worker receives it
        code = ("import pickle, sys; from arud.tables import TableSet; "
                "sys.stdout.buffer.write(pickle.dumps(TableSet.load()))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        blob = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, env=env).stdout
        tables = pickle.loads(blob)
        graphemes = [g for table in (tables.special, tables.known)
                     for words in table.entries.values()
                     for word in words for g in word]
        assert graphemes
        for g in graphemes:
            assert g is Grapheme(g.base, g.vowel, g.shadda, g.silent,
                                 g.is_wasl)

    def test_immutable(self):
        g = Grapheme("م", vowel="fatha")
        with pytest.raises(FrozenInstanceError):
            g.vowel = "kasra"
        with pytest.raises(FrozenInstanceError):
            del g.base
        assert g.vowel == "fatha"

    def test_repr_and_render(self):
        g = Grapheme("م", vowel="fatha", shadda=True)
        assert repr(g) == ("Grapheme(base='م', vowel='fatha', shadda=True, "
                           "silent=False, is_wasl=False)")
        assert render_grapheme(g) == "م" + SHADDA + FATHA

    def test_equality_and_hash_are_identity(self):
        g = Grapheme("م", vowel="fatha")
        assert g == Grapheme("م", vowel="fatha")
        assert g != Grapheme("م", vowel="kasra")
        assert hash(g) == object.__hash__(g)


def reference_bare(g):
    """The bare-letter test as the rules wrote it out before
    `Grapheme.bare`."""
    return (g.vowel is None and not g.shadda and not g.silent
            and not g.is_wasl)


def reference_ratio(word):
    """`word_diacritization_ratio` as it was before `Grapheme.bare`."""
    marked = sum(
        1 for g in word
        if g.vowel is not None or g.shadda or g.silent or g.is_wasl
    )
    return marked / len(word)


def _grapheme_or_none(base, vowel, shadda, silent):
    try:
        return Grapheme(base, vowel, shadda, silent, base == script.WASL_ALIF)
    except ValueError:
        return None


# Every kind of grapheme: silent letters and connective alifs included.
ANY_GRAPHEME = st.builds(
    _grapheme_or_none, st.sampled_from(sorted(ARABIC_LETTERS)),
    st.sampled_from(VOWELS), st.booleans(), st.booleans(),
).filter(lambda g: g is not None)


def _every_grapheme():
    """Intern every valid value; return every interned grapheme."""
    for base in sorted(ARABIC_LETTERS):
        for vowel in VOWELS:
            for shadda, silent, is_wasl in itertools.product(
                    (False, True), repeat=3):
                try:
                    Grapheme(base, vowel, shadda, silent, is_wasl)
                except ValueError:  # every ScriptError is one too
                    pass
    return list(script._SHARED.values())


class TestVocalizationFlags:
    """The flags set at interning keep the meaning of their definitions."""

    def test_every_interned_grapheme(self):
        every = _every_grapheme()
        assert len(every) > 500
        for g in every:
            assert g.vocalized == (g.vowel in script.SHORT_VOWELS)
            assert g.unvocalized == (
                not g.silent and (g.vowel is None or g.vowel == "sukun"))
            assert g.bare == reference_bare(g)
        assert script.WASL_GRAPHEMES == {g for g in every if g.is_wasl}

    @pytest.mark.parametrize("flag", ["vocalized", "unvocalized", "bare"])
    def test_read_only(self, flag):
        g = Grapheme("م", vowel="fatha")
        before = getattr(g, flag)
        with pytest.raises(FrozenInstanceError):
            setattr(g, flag, not before)
        with pytest.raises(FrozenInstanceError):
            delattr(g, flag)
        assert getattr(g, flag) == before

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_survive_pickle_and_deepcopy(self, protocol):
        for g in _every_grapheme():
            flags = (g.vocalized, g.unvocalized, g.bare)
            for other in (pickle.loads(pickle.dumps(g, protocol)),
                          copy.deepcopy(g)):
                assert other is g
                assert (other.vocalized, other.unvocalized,
                        other.bare) == flags

    @given(st.lists(st.lists(ANY_GRAPHEME, min_size=1, max_size=6),
                    min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_bare_on_parsed_words(self, words):
        line = parse_line(" ".join("".join(map(render_grapheme, word))
                                   for word in words))
        for word in line.words:
            assert word_diacritization_ratio(word) == reference_ratio(word)
            for g in word:
                assert g.bare == reference_bare(g)

    def test_pickled_in_another_process(self):
        code = ("import pickle, sys; from arud.script import Grapheme; "
                "sys.stdout.buffer.write(pickle.dumps(["
                "Grapheme('م', 'kasra'), Grapheme('ن', 'sukun'), "
                "Grapheme('و', silent=True), Grapheme('ٱ', is_wasl=True)]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        blob = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, env=env).stdout
        kasra, sukun, silent, wasl = pickle.loads(blob)
        assert (kasra.vocalized, kasra.unvocalized) == (True, False)
        assert (sukun.vocalized, sukun.unvocalized) == (False, True)
        assert (silent.vocalized, silent.unvocalized) == (False, False)
        assert (wasl.vocalized, wasl.unvocalized) == (False, True)
        assert wasl in script.WASL_GRAPHEMES


def _parse_line_of_nfc(raw):
    """`parse_line` as first defined: NFC of the whole line, then split."""
    text = unicodedata.normalize("NFC", raw)
    if not text.strip():
        raise EmptyLine("no words in line")
    return ScriptLine(tuple(map(script._parse_chars, text.split())))


# Letters, marks in either order, the three combining marks NFC composes
# into letters, a foreign character and whitespace of several kinds,
# some of which NFC rewrites.
RAW_TEXT = st.text(alphabet=[
    "ب", "م", ALIF, "و", "ي", "ٱ", FATHA, KASRA, SHADDA, SUKUN, SILENCE,
    TANWIN_FATH, "\u0653", "\u0654", "\u0655", "x",
    " ", "\t", "\u00a0", "\u2000", "\u3000", "\u0085"], max_size=16)


class TestParseLineOracle:
    """`parse_line` looks each word up as written and normalizes only a
    word it has not met."""

    @pytest.mark.property
    @given(RAW_TEXT)
    def test_same_words_or_error_as_nfc_of_the_line(self, raw):
        want = _raised(lambda: _parse_line_of_nfc(raw)) \
            or _parse_line_of_nfc(raw)
        got = _raised(lambda: parse_line(raw)) or parse_line(raw)
        assert got == want

    def test_a_word_met_again_is_the_same_object(self):
        chunk = "ب" + SHADDA + KASRA + "ا"  # NFC puts kasra first
        first = parse_line(chunk).words[0]
        assert parse_line(f"مَا {chunk}").words[1] is first
        assert first == parse_line("ب" + KASRA + SHADDA + "ا").words[0]
