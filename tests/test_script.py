"""Parsing, rendering, canonical mark order and diacritization ratio."""

import pytest
from hypothesis import given, strategies as st

from arud.errors import (
    DoubleDiacritic,
    EmptyLine,
    EmptyWord,
    ForeignCharacter,
    LeadingDiacritic,
)
from arud import script
from arud.script import (
    ARABIC_LETTERS,
    FATHA,
    SHADDA,
    SILENCE,
    SUKUN,
    TANWIN_FATH,
    Grapheme,
    ScriptLine,
    fix_diacritic_order,
    parse_line,
    render_grapheme,
    render_line,
    shared_grapheme,
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
        verse_final=st.booleans(),
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
        assert parse_line(render_line(line), line.verse_final) == line


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
        direct_error = _raised(lambda: Grapheme(*args))
        assert _raised(lambda: shared_grapheme(*args)) == direct_error
        if direct_error is None:
            shared = shared_grapheme(*args)
            fresh = Grapheme(*args)
            assert shared == fresh
            assert hash(shared) == hash(fresh)
            assert repr(shared) == repr(fresh)
            assert render_grapheme(shared) == render_grapheme(fresh)
            assert shared_grapheme(*args) is shared

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
            assert _raised(lambda: shared_grapheme(*args)) == direct

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
        script._parse_word.cache_clear()
        letters = sorted(ARABIC_LETTERS - {"ٱ"})
        n = script.WORD_MEMO_SIZE + 50
        words = [letters[i % len(letters)] + FATHA
                 + letters[i // len(letters) % len(letters)] + SUKUN
                 + letters[i // len(letters) ** 2] for i in range(n)]
        assert len(set(words)) == n
        for word in words:
            parse_line(word)
        assert script._parse_word.cache_info().currsize \
            == script.WORD_MEMO_SIZE


class TestFixDiacriticOrder:
    def test_shadda_moved_before_vowel(self):
        assert fix_diacritic_order("م" + FATHA + SHADDA) == \
            "م" + SHADDA + FATHA

    def test_tanwin_after_alif_moved_before_it(self):
        # alif carrying the tanwin: mark belongs on the preceding letter
        raw = "با" + TANWIN_FATH
        assert fix_diacritic_order(raw) == "ب" + TANWIN_FATH + "ا"

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
