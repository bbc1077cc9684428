"""Grapheme-to-beat rules: each stage's examples plus scan properties."""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_least
from arud import corpus, scansion
from arud.errors import (
    DanglingWasl,
    ScriptError,
    ShaddaWithoutVowel,
    UnderDiacritized,
)
from arud.scansion import (
    apply_isba,
    apply_special_words,
    beat_segments,
    expand_gemination,
    expand_madda,
    expand_tanwin,
    process_hamzat_wasl,
    remove_silent_graphemes,
    scan,
    scan_readings,
    scan_text,
)
from arud.script import (
    ARABIC_LETTERS,
    MARKS,
    Grapheme,
    ScriptLine,
    parse_line,
    render_line,
)
from arud.tables import WordTable, default_tables


def rendered(line):
    return render_line(line)


class TestSpecialWords:
    def test_hadhihi(self):
        out = apply_special_words(parse_line("هَذِهِ"),
                                  default_tables().special)
        assert rendered(out) == "هَاذِهِ"

    def test_hadha(self):
        out = apply_special_words(parse_line("هَذَا"),
                                  default_tables().special)
        assert rendered(out) == "هَاذَا"

    def test_no_entry_unchanged(self):
        out = apply_special_words(parse_line("مَا"), default_tables().special)
        assert rendered(out) == "مَا"

    def test_conflicting_marks_block(self):
        # damma on the first letter contradicts every table candidate
        out = apply_special_words(parse_line("هُذَا"),
                                  default_tables().special)
        assert rendered(out) == "هُذَا"

    @pytest.mark.parametrize("text", ["هّذا", "ه۠ذا"])
    def test_a_mark_the_candidate_lacks_blocks(self, text):
        # No candidate of هذا geminates or silences its first letter.
        out = apply_special_words(parse_line(text), default_tables().special)
        assert rendered(out) == text

    def test_a_candidate_without_the_letters_blocks(self):
        table = WordTable.from_rows([("هذا", parse_line("مَا").words[0])])
        assert rendered(apply_special_words(parse_line("هَذَا"), table)) \
            == "هَذَا"


class TestMadda:
    def test_amana(self):
        assert rendered(expand_madda(parse_line("آمَنَ"))) == "أَامَنَ"

    def test_no_madda_unchanged(self):
        assert rendered(expand_madda(parse_line("مَا"))) == "مَا"

    def test_double_madda(self):
        out = expand_madda(parse_line("آآ"))
        bases = [g.base for g in out.graphemes()]
        assert bases == ["أ", "ا", "أ", "ا"]


class TestHamzatWasl:
    def test_case1_case2_sun_article(self):
        out = process_hamzat_wasl(parse_line("ٱلشَّمْسُ"), True)
        assert rendered(out) == rendered(parse_line("أَشَّمْسُ"))

    def test_case2_requires_sentence_start(self):
        with pytest.raises(DanglingWasl):
            process_hamzat_wasl(parse_line("ٱلشَّمْسُ"), False)

    def test_case3_after_vowel(self):
        out = process_hamzat_wasl(parse_line("وَٱنْطَلَقَ"), True)
        assert rendered(out) == "وَنْطَلَقَ"

    def test_case4_long_vowel_dropped(self):
        out = process_hamzat_wasl(parse_line("فِي ٱلْبَيْتِ"), True)
        assert rendered(out) == "فِ لْبَيْتِ"

    def test_case5_juncture_vowel(self):
        out = process_hamzat_wasl(parse_line("مِنْ ٱبْنِ"), True)
        assert rendered(out) == "مِنَ بْنِ"

    def test_case5_default_kasra(self):
        out = process_hamzat_wasl(parse_line("قَدْ ٱنْطَلَقَ"), True)
        assert rendered(out) == "قَدِ نْطَلَقَ"

    def test_moon_article_keeps_lam(self):
        out = process_hamzat_wasl(parse_line("وَٱلْقَمَرُ"), True)
        assert rendered(out) == "وَلْقَمَرُ"

    def test_two_in_one_word_after_long_vowel(self):
        out = process_hamzat_wasl(parse_line("يَاٱبْنَٱبْنِ مَالِكٍ"), True)
        assert rendered(out) == "يَبْنَبْنِ مَالِكٍ"

    def test_adjacent_alifs_after_long_vowel(self):
        out = process_hamzat_wasl(parse_line("يَاٱٱبْنِ"), True)
        assert rendered(out) == "يَبْنِ"

    def test_word_of_only_the_alif_vanishes(self):
        out = process_hamzat_wasl(parse_line("مَا ٱ لَهُ"), True)
        assert rendered(out) == "مَ لَهُ"

    @given(st.lists(st.lists(st.tuples(
        st.sampled_from("بلماويشٱ"),
        st.sampled_from(["fatha", "damma", "kasra", "sukun", None,
                         "tanwin_damm"]),
        st.booleans()), min_size=1, max_size=4), min_size=1, max_size=4),
        st.booleans())
    @settings(max_examples=300)
    def test_matches_search_from_line_start(self, spec, sentence_initial):
        line = ScriptLine(tuple(
            tuple(Grapheme("ٱ", is_wasl=True) if base == "ٱ"
                  else Grapheme(base, vowel=vowel, shadda=shadda)
                  for base, vowel, shadda in word)
            for word in spec))
        juncture = default_tables().juncture
        want = _outcome(lambda: _wasl_by_restart(line, sentence_initial,
                                                 juncture))
        got = _outcome(lambda: process_hamzat_wasl(line, sentence_initial,
                                                   juncture))
        assert got == want


def _outcome(fn):
    try:
        return fn()
    except ScriptError as exc:
        return type(exc), str(exc)


def _wasl_by_restart(line, sentence_initial, juncture):
    """Reference resolution: search again from the line start after each."""
    words = [list(w) for w in line.words]
    for word in words:
        i = 0
        while i + 2 < len(word):
            if word[i].is_wasl \
                    and word[i + 1].base == "ل" and word[i + 1].unvocalized \
                    and not word[i + 1].shadda \
                    and word[i + 2].base in scansion.SUN_LETTERS \
                    and word[i + 2].shadda:
                del word[i + 1]
            i += 1
    while True:
        pos = next(((wi, gi) for wi, word in enumerate(words)
                    for gi, g in enumerate(word) if g.is_wasl), None)
        if pos is None:
            break
        wi, gi = pos
        prev = scansion._prev_position(words, wi, gi)
        if prev is None:
            if not sentence_initial:
                raise DanglingWasl("line-initial connective alif "
                                   "outside a sentence start")
            words[wi][gi] = Grapheme("أ", vowel="fatha")
            continue
        pw, pg = prev
        pgraph = words[pw][pg]
        if pgraph.vocalized or pgraph.vowel in scansion.TANWINS:
            del words[wi][gi]
        elif scansion._is_extension(words, pw, pg):
            del words[wi][gi]
            del words[pw][pg]
        elif pgraph.unvocalized:
            del words[wi][gi]
            words[pw][pg] = pgraph.with_vowel(
                juncture.vowel_for(tuple(words[pw])))
        else:
            raise DanglingWasl("connective alif with no resolvable context")
    return ScriptLine(tuple(tuple(w) for w in words if w))


def _isba_word_by_word(line, verse_final, optional_plural_m=False):
    """Reference isba: every word tested on each condition in turn."""
    words = line.words
    out = None
    for wi in range(len(words) - 1):
        word = words[wi]
        if len(word) < 2:
            continue
        nxt = words[wi + 1][0] if words[wi + 1] else None
        if nxt is None or not nxt.vocalized:
            continue
        g = word[-1]
        if not word[-2].vocalized:
            continue
        new = None
        if g.base == "ه" and g.vowel in ("damma", "kasra"):
            new = word + (Grapheme(scansion.EXTENSION_FOR_VOWEL[g.vowel]),)
        elif g.base == "م" and word[-2].base in scansion.PLURAL_M_HOSTS:
            if g.vowel in scansion.SHORT_VOWELS:
                new = word + (
                    Grapheme(scansion.EXTENSION_FOR_VOWEL[g.vowel]),)
            elif optional_plural_m and g.unvocalized:
                new = word[:-1] + (g.with_vowel("damma"), Grapheme("و"))
        if new is not None:
            if out is None:
                out = list(words)
            out[wi] = new
    if verse_final and words and words[-1]:
        last = words[-1][-1]
        if last.vowel in scansion.SHORT_VOWELS:
            if out is None:
                out = list(words)
            out[-1] = words[-1] + (
                Grapheme(scansion.EXTENSION_FOR_VOWEL[last.vowel]),)
    return scansion._with_words(line, out)


# Words whose last letter is mostly ha or mim after a possible host
# letter, with every vowel state, and some empty words.
ISBA_GRAPHEMES = st.builds(
    Grapheme, st.sampled_from("بلمهكتوي"),
    st.sampled_from(["fatha", "damma", "kasra", "sukun", None,
                     "tanwin_kasr"]))
ISBA_WORDS = st.one_of(
    st.tuples(st.lists(ISBA_GRAPHEMES, max_size=3).map(tuple),
              st.builds(Grapheme, st.sampled_from("هممهب"),
                        st.sampled_from(["fatha", "damma", "kasra",
                                         "sukun", None])))
    .map(lambda t: t[0] + (t[1],)),
    st.just(()))
ISBA_LINES = st.lists(ISBA_WORDS, min_size=1, max_size=5).map(
    lambda words: ScriptLine(tuple(words)))


class TestIsbaAgainstReference:
    @given(ISBA_LINES)
    @settings(max_examples=500)
    def test_same_line_under_every_setting(self, line):
        for verse_final, optional_plural_m in itertools.product(
                (False, True), repeat=2):
            want = _isba_word_by_word(line, verse_final, optional_plural_m)
            got = apply_isba(line, verse_final, optional_plural_m)
            assert got == want
            assert (got is line) == (want is line)


class TestGemination:
    def test_allama(self):
        assert rendered(expand_gemination(parse_line("عَلَّمَ"))) == "عَلْلَمَ"

    def test_mikarr(self):
        assert rendered(expand_gemination(parse_line("مِكَرٍّ"))) == "مِكَرْرٍ"

    def test_no_shadda_unchanged(self):
        assert rendered(expand_gemination(parse_line("مَا"))) == "مَا"

    def test_shadda_without_vowel(self):
        bare_geminated = "م" + "ّ"  # shadda with no vowel-class mark
        with pytest.raises(ShaddaWithoutVowel):
            expand_gemination(parse_line(bare_geminated))


class TestTanwin:
    def test_maan(self):
        assert rendered(expand_tanwin(parse_line("مَعًا"))) == "مَعَنْ"

    def test_amrun(self):
        assert rendered(expand_tanwin(parse_line("عَمْرٌ"))) == "عَمْرُنْ"

    def test_no_tanwin_unchanged(self):
        assert rendered(expand_tanwin(parse_line("مَا"))) == "مَا"


class TestSilentRemoval:
    def test_amr(self):
        out = remove_silent_graphemes(parse_line("عَمْرٌو۠"))
        assert rendered(out) == "عَمْرٌ"

    def test_plural_waw_alif(self):
        out = remove_silent_graphemes(parse_line("ذَهَبُوا۠"))
        assert rendered(out) == "ذَهَبُو"

    def test_no_silence_unchanged(self):
        assert rendered(remove_silent_graphemes(parse_line("مَا"))) == "مَا"


class TestIsba:
    def test_lahu_ma(self):
        out = apply_isba(parse_line("لَهُ مَا"), verse_final=False)
        assert rendered(out) == "لَهُو مَا"

    def test_lahumu_ma(self):
        out = apply_isba(parse_line("لَهُمُ مَا"), verse_final=False)
        assert rendered(out) == "لَهُمُو مَا"

    def test_condition_fails_after_sukun(self):
        out = apply_isba(parse_line("مِنْهُ مَا"), verse_final=False)
        assert rendered(out) == "مِنْهُ مَا"

    def test_verse_final_extension(self):
        out = apply_isba(parse_line("قَتَلَ"), verse_final=True)
        assert rendered(out) == "قَتَلَا"

    def test_optional_plural_m_off_by_default(self):
        out = apply_isba(parse_line("لَهُمْ مَا"), verse_final=False)
        assert rendered(out) == "لَهُمْ مَا"

    def test_optional_plural_m_branch(self):
        out = apply_isba(parse_line("لَهُمْ مَا"), verse_final=False,
                         optional_plural_m=True)
        assert rendered(out) == "لَهُمُو مَا"


class TestScan:
    @pytest.mark.parametrize("text,beats", [
        ("عَلَّمَ", "1011"),
        ("لَهُ مَا", "11010"),
        ("مَعًا", "110"),
        ("مِكَرٍّ", "11010"),
        ("عَمْرٌو۠", "1010"),
        ("مِكَرٍّ مِفَرٍّ مُقْبِلٍ مُدْبِرٍ مَعًا", "11010110101011010110110"),
    ])
    def test_known_patterns(self, text, beats):
        assert scan_text(text)[1] == beats

    def test_empty_input(self):
        line, beats = scan_text("")
        assert beats == "" and line.words == ()

    def test_beat_length_equals_grapheme_count(self):
        line, beats = scan_text("مِكَرٍّ مِفَرٍّ مُقْبِلٍ مُدْبِرٍ مَعًا")
        assert len(beats) == sum(1 for _ in line.graphemes())

    def test_four_mark_property(self):
        line, _ = scan_text("هَذَا أَبُو ٱلصَّقْرِ فَرْدًا", verse_final=True)
        for g in line.graphemes():
            assert g.vowel in ("fatha", "damma", "kasra", "sukun")
            assert not g.shadda and not g.silent and not g.is_wasl

    def test_gemination_adds_one_zero_per_shadda(self):
        _, plain = scan_text("عَلَمَ")
        _, geminated = scan_text("عَلَّمَ")
        assert len(geminated) == len(plain) + 1

    def test_validation_rejects_leftover_wasl(self):
        line = ScriptLine(((Grapheme("م", vowel="fatha"),
                            Grapheme("ٱ", is_wasl=True)),))
        with pytest.raises(UnderDiacritized):
            scansion.validate_scansion(line)

    def test_word_boundaries_contribute_no_beat(self):
        line, beats = scan_text("مَا مَا")
        assert beats == "".join(beat_segments(line))

    def test_empty_words_are_dropped(self):
        # Idle rules keep their input, so scan itself drops empty words.
        words = parse_line("لَهُ مَا").words
        padded = ScriptLine(((),) + words[:1] + ((),) + words[1:] + ((),))
        line, beats = scan(padded)
        assert (line, beats) == scan(ScriptLine(words))
        assert len(line.words) == 2
        assert beat_segments(line) == ["110", "10"]

    def test_only_empty_words(self):
        line, beats = scan(ScriptLine(((), ())), verse_final=True)
        assert line == ScriptLine(()) and beats == ""


class TestIdleRuleReturnsItsInput:
    @pytest.mark.parametrize("rule,text", [
        (lambda line: apply_special_words(line, default_tables().special),
         "مَا لَهُ"),
        (remove_silent_graphemes, "عَمْرٌو"),
        (expand_madda, "أَمَلٌ"),
        (lambda line: process_hamzat_wasl(line, False), "مَا لَهُ"),
        (expand_gemination, "عَلَمَ"),
        (expand_tanwin, "قَتَلَ"),
        (lambda line: apply_isba(line, verse_final=False), "قَتَلَ مِنْهُ"),
        (scansion.assign_default_sukun, "مَاْ لَهُ"),
        (scansion.validate_scansion, "مَاْ لَهُ"),
    ])
    def test_same_object(self, rule, text):
        line = parse_line(text)
        assert rule(line) is line


SAFE = "بتجحدرسعفقكلمنهو"
VOWELED = st.text(alphabet=SAFE, min_size=1, max_size=4).map(
    lambda s: "".join(ch + "َ" for ch in s))


@st.composite
def safe_lines(draw):
    n = draw(st.integers(1, 4))
    return " ".join(draw(VOWELED) for _ in range(n))


class TestScanProperties:
    @given(safe_lines())
    def test_first_beat_vocalized(self, text):
        _, beats = scan_text(text)
        assert beats.startswith("1")

    @given(safe_lines())
    @settings(max_examples=50)
    def test_determinism(self, text):
        assert scan_text(text) == scan_text(text)

    @given(safe_lines(), safe_lines())
    @settings(max_examples=100)
    def test_locality_split(self, a, b):
        # concatenation splits cleanly when no juncture rule can fire:
        # fully fatha-vocalized words have no wasl and a is scanned
        # non-verse-final; exclude the one isba-eligible ending (a
        # plural-m host pair) that couples a's last word to b
        from hypothesis import assume
        last = a.split()[-1][::2]  # base letters of a's final word
        assume(not (len(last) >= 2 and last[-1] == "م" and last[-2] in "هكت"))
        _, beats_a = scan_text(a)
        _, beats_b = scan_text(b, sentence_initial=False)
        _, joined = scan_text(f"{a} {b}")
        assert joined == beats_a + beats_b


DATA = Path(__file__).parent / "data"
READING_WORDS = sorted(
    {word
     for row in (DATA / "golden_scansion.tsv").read_text(
         encoding="utf-8").splitlines() if not row.startswith("#")
     for word in row.split("\t")[0].split()}
    | set((DATA / "behaviour_snapshot" / "lexicon.txt").read_text(
        encoding="utf-8").split())
    | {"لَهُمْ", "عَلَيْكُمْ", "بِهِمْ", "أَنْتُمْ", "مِنْكُمْ", "عَلَيْهِمْ",
       "لَكُمُ", "بِهِمُ"})


def reference_reading(line, sentence_initial, verse_final, optional_plural_m):
    """One full pass of the public rules in `scan`'s order with the
    license set as given: (line after isba, outcome), where the outcome
    is (transcription, beats) or the exception type; errors of the rules
    before isba raise."""
    tables = default_tables()
    out = apply_special_words(line, tables.special)
    out = remove_silent_graphemes(out)
    out = expand_madda(out)
    out = process_hamzat_wasl(out, sentence_initial, tables.juncture)
    out = expand_gemination(out)
    out = expand_tanwin(out)
    out = apply_isba(out, verse_final, optional_plural_m)
    after_isba = out
    try:
        out = scansion.assign_default_sukun(out)
        out = scansion.validate_scansion(out)
    except ScriptError as exc:
        return after_isba, type(exc)
    return after_isba, (out, "".join(beat_segments(out)))


def outcome(reading):
    return type(reading) if isinstance(reading, ScriptError) else reading


class TestScanReadings:
    @given(st.lists(st.sampled_from(READING_WORDS), min_size=1, max_size=5),
           st.booleans(), st.booleans())
    @settings(max_examples=400)
    def test_equals_two_separate_scans(self, words, verse_final,
                                       sentence_initial):
        line = parse_line(" ".join(words))
        position = dict(sentence_initial=sentence_initial,
                        verse_final=verse_final)
        try:
            plain_isba, plain = reference_reading(line, sentence_initial,
                                                  verse_final, False)
            licensed_isba, licensed = reference_reading(
                line, sentence_initial, verse_final, True)
        except ScriptError as exc:
            with pytest.raises(type(exc)):
                scan_readings(line, **position)
            return
        readings = scan_readings(line, **position)
        expected = [plain]
        if licensed_isba.words != plain_isba.words:
            expected.append(licensed)
        else:
            # the reading left out is the plain one again
            assert licensed == plain
        assert [outcome(r) for r in readings] == expected
        if not isinstance(readings[0], ScriptError):
            assert readings[0] == scan(line, **position)

    def test_license_adds_a_reading(self):
        line = parse_line("لَهُمْ مَا")
        assert [beats for _, beats in scan_readings(line)] == ["11010",
                                                               "111010"]

    def test_no_license_one_reading(self):
        line = parse_line("لَهُ مَا")
        assert scan_readings(line) == [scan(line)]

    def test_shared_error_raised(self):
        with pytest.raises(ShaddaWithoutVowel):
            scan_readings(parse_line("بَمّ مَا"))


def _parses(text):
    try:
        parse_line(text)
    except ScriptError:
        return False
    return True


# One letter with 0-2 marks in any order, kept when it parses.
RANDOM_GRAPHEMES = st.tuples(
    st.sampled_from(sorted(ARABIC_LETTERS)),
    st.lists(st.sampled_from(sorted(MARKS)), max_size=2),
).map(lambda t: t[0] + "".join(t[1])).filter(_parses)
RANDOM_LINES = st.lists(
    st.one_of(st.lists(RANDOM_GRAPHEMES, min_size=1, max_size=6).map("".join),
              st.sampled_from(READING_WORDS)),
    min_size=1, max_size=5).map(" ".join)


class TestValidationAcceptsTheRules:
    """`validate_scansion` never rejects what the rules before it return,
    so a scan fails only where one of those rules raises."""

    @given(RANDOM_LINES)
    @settings(max_examples=500, deadline=None)
    def test_any_parseable_line(self, text):
        tables = default_tables()
        parsed = parse_line(text)
        for verse_final, sentence_initial, optional_plural_m \
                in itertools.product((False, True), repeat=3):
            out = parsed
            try:
                out = apply_special_words(out, tables.special)
                out = remove_silent_graphemes(out)
                out = expand_madda(out)
                out = process_hamzat_wasl(out, sentence_initial,
                                          tables.juncture)
                out = expand_gemination(out)
                out = expand_tanwin(out)
                out = apply_isba(out, verse_final, optional_plural_m)
                out = scansion.assign_default_sukun(out)
            except ScriptError:
                continue
            assert scansion.validate_scansion(out) is out


class TestLead:
    def test_a_word_whose_steps_raise_is_its_own_key(self):
        # A shadda without a vowel: the steps before isba refuse the word.
        line = parse_line("بّ")
        with pytest.raises(ShaddaWithoutVowel):
            scan(line)
        assert scansion.lead(line.words[0]) is line.words[0]


# The word rules as they were before they became per-grapheme decisions:
# each scans for a grapheme to change, then copies and rewrites the word.
def _parent_drop_silent(word):
    for g in word:
        if g.silent:
            return [g for g in word if not g.silent]
    return None


def _parent_split_madda(word):
    for g in word:
        if g.base == "آ":
            break
    else:
        return None
    out = []
    for g in word:
        if g.base == "آ":
            out.append(Grapheme("أ", vowel="fatha"))
            out.append(Grapheme("ا"))
        else:
            out.append(g)
    return out


def _parent_split_shadda(word):
    for g in word:
        if g.shadda:
            break
    else:
        return None
    out = []
    for g in word:
        if g.shadda:
            if g.vowel is None or g.vowel == "sukun":
                raise ShaddaWithoutVowel(
                    f"geminated {g.base!r} has no vowel mark")
            out.append(Grapheme(g.base, vowel="sukun"))
            out.append(Grapheme(g.base, vowel=g.vowel))
        else:
            out.append(g)
    return out


def _parent_split_tanwin(word):
    for g in word:
        if g.vowel in scansion.TANWINS:
            break
    else:
        return None
    out = []
    skip = False
    for i, g in enumerate(word):
        if skip:
            skip = False
            continue
        if g.vowel in scansion.TANWINS:
            tanwin = g.vowel
            out.append(g.with_vowel(scansion.TANWIN_TO_SHORT[tanwin]))
            out.append(Grapheme("ن", vowel="sukun"))
            if tanwin == "tanwin_fath" and i + 1 < len(word):
                nxt = word[i + 1]
                if (nxt.base in ("ا", "ى") and nxt.unvocalized
                        and not nxt.shadda):
                    skip = True
        else:
            out.append(g)
    return out


def _parent_sukun_for_bare(word):
    out = None
    for i, g in enumerate(word):
        if g.bare:
            if out is None:
                out = list(word)
            out[i] = g.with_vowel("sukun")
    return out


def _parent_guess_wasl(word):
    out = None
    for gi in range(len(word) - 1):
        g = word[gi]
        if g.base != "ا" or not g.bare:
            continue
        if gi > 0 and not word[gi - 1].vocalized:
            continue
        nxt = word[gi + 1]
        connective = (nxt.vowel == "sukun" and not nxt.shadda) or nxt.shadda
        if not connective and nxt.base == "ل" and gi + 2 < len(word):
            connective = word[gi + 2].shadda
        if connective:
            if out is None:
                out = list(word)
            out[gi] = Grapheme("ٱ", is_wasl=True)
    return out


WORD_RULES = [
    (scansion._drop_silent, _parent_drop_silent),
    (scansion._split_madda, _parent_split_madda),
    (scansion._split_shadda, _parent_split_shadda),
    (scansion._split_tanwin, _parent_split_tanwin),
    (scansion._sukun_for_bare, _parent_sukun_for_bare),
    (corpus._guess_wasl, _parent_guess_wasl),
]

ALL_VOWELS = [None, "fatha", "damma", "kasra", "sukun", *scansion.TANWINS]
WASL = Grapheme("ٱ", is_wasl=True)
# Pieces of a word: one letter with any marks, a silent letter, a madda,
# a connective alif, a tanwin before an alif or alif maksura that may be
# vocalized or geminated, and a bare or connective alif before a lam and
# a (sun) letter.
WORD_PIECES = st.one_of(
    st.builds(Grapheme, st.sampled_from("ابلشوىآ"),
              st.sampled_from(ALL_VOWELS), st.booleans()).map(lambda g: (g,)),
    st.builds(Grapheme, st.sampled_from("اوب"),
              silent=st.just(True)).map(lambda g: (g,)),
    st.just((Grapheme("آ"),)),
    st.just((WASL,)),
    st.tuples(st.builds(Grapheme, st.sampled_from("بت"),
                        st.sampled_from(scansion.TANWINS)),
              st.builds(Grapheme, st.sampled_from("اى"),
                        st.sampled_from([None, "sukun", "fatha"]),
                        st.booleans())),
    st.tuples(st.sampled_from([Grapheme("ا"), WASL]),
              st.builds(Grapheme, st.just("ل"),
                        st.sampled_from([None, "sukun", "fatha"])),
              st.builds(Grapheme, st.sampled_from("شسبق"),
                        st.sampled_from([None, "fatha"]), st.booleans())),
)
RULE_WORDS = st.lists(WORD_PIECES, max_size=4).map(
    lambda pieces: tuple(itertools.chain.from_iterable(pieces)))


def _rewritten(rule, word):
    """`rule`'s new word as a tuple, None when it keeps `word`, or its
    error's type and message."""
    def run():
        new = rule(word)
        return None if new is None else tuple(new)
    return _outcome(run)


class TestPerGraphemeDecisions:
    """Each word rule written as a per-grapheme decision gives, through
    ``scansion._per_grapheme``, what its own scan-then-copy loop gave:
    the same word, the same error, or None for a word it leaves alone."""

    @given(RULE_WORDS)
    @settings(max_examples=at_least(500), deadline=None)
    def test_same_word_or_error_as_the_parent_loop(self, word):
        for rule, parent in WORD_RULES:
            assert _rewritten(rule, word) == _rewritten(parent, word), \
                parent.__name__
