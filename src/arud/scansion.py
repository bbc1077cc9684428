"""Grapheme-to-beat transformation (prosodic transcription + scansion).

Rewrites a fully diacritized line into a transcription where every
grapheme carries exactly one of the four marks fatha/damma/kasra/sukun,
then maps short-vowel letters to '1' and sukun letters to '0'.

Rule order: special words -> silent removal -> madda expansion ->
connective-alif (hamzat al-wasl) resolution -> gemination expansion ->
nunation expansion -> long-vowel restoration (isba) -> default sukun ->
validation.
The connective alif must see the sun letter's shadda before gemination
is expanded, and isba needs the final vocalization state, which pins
this order.

Each rule maps a ScriptLine to a ScriptLine and returns its input object
itself when it does not fire, so a line no rule touches is never copied.
Graphemes come from ``script.shared_grapheme``: one instance per distinct
value, shared by every line in the process, so they must never be mutated.
"""

from __future__ import annotations

import logging

from .errors import DanglingWasl, ShaddaWithoutVowel, UnderDiacritized
from .script import (
    ALIF,
    ALIF_MAKSURA,
    HA,
    HAMZA_ALIF,
    LAM,
    MADDA_ALIF,
    MIM,
    NUN,
    SHORT_VOWELS,
    SUN_LETTERS,
    TANWINS,
    WAW,
    YA,
    ScriptLine,
    Word,
    parse_line,
    shared_grapheme,
)
from .tables import TableSet, WordTable, default_tables, fold_base

log = logging.getLogger(__name__)

# A beat pattern is a plain string over {'0', '1'}.
BeatPattern = str

# Scansion output has the same structural shape as a ScriptLine.
ScansionLine = ScriptLine

# Long-vowel letter that extends each short vowel.
EXTENSION_FOR_VOWEL = {"fatha": ALIF, "damma": WAW, "kasra": YA}
VOWEL_FOR_EXTENSION = {ALIF: "fatha", ALIF_MAKSURA: "fatha",
                       WAW: "damma", YA: "kasra"}
TANWIN_TO_SHORT = {"tanwin_fath": "fatha", "tanwin_damm": "damma",
                   "tanwin_kasr": "kasra"}

# Letters that can host the pronoun/plural suffixes eligible for isba.
PLURAL_M_HOSTS = (HA, "ك", "ت")


def _rewrite_words(line: ScriptLine, rewrite) -> ScriptLine:
    """Apply a per-word rewrite, copying the line only if a word changed.

    `rewrite` returns None for a word it leaves alone, else the new
    graphemes.  Words left empty are dropped.
    """
    out = None
    for wi, word in enumerate(line.words):
        new = rewrite(word)
        if new is not None:
            if out is None:
                out = list(line.words)
            out[wi] = tuple(new)
    return _with_words(line, out)


def _with_words(line: ScriptLine, words) -> ScriptLine:
    """`line` if `words` is None, else a line of the non-empty words."""
    if words is None:
        return line
    return ScriptLine(words=tuple(filter(None, words)),
                      verse_final=line.verse_final)


def compatible_replacement(word: Word, repl: Word) -> bool:
    """True when `word`'s marks do not contradict the replacement.

    The source bases must appear as a subsequence of the replacement
    bases (the replacement may insert long-vowel letters); every mark
    present on the source must agree with the aligned replacement
    grapheme.
    """
    j = 0
    for g in word:
        base = fold_base(g.base)
        while j < len(repl) and fold_base(repl[j].base) != base:
            j += 1
        if j >= len(repl):
            return False
        r = repl[j]
        if g.vowel is not None and g.vowel != r.vowel:
            return False
        if g.shadda and not r.shadda:
            return False
        if g.silent and not r.silent:
            return False
        j += 1
    return True


def apply_special_words(line: ScriptLine, table: WordTable) -> ScriptLine:
    """Replace each word by its first compatible table candidate, such
    as a special word's spelling with the long vowel it omits."""
    def replacement(word):
        for cand in table.candidates(word):
            if compatible_replacement(word, cand):
                return cand
        return None
    return _rewrite_words(line, replacement)


def _drop_silent(word):
    for g in word:
        if g.silent:
            return [g for g in word if not g.silent]
    return None


def remove_silent_graphemes(line: ScriptLine) -> ScriptLine:
    return _rewrite_words(line, _drop_silent)


def _split_madda(word):
    for g in word:
        if g.base == MADDA_ALIF:
            break
    else:
        return None
    out = []
    for g in word:
        if g.base == MADDA_ALIF:
            out.append(shared_grapheme(HAMZA_ALIF, vowel="fatha"))
            out.append(shared_grapheme(ALIF))
        else:
            out.append(g)
    return out


def expand_madda(line: ScriptLine) -> ScriptLine:
    """Split the madda letter into hamza+fatha followed by a bare alif."""
    return _rewrite_words(line, _split_madda)


def _prev_position(words, wi, gi):
    if gi > 0:
        return wi, gi - 1
    for pw in range(wi - 1, -1, -1):
        if words[pw]:
            return pw, len(words[pw]) - 1
    return None


def _is_extension(words, wi, gi) -> bool:
    g = words[wi][gi]
    if g.base not in VOWEL_FOR_EXTENSION or not g.unvocalized:
        return False
    prev = _prev_position(words, wi, gi)
    if prev is None:
        return False
    return words[prev[0]][prev[1]].vowel == VOWEL_FOR_EXTENSION[g.base]


def process_hamzat_wasl(
    line: ScriptLine,
    sentence_initial: bool,
    juncture=None,
) -> ScriptLine:
    """Resolve every connective alif per its phonetic context."""
    if juncture is None:
        juncture = default_tables().juncture
    for word in line.words:
        for g in word:
            if g.is_wasl:
                break
        else:
            continue
        break
    else:
        return line  # no connective alif to resolve
    words = [list(word) for word in line.words]

    # Case 1: definite article before a geminated sun letter loses its lam.
    for word in words:
        i = 0
        while i + 2 < len(word):
            if word[i].is_wasl \
                    and word[i + 1].base == LAM and word[i + 1].unvocalized \
                    and not word[i + 1].shadda \
                    and word[i + 2].base in SUN_LETTERS and word[i + 2].shadda:
                del word[i + 1]
            i += 1

    # Positional cases, in one left-to-right pass.  Resolving an alif
    # changes only it and the letters before it, so every alif still
    # sees the context a fresh search from the line start would give it.
    for wi, word in enumerate(words):
        gi = 0
        while gi < len(word):
            if not word[gi].is_wasl:
                gi += 1
                continue
            prev = _prev_position(words, wi, gi)
            if prev is None:
                if not sentence_initial:
                    raise DanglingWasl("line-initial connective alif "
                                       "outside a sentence start")
                # Case 2: sentence-initial, pronounced as a glottal stop /'a/
                word[gi] = shared_grapheme(HAMZA_ALIF, vowel="fatha")
                gi += 1
                continue
            pw, pg = prev
            pgraph = words[pw][pg]
            if pgraph.vocalized or pgraph.vowel in TANWINS:
                # Case 3: silent after a vowel
                del word[gi]
            elif _is_extension(words, pw, pg):
                # Case 4: a long vowel and the connective alif both drop
                del word[gi]
                del words[pw][pg]
                if pw == wi:
                    gi -= 1
            elif pgraph.unvocalized:
                # Case 5: the preceding unvocalized letter takes the
                # juncture vowel and the connective alif drops
                del word[gi]
                words[pw][pg] = pgraph.with_vowel(juncture.vowel_for(
                    tuple(words[pw])))
            else:
                raise DanglingWasl(
                    "connective alif with no resolvable context")
    return _with_words(line, map(tuple, words))


def _split_shadda(word):
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
            out.append(shared_grapheme(g.base, vowel="sukun"))
            out.append(shared_grapheme(g.base, vowel=g.vowel))
        else:
            out.append(g)
    return out


def expand_gemination(line: ScriptLine) -> ScriptLine:
    """Split geminated letters into sukun copy + vocalized copy."""
    return _rewrite_words(line, _split_shadda)


def _split_tanwin(word):
    for g in word:
        if g.vowel in TANWINS:
            break
    else:
        return None
    out = []
    skip = False
    for i, g in enumerate(word):
        if skip:
            skip = False
            continue
        if g.vowel in TANWINS:
            tanwin = g.vowel
            out.append(g.with_vowel(TANWIN_TO_SHORT[tanwin]))
            out.append(shared_grapheme(NUN, vowel="sukun"))
            if tanwin == "tanwin_fath" and i + 1 < len(word):
                nxt = word[i + 1]
                if (nxt.base in (ALIF, ALIF_MAKSURA) and nxt.unvocalized
                        and not nxt.shadda):
                    skip = True  # drop the orthographic alif
        else:
            out.append(g)
    return out


def expand_tanwin(line: ScriptLine) -> ScriptLine:
    """Replace nunation with its short vowel plus a sukun-bearing nun."""
    return _rewrite_words(line, _split_tanwin)


def apply_isba(
    line: ScriptLine,
    verse_final: bool,
    optional_plural_m: bool = False,
) -> ScriptLine:
    """Restore long vowels after pronoun clitics, plural-m and verse ends."""
    # Each decision reads the word's own ending and the next word's first
    # letter, which no earlier decision changes, so the input line is read
    # and only the changed words are rebuilt.
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
        if g.base == HA and g.vowel in ("damma", "kasra"):
            # pronoun clitic hu/hi between two vocalized letters
            new = word + (shared_grapheme(EXTENSION_FOR_VOWEL[g.vowel]),)
        elif g.base == MIM and word[-2].base in PLURAL_M_HOSTS:
            if g.vowel in SHORT_VOWELS:
                new = word + (shared_grapheme(EXTENSION_FOR_VOWEL[g.vowel]),)
            elif optional_plural_m and g.unvocalized:
                # poetic license: vocalize a bare plural-m when the
                # rhythm requires it
                new = word[:-1] + (g.with_vowel("damma"),
                                   shared_grapheme(WAW))
        if new is not None:
            if out is None:
                out = list(words)
            out[wi] = new
    if verse_final and words and words[-1]:
        last = words[-1][-1]
        if last.vowel in SHORT_VOWELS:
            if out is None:
                out = list(words)
            out[-1] = words[-1] + (
                shared_grapheme(EXTENSION_FOR_VOWEL[last.vowel]),)
    return _with_words(line, out)


def _sukun_for_bare(word):
    out = None
    for i, g in enumerate(word):
        if g.vowel is None and not g.silent and not g.is_wasl \
                and not g.shadda:
            if out is None:
                out = list(word)
            out[i] = g.with_vowel("sukun")
    return out


def assign_default_sukun(line: ScriptLine) -> ScriptLine:
    """Give sukun to every remaining bare letter.

    Geminated letters without a vowel are left alone so that validation
    flags the line as under-diacritized.
    """
    return _rewrite_words(line, _sukun_for_bare)


def validate_scansion(line: ScriptLine) -> ScansionLine:
    """Assert the one-of-four-marks property on every grapheme."""
    for word in line.words:
        for g in word:
            if g.shadda or g.silent or g.is_wasl:
                raise UnderDiacritized(
                    f"unresolved mark on {g.base!r} after transformation")
            if g.vowel not in ("fatha", "damma", "kasra", "sukun"):
                raise UnderDiacritized(
                    f"grapheme {g.base!r} lacks one of the four marks")
    return line


def beat_segments(scansion: ScansionLine) -> list[BeatPattern]:
    """Per-word beat contributions of a validated transcription."""
    return [
        "".join(["1" if g.vowel in SHORT_VOWELS else "0" for g in word])
        for word in scansion.words
    ]


def _drop_empty_words(line: ScriptLine) -> ScriptLine:
    if all(line.words):
        return line
    # Rules that do not fire keep empty words, so drop them here once.
    return ScriptLine(words=tuple(filter(None, line.words)),
                      verse_final=line.verse_final)


def _before_isba(line: ScriptLine, tables: TableSet | None,
                 sentence_initial: bool) -> ScriptLine:
    """The six rules that precede isba, in their fixed order."""
    if tables is None:
        tables = default_tables()
    out = apply_special_words(line, tables.special)
    out = remove_silent_graphemes(out)
    out = expand_madda(out)
    out = process_hamzat_wasl(out, sentence_initial, tables.juncture)
    out = expand_gemination(out)
    return expand_tanwin(out)


def _after_isba(out: ScriptLine) -> tuple[ScansionLine, BeatPattern]:
    """Default sukun, validation and beats of a line isba has seen."""
    out = assign_default_sukun(out)
    out = validate_scansion(out)
    beats = "".join(beat_segments(out))
    if "00" in beats[:-2]:
        # classical transcription forbids two mid-line sakins; surfaced
        # as a diagnostic only
        log.debug("double sakin inside line: %s", beats)
    return out, beats


def scan(
    line: ScriptLine,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
) -> tuple[ScansionLine, BeatPattern]:
    """Full grapheme-to-beat transformation of one line.

    Word boundaries contribute no beat; the returned pattern is the
    concatenation of the per-word contributions.
    """
    line = _drop_empty_words(line)
    if not line.words:
        return line, ""
    out = _before_isba(line, tables, sentence_initial)
    return _after_isba(apply_isba(out, line.verse_final))


def scan_readings(
    line: ScriptLine,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
) -> list:
    """`scan` of `line` without, then with, the optional plural-m license.

    The rules before isba run once for both readings.  The licensed
    reading is listed only when the license changes the line's words.
    Each entry is a reading's ``(transcription, beats)`` or the
    UnderDiacritized error that validating it raised; an error of the
    shared rules is raised, since every reading would raise it.
    """
    line = _drop_empty_words(line)
    if not line.words:
        return [(line, "")]
    out = _before_isba(line, tables, sentence_initial)
    plain = apply_isba(out, line.verse_final)
    licensed = apply_isba(out, line.verse_final, optional_plural_m=True)
    readings = [plain]
    if licensed.words != plain.words:
        readings.append(licensed)
    outcomes = []
    for reading in readings:
        try:
            outcomes.append(_after_isba(reading))
        except UnderDiacritized as exc:
            outcomes.append(exc)
    return outcomes


def scan_text(
    raw: str,
    verse_final: bool = False,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
) -> tuple[ScansionLine, BeatPattern]:
    """Parse then scan; blank input yields an empty pattern."""
    if not raw.strip():
        return ScriptLine(words=(), verse_final=verse_final), ""
    line = parse_line(raw, verse_final=verse_final)
    return scan(line, tables, sentence_initial)
