"""Grapheme-to-beat transformation (prosodic transcription + scansion).

Rewrites a fully diacritized line into a transcription where every
grapheme carries exactly one of the four marks fatha/damma/kasra/sukun,
then maps short-vowel letters to '1' and sukun letters to '0'.

Rule order, in five steps:

1. word scope: special words -> silent removal -> madda expansion;
2. boundary scope: connective-alif (hamzat al-wasl) resolution, which
   reads and changes the word before the alif;
3. word scope: gemination expansion -> nunation expansion;
4. boundary scope: long-vowel restoration (isba), which reads the next
   word's first letter;
5. word scope: default sukun -> validation -> beat segments.

The connective alif must see the sun letter's shadda before gemination
is expanded, and isba needs the final vocalization state, which pins
this order.

Each rule maps a ScriptLine to a ScriptLine and returns its input object
itself when it does not fire, so a line no rule touches is never copied.
Graphemes are interned (see ``script.Grapheme``): one instance per
distinct value, shared by every line in the process.

Verse repeats its words, so `scan` and `scan_readings` run the word-scope
groups once per distinct word.  A bounded memo maps each input word to
its record: the word after step 1 and, where no connective alif waits
in it, after steps 3 and 5 with its beat segment.  The boundary rules
run on every line; a word they change takes its later steps from small
memos keyed by the changed word.  On a miss the rules run as they always
do, on a one-word line, and errors are never memoized as results: where
a word's step fails, the whole-line rules run again and raise the error
a whole-line scan raises first.  On perfbench the record memo serves 96%
of word lookups in `scan` runs, 98% in `prepare` runs and 99.9% in
`infill` runs (seed 71, fixed operations in one process).
"""

from __future__ import annotations

import logging
import sys

from .errors import (
    DanglingWasl,
    ScriptError,
    ShaddaWithoutVowel,
    UnderDiacritized,
)
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
    Grapheme,
    ScriptLine,
    Word,
    parse_line,
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
            out.append(Grapheme(HAMZA_ALIF, vowel="fatha"))
            out.append(Grapheme(ALIF))
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
    # Words no case touched are returned as the input's own objects.
    touched = set()
    for wi, word in enumerate(words):
        gi = 0
        while gi < len(word):
            if not word[gi].is_wasl:
                gi += 1
                continue
            touched.add(wi)
            prev = _prev_position(words, wi, gi)
            if prev is None:
                if not sentence_initial:
                    raise DanglingWasl("line-initial connective alif "
                                       "outside a sentence start")
                # Case 2: sentence-initial, pronounced as a glottal stop /'a/
                word[gi] = Grapheme(HAMZA_ALIF, vowel="fatha")
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
                touched.add(pw)
                del words[pw][pg]
                if pw == wi:
                    gi -= 1
            elif pgraph.unvocalized:
                # Case 5: the preceding unvocalized letter takes the
                # juncture vowel and the connective alif drops
                del word[gi]
                touched.add(pw)
                words[pw][pg] = pgraph.with_vowel(juncture.vowel_for(
                    tuple(words[pw])))
            else:
                raise DanglingWasl(
                    "connective alif with no resolvable context")
    return _with_words(line, [tuple(word) if wi in touched else old
                              for wi, (word, old)
                              in enumerate(zip(words, line.words))])


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
            out.append(Grapheme(g.base, vowel="sukun"))
            out.append(Grapheme(g.base, vowel=g.vowel))
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
            out.append(Grapheme(NUN, vowel="sukun"))
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
            new = word + (Grapheme(EXTENSION_FOR_VOWEL[g.vowel]),)
        elif g.base == MIM and word[-2].base in PLURAL_M_HOSTS:
            if g.vowel in SHORT_VOWELS:
                new = word + (Grapheme(EXTENSION_FOR_VOWEL[g.vowel]),)
            elif optional_plural_m and g.unvocalized:
                # poetic license: vocalize a bare plural-m when the
                # rhythm requires it
                new = word[:-1] + (g.with_vowel("damma"),
                                   Grapheme(WAW))
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
                Grapheme(EXTENSION_FOR_VOWEL[last.vowel]),)
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


def _after_isba(out: ScriptLine) -> tuple[ScansionLine, BeatPattern]:
    """Default sukun, validation and beats of a line isba has seen."""
    out = assign_default_sukun(out)
    out = validate_scansion(out)
    return out, _checked_beats(beat_segments(out))


def _checked_beats(segments) -> BeatPattern:
    beats = "".join(segments)
    if "00" in beats[:-2]:
        # classical transcription forbids two mid-line sakins; surfaced
        # as a diagnostic only
        log.debug("double sakin inside line: %s", beats)
    return beats


class _Memo(dict):
    """A dict of at most `size` entries; the oldest entry makes room.

    `built_with` names what the values were computed with, when that
    is not part of the key.
    """

    __slots__ = ("size", "built_with")

    def __init__(self, size: int, built_with=None):
        super().__init__()
        self.size = size
        self.built_with = built_with

    def put(self, key, value):
        if len(self) >= self.size:
            del self[next(iter(self))]
        self[key] = value
        return value


# Fixed memo sizes, in entries, chosen by measurement on perfbench.  The
# record memo must hold a verse vocabulary: a 25 s `scan` run meets
# about 3,900 distinct words, and memos of 1024 entries gave no gain.
# The side memos hold only words that a boundary rule changed: about
# 1,200 distinct ones after the connective-alif rule and 300 after isba
# on the same run; halving them cost 7% of `scan`'s speed in a paired run.
RECORD_MEMO_SIZE = 4096
SIDE_MEMO_SIZE = 1024

# Input word -> packed record (see `_record`, `_pack`), built with the
# special-word table `_records.built_with`.  A line reads this global
# once, so a call with other tables swaps in a new memo without
# affecting a scan in progress.
_records = _Memo(RECORD_MEMO_SIZE)
# Word as the connective-alif rule changed it -> packed record.
_wasl_records = _Memo(SIDE_MEMO_SIZE)
# Word as isba changed it -> its `_last_group` result.
_isba_words = _Memo(SIDE_MEMO_SIZE)


def _first_group(word: Word, special: WordTable) -> Word:
    """Special words, silent removal and madda on one word; () if the
    word was emptied."""
    out = expand_madda(remove_silent_graphemes(apply_special_words(
        ScriptLine((word,)), special)))
    return out.words[0] if out.words else ()


def _last_group(word: Word):
    """Default sukun, validation and beat segment of one word that isba
    has seen, or (None, None) when validation fails."""
    try:
        out = validate_scansion(assign_default_sukun(ScriptLine((word,))))
    except ScriptError:
        return None, None
    # Few distinct segments exist, so memoized words share them.
    return out.words[0], sys.intern(beat_segments(out)[0])


def _record(word: Word) -> tuple:
    """``(word, after_second_group, after_last_group, beats)`` of a word
    that the first group has seen.

    A word with a connective alif, which the boundary rule always
    changes, and a word whose gemination or tanwin raises get None for
    the last three; a word that fails validation gets None for the last
    two.  Callers redo the whole-line rules where they meet a None, so
    an error is raised in the whole-line order and never taken from the
    memo as a result.
    """
    if not word or any(g.is_wasl for g in word):
        return word, None, None, None
    try:
        second = expand_tanwin(expand_gemination(ScriptLine((word,))))
    except ScriptError:
        return word, None, None, None
    after = second.words[0]
    return (word, after) + _last_group(after)


# Kept for a record ``(word, None, None, None)`` of the word it is
# stored under.
_UNRESOLVED = "unresolved"


def _pack(word: Word, record: tuple):
    """What a memo keeps under `word` for its record.

    Most words are either left alone by every word rule or wait for the
    connective-alif rule; for those the record tuple would be most of
    their memory, so the memo keeps only their beats (a str) or
    `_UNRESOLVED`.
    """
    first, second, last, beats = record
    if first is word:
        if second is None:
            return _UNRESOLVED
        if second is word and last is word:
            return beats
    return record


def _unpack(word: Word, kept) -> tuple:
    if kept is _UNRESOLVED:
        return word, None, None, None
    if kept.__class__ is str:
        return word, word, word, kept
    return kept


def _word_records(line: ScriptLine, tables: TableSet) -> list:
    """Records of the line's words after the first group, emptied words
    left out."""
    global _records
    memo = _records
    special = tables.special
    if special is not memo.built_with:
        if special != memo.built_with:
            _records = memo = _Memo(RECORD_MEMO_SIZE, special)
        else:
            memo.built_with = special
    words = line.words
    kept = list(map(memo.get, words))
    if None in kept:
        kept = [k if k is not None else memo.put(word, _pack(
                    word, _record(_first_group(word, special))))
                for word, k in zip(words, kept)]
    return [rec for rec in map(_unpack, words, kept) if rec[0]]


def _changed_record(word: Word) -> tuple:
    """Record of a word as the connective-alif rule changed it."""
    kept = _wasl_records.get(word)
    if kept is None:
        kept = _wasl_records.put(word, _pack(word, _record(word)))
    return _unpack(word, kept)


def _before_isba(line: ScriptLine, tables: TableSet | None,
                 sentence_initial: bool) -> tuple[list, ScriptLine]:
    """Records of the words isba sees, and the line of their forms.

    Runs the first group, the connective-alif rule on lines that have
    a connective alif, and the second group.
    """
    if tables is None:
        tables = default_tables()
    records = _word_records(line, tables)
    seconds = [rec[1] for rec in records]
    if None in seconds:
        # A connective alif, or a word whose second group raises.
        before = ScriptLine(tuple(rec[0] for rec in records),
                            line.verse_final)
        after = process_hamzat_wasl(before, sentence_initial,
                                    tables.juncture)
        if after is not before:
            # Words the rule left alone keep their records.
            by_word = {rec[0]: rec for rec in records}
            records = [by_word.get(word) or _changed_record(word)
                       for word in after.words]
            seconds = [rec[1] for rec in records]
        if None in seconds:
            # A word's gemination or tanwin raises: the whole-line rules
            # raise the error a whole-line scan raises first.
            expand_tanwin(expand_gemination(after))
    return records, ScriptLine(tuple(seconds), line.verse_final)


def _after_isba_words(records: list, seen: ScriptLine,
                      reading: ScriptLine) -> tuple[ScansionLine, BeatPattern]:
    """Transcription and beats of `reading`, isba's output for `seen`."""
    if reading is seen:
        words = [rec[2] for rec in records]
        segments = [rec[3] for rec in records]
    else:
        words = []
        segments = []
        for rec, before, after in zip(records, seen.words, reading.words):
            if after is before:
                words.append(rec[2])
                segments.append(rec[3])
            else:
                word, segment = _isba_words.get(after) or _isba_words.put(
                    after, _last_group(after))
                words.append(word)
                segments.append(segment)
    if None in words:
        # A word fails validation: the whole-line rules raise the error
        # a whole-line scan raises first.
        return _after_isba(reading)
    return (ScriptLine(tuple(words), reading.verse_final),
            _checked_beats(segments))


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
    records, seen = _before_isba(line, tables, sentence_initial)
    return _after_isba_words(records, seen,
                             apply_isba(seen, line.verse_final))


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
    records, seen = _before_isba(line, tables, sentence_initial)
    plain = apply_isba(seen, line.verse_final)
    licensed = apply_isba(seen, line.verse_final, optional_plural_m=True)
    readings = [plain]
    if licensed.words != plain.words:
        readings.append(licensed)
    outcomes = []
    for reading in readings:
        try:
            outcomes.append(_after_isba_words(records, seen, reading))
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
