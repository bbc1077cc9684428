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

Where a line stands is not part of it: `scan` and `scan_readings` take
it as two arguments.  `sentence_initial` says whether a connective alif
that opens the line is pronounced (step 2), and `verse_final` whether
isba lengthens the line's last short vowel (step 4).

Each rule maps a ScriptLine to a ScriptLine and returns its input object
itself when it does not fire, so a line no rule touches is never copied.
The word rules but special words (silent removal, madda, gemination,
tanwin and default sukun) are decisions on one grapheme of one word,
read from the input word: keep it, or replace it by some graphemes.
`_per_grapheme` runs such a decision over a word in the one loop that
copies the word, at its first change, and `_rewrite_words` over the
line's words, so an idle rule still returns its input object.
Graphemes are interned (see ``script.Grapheme``): one instance per
distinct value, shared by every line in the process.

Verse repeats its words, so `scan` and `scan_readings` run each
word-scope step once per distinct word.  A word's step-1 form is kept in
its record in `_in_context` (below); steps 3 and 5 are each a
``script.Memo`` from the word it receives to the word it returns (step 5
adds the beat segment), and a line's words are looked up in it left to
right.  On a miss the step's rules run as they always do, on a one-word
line.  The connective-alif rule returns a line holding no connective
alif at once (``script.WASL_GRAPHEMES``) and otherwise copies every
word; isba rejects a word first on its last letter, since it extends
only a word ending in ha or mim before the next word.  A step that
raises stores nothing, and each raises from one rule only (gemination in
step 3, validation in step 5), so mapping a step over the words left to
right raises the error the whole-line rules raise first.

`scan`, `scan_readings` and `reading_segments` go further and serve a
line from words in context, because each word's step-5 form is fixed by
a small window around it.  A word's class is its `lead`, an int from 0
to 3, and None when `lead` keys it by itself.  Its context is whether it
opens the line (and then `sentence_initial`) and the next word's class,
or the line end (and `verse_final`).  When no word's class is None, the
step-5 form of every word is fixed by the word and its context:

- Only the connective-alif rule reads backwards.  An alif that opens a
  word's step-1 form drops after any grapheme, so what it reads decides
  only what it does to the word before.  The rest of its word reads the
  word before only when it ``reads_back`` (once the alif is dropped),
  and its class is None.  When the word before an alif is one
  unvocalized letter, the alif reads the word before that one too, to
  tell a long vowel, and such a word's class is None.
- Everything a next word does to a word goes through its `lead`: an
  alif that opens it changes the word's last letters by the word's own
  graphemes and no more, and isba reads whether the next word's first
  letter is vocalized once such an alif is dropped.  Nothing after the
  next word changes that letter: an alif after it reaches it only when
  the next word is one letter, and changes it only when that letter is
  unvocalized, and such a word's class is None.
- A word whose class is not None reads the line start only through an
  opening alif: pronounced (case 2) at a sentence start, else
  ``DanglingWasl``.  Such a word is never dropped, so every word of the
  line but the first has a word before it.
- The optional plural-m license is one more isba decision, and reads
  what the plain one reads: the word's own ending after step 3 and
  whether the next word's first letter is vocalized.  So each reading
  fixes a word's step-5 form by the same context.  A licensed word is
  longer than its plain form, so the license changes the line's words
  exactly when it changes some word's step-5 form.

So one memo, `_in_context`, maps a word to its record: its class, its
step-1 form and the step-5 values it has had in each context, per
reading: the plain value under the context, the licensed one under its
complement (``~``), which only a call that asks for the licensed reading
stores.  One pass, `_scanned`, reads a line's words there for `scan`,
`scan_readings` and `reading_segments`, and `lead` and `reads_back` read
the same record, so a word's step 1 and class are computed once per
table set.  A line is served from it when no class is None and every
word has the values the call needs for its context; otherwise the rules
run as above from the records' step-1 forms, and a line that drops no
word stores each word's values under its context.  A line that raises
stores nothing, so errors and their order are those of the rules.  Each
error is raised by one word in its context (gemination, validation, or
an opening alif at the line start), so the rules would not raise on a
line whose words all have values, and the licensed reading of a word
raises only where its plain one does.
"""

from __future__ import annotations

import logging
import sys
from itertools import accumulate, chain

from .errors import (
    DanglingWasl,
    ScanError,
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
    WASL_GRAPHEMES,
    WAW,
    YA,
    Grapheme,
    Memo,
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
# The only word-final letters isba extends before a next word.
ISBA_FINALS = frozenset((HA, MIM))


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


def _per_grapheme(rule):
    """The word rewrite, for `_rewrite_words`, of a per-grapheme decision.

    ``rule(word, i)`` returns None to keep ``word[i]``, else the graphemes
    that replace it (none to drop it), and always reads the input word.
    The rewrite returns None when every grapheme is kept.
    """
    def rewrite(word):
        out = None
        for i, g in enumerate(word):
            new = rule(word, i)
            if out is not None:
                out.extend((g,) if new is None else new)
            elif new is not None:
                out = [*word[:i], *new]
        return out
    return rewrite


def _with_words(line: ScriptLine, words) -> ScriptLine:
    """`line` if `words` is None, else a line of the non-empty words."""
    if words is None:
        return line
    return ScriptLine(tuple(filter(None, words)))


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


@_per_grapheme
def _drop_silent(word, i):
    return () if word[i].silent else None


def remove_silent_graphemes(line: ScriptLine) -> ScriptLine:
    return _rewrite_words(line, _drop_silent)


@_per_grapheme
def _split_madda(word, i):
    if word[i].base == MADDA_ALIF:
        return Grapheme(HAMZA_ALIF, vowel="fatha"), Grapheme(ALIF)
    return None


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
    if WASL_GRAPHEMES.isdisjoint(chain.from_iterable(line.words)):
        return line  # no connective alif to resolve
    if juncture is None:
        juncture = default_tables().juncture
    words = list(map(list, line.words))

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
                del words[pw][pg]
                if pw == wi:
                    gi -= 1
            elif pgraph.unvocalized:
                # Case 5: the preceding unvocalized letter takes the
                # juncture vowel and the connective alif drops
                del word[gi]
                words[pw][pg] = pgraph.with_vowel(
                    juncture.vowel_for(tuple(words[pw])))
            else:
                raise DanglingWasl(
                    "connective alif with no resolvable context")
    return _with_words(line, map(tuple, words))


@_per_grapheme
def _split_shadda(word, i):
    g = word[i]
    if not g.shadda:
        return None
    if g.vowel is None or g.vowel == "sukun":
        raise ShaddaWithoutVowel(f"geminated {g.base!r} has no vowel mark")
    return Grapheme(g.base, vowel="sukun"), Grapheme(g.base, vowel=g.vowel)


def expand_gemination(line: ScriptLine) -> ScriptLine:
    """Split geminated letters into sukun copy + vocalized copy."""
    return _rewrite_words(line, _split_shadda)


@_per_grapheme
def _split_tanwin(word, i):
    g = word[i]
    if g.vowel in TANWINS:
        return g.with_vowel(TANWIN_TO_SHORT[g.vowel]), Grapheme(NUN, "sukun")
    if i and word[i - 1].vowel == "tanwin_fath" and g.unvocalized \
            and not g.shadda and g.base in (ALIF, ALIF_MAKSURA):
        return ()  # the orthographic alif after tanwin-fath
    return None


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
    # and only the changed words are rebuilt.  Only a word ending in ha or
    # mim can be extended before the next word, so any other word is
    # passed over on its last letter.
    words = line.words
    out = None
    for wi in range(len(words) - 1):
        word = words[wi]
        if len(word) < 2 or word[-1].base not in ISBA_FINALS:
            continue
        nxt = words[wi + 1]
        if not nxt or not nxt[0].vocalized or not word[-2].vocalized:
            continue
        g = word[-1]
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


@_per_grapheme
def _sukun_for_bare(word, i):
    return (word[i].with_vowel("sukun"),) if word[i].bare else None


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


def word_offsets(words, transcription: ScansionLine) -> list[int]:
    """Where each of `words` starts in the beats of `transcription`, a
    scan of the line of those words, then where the last one ends.

    A scan drops a word that vanishes, such as a silent-only word or a
    lone connective alif after a vowel, and a span of the line's words
    then has no beats of its own: that raises ScanError.
    """
    _check_kept(words, transcription.words)
    # Every grapheme of a transcription gives exactly one beat.
    return [0, *accumulate(map(len, transcription.words))]


def _check_kept(words, scanned) -> None:
    """Raise ScanError unless a scan of the line of `words` kept each of
    them: `scanned` is its words after the scan."""
    if len(scanned) != len(words):
        raise ScanError("word alignment lost during transformation")


def _first_step(word: Word, special: WordTable) -> Word:
    """Special words, silent removal and madda; () if the word was
    emptied."""
    out = expand_madda(remove_silent_graphemes(apply_special_words(
        ScriptLine((word,)), special)))
    return out.words[0] if out.words else ()


def _third_step(word: Word) -> Word:
    """Gemination and tanwin."""
    return expand_tanwin(expand_gemination(ScriptLine((word,)))).words[0]


def _fifth_step(word: Word) -> tuple[Word, BeatPattern]:
    """Default sukun, validation and the beat segment."""
    out = validate_scansion(assign_default_sukun(ScriptLine((word,))))
    # Few distinct segments exist, so memoized words share them.
    return out.words[0], sys.intern(beat_segments(out)[0])


# Word after the connective-alif rule -> the word after step 3.
_step3 = Memo(_third_step)
# Word after isba -> (the word after step 5, its beat segment).
_step5 = Memo(_fifth_step)


def _second_third_steps(firsts, tables: TableSet,
                        sentence_initial: bool) -> ScriptLine:
    """Steps 2 and 3 of a line of step-1 forms; emptied words are
    dropped."""
    out = process_hamzat_wasl(ScriptLine(tuple(filter(None, firsts))),
                              sentence_initial, tables.juncture)
    return ScriptLine(tuple(map(_step3.__getitem__, out.words)))


# A word ending in a short vowel, before which a connective alif drops.
_AFTER_VOWEL = (Grapheme("ب", vowel="kasra"),)


def _reads_back(first: Word) -> bool:
    """`reads_back` of a word whose step-1 form is `first`."""
    return not WASL_GRAPHEMES.isdisjoint(first) and (
        first[0].is_wasl or (first[0].unvocalized
                             and first[0].base in VOWEL_FOR_EXTENSION))


def _word_in_context(word: Word, tables: TableSet) -> tuple:
    """`word`'s record: (its class, its step-1 form, its step-5 values by
    context, empty at first).

    The class is what the words before `word` in a line can read of it:
    whether isba finds its first letter vocalized, plus 2 when a
    connective alif opens the step-1 form, which drops after any word and
    changes the words before by reading only them.  It is None for a
    word whose first letter can depend on the word before (`reads_back`,
    once an opening alif is dropped), for one letter without a vowel
    after step 3, which an alif in the next word can vocalize or delete,
    and for a word that the scan drops or that does not scan.
    """
    first = _first_step(word, tables.special)
    wasl = bool(first) and first[0].is_wasl
    if _reads_back(first[1:] if wasl else first):
        return None, first, {}
    line = (_first_step(_AFTER_VOWEL, tables.special), first) if wasl \
        else (first,)
    try:
        words = _second_third_steps(line, tables, False).words
    except ScriptError:
        return None, first, {}
    if len(words) < len(line) or (len(words[-1]) < 2
                                  and not words[-1][0].vocalized):
        return None, first, {}
    return words[-1][0].vocalized + 2 * wasl, first, {}


# Word -> its record: (its class, the word after step 1, {context: (the
# word after step 5, its beat segment)}), the `_step5` values a rule-path
# scan gave it there; the licensed reading's under ~context.
_in_context = Memo(_word_in_context, None)


def _record(word: Word, tables: TableSet | None) -> tuple:
    """`word`'s `_in_context` record under `tables`."""
    _in_context.use(tables or default_tables())
    return _in_context[word]


def reads_back(word: Word, tables: TableSet | None = None) -> bool:
    """Whether `word`'s transcription in a line can depend on the words
    before it, other than by the word being lost.

    Of all the rules only the connective alif reads across a word
    boundary backwards: it reads the grapheme before it and, to tell a
    long vowel, the one before that, and deleting a long vowel moves a
    later alif closer to the word's start.  So only an alif that opens
    the step-1 form, or follows a first letter that can be a long vowel,
    reads the word before.  The next word's alif reads this word's last
    two graphemes, and the word before's last one when this word is one
    letter, but all it can do there is delete that letter.
    """
    return _reads_back(_record(word, tables)[1])


def lead(word: Word, tables: TableSet | None = None):
    """What the words before `word` in a line can read of it, as a key:
    words with equal keys leave the words before them alike.

    The key is the word's class in `_in_context` (0 to 3), or `word`
    itself when the class is None.  The word before reads the class as
    its context in `scan` and `scan_readings`, and `fill` groups its
    lexicon by the key.
    """
    key = _record(word, tables)[0]
    return word if key is None else key


def _joined(done: list) -> tuple[ScansionLine, BeatPattern]:
    """The line of step-5 values `done` and its beats."""
    words, segments = zip(*done) if done else ((), ())
    beats = "".join(segments)
    if "00" in beats[:-2]:
        # classical transcription forbids two mid-line sakins; surfaced
        # as a diagnostic only
        log.debug("double sakin inside line: %s", beats)
    return ScriptLine(words), beats


def _scanned(line: ScriptLine, tables: TableSet | None,
             sentence_initial: bool, verse_final: bool,
             licensed: bool) -> list:
    """Each reading's step-5 values of `line`'s words: the plain reading
    and, when `licensed`, the licensed one unless it equals the plain one.

    Readings compare by value: a value computed again after an eviction
    is equal to the one before, but not the same object.  The line is
    served from `_in_context` when no word's class is None and each word
    has a value for its context in every reading asked for; otherwise
    the rules run from the words' step-1 forms, and a line that drops no
    word stores each word's plain value under its context and, when
    `licensed`, its licensed one under the complement (``~``).
    """
    tables = tables or default_tables()
    _in_context.use(tables)
    if not line.words:
        return [[]]
    classes, firsts, values = zip(*map(_in_context.__getitem__, line.words))
    readings = None
    if None not in classes:
        # The next word's class (0 to 3), else the line end (4 or 5), plus
        # 6 or 12 for the word that opens the line.
        contexts = [*classes[1:], 4 + verse_final]
        contexts[0] += 6 + 6 * sentence_initial
        try:
            readings = [list(map(dict.__getitem__, values, contexts))]
            if licensed:
                readings.append(list(map(dict.__getitem__, values,
                                         map(int.__invert__, contexts))))
        except KeyError:
            readings = None
    if readings is None:
        seen = _second_third_steps(firsts, tables, sentence_initial)
        readings = [list(map(_step5.__getitem__,
                             apply_isba(seen, verse_final, plural_m).words))
                    for plural_m in (False, True)[:1 + licensed]]
        if None not in classes and len(readings[0]) == len(values):
            for keys, done in zip((contexts, map(int.__invert__, contexts)),
                                  readings):
                for by_context, context, value in zip(values, keys, done):
                    by_context[context] = value
    return readings[:1] if licensed and readings[1] == readings[0] \
        else readings


def scan(
    line: ScriptLine,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
    verse_final: bool = False,
) -> tuple[ScansionLine, BeatPattern]:
    """Full grapheme-to-beat transformation of one line.

    `sentence_initial` says whether the line opens a sentence, where a
    connective alif is pronounced, and `verse_final` whether it ends a
    verse, where isba lengthens its last short vowel.  Word boundaries
    contribute no beat; the returned pattern is the concatenation of the
    per-word contributions.
    """
    return _joined(_scanned(line, tables, sentence_initial, verse_final,
                            False)[0])


def scan_readings(
    line: ScriptLine,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
    verse_final: bool = False,
) -> list:
    """`scan` of `line` without, then with, the optional plural-m license.

    Each entry is a reading's ``(transcription, beats)``; the licensed
    reading is listed only when the license changes the line's words.
    Like `scan`, a line is served from `_in_context`, where a word keeps
    its licensed value under the complement (``~``) of its context;
    otherwise steps 2 and 3 run once for both readings.
    """
    return [_joined(done) for done in _scanned(
        line, tables, sentence_initial, verse_final, True)]


def reading_segments(line: ScriptLine, tables: TableSet | None = None,
                     sentence_initial: bool = True,
                     verse_final: bool = False) -> list:
    """Each reading of `scan_readings` as its words' beat segments, one
    per word of `line`, without building the reading's line.

    Raises ScanError when the scan drops a word, as `word_offsets` does:
    a span of the line's words then has no beats of its own.
    """
    readings = _scanned(line, tables, sentence_initial, verse_final, True)
    _check_kept(line.words, readings[0])
    return [[segment for _, segment in done] for done in readings]


def scan_text(
    raw: str,
    verse_final: bool = False,
    tables: TableSet | None = None,
    sentence_initial: bool = True,
) -> tuple[ScansionLine, BeatPattern]:
    """Parse then scan; blank input yields an empty pattern."""
    if not raw.strip():
        return ScriptLine(words=()), ""
    return scan(parse_line(raw), tables, sentence_initial, verse_final)
