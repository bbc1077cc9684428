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
Graphemes are interned (see ``script.Grapheme``): one instance per
distinct value, shared by every line in the process.

Verse repeats its words, so `scan` and `scan_readings` run each
word-scope step once per distinct word: each is a ``script.Memo`` from
the word it receives to the word it returns (step 5 adds the beat
segment), and a line's words are looked up in it left to right.  On a
miss the step's rules run as they always do, on a one-word line.  The
connective-alif rule returns a line holding no connective alif at once
(``script.WASL_GRAPHEMES``) and copies only the words holding one and
the word before an alif that a case changes; isba rejects a word first
on its last letter, since it extends only a word ending in ha or mim
before the next word.  A step that raises stores nothing, and each
raises from one rule only (gemination in step 3, validation in step 5),
so mapping a step over the words left to right raises the error the
whole-line rules raise first.

`scan` and `scan_readings` go further and serve a line from words in
context, because each word's step-5 form is fixed by a small window
around it.  A word's class is its `lead`, and None when `lead` keys it
by itself.  Its context is whether it opens the line (and then
`sentence_initial`) and the next word's class, or the line end (and
`verse_final`).  When no word's class is None, the step-5 form of
every word is fixed by the word and its context:

- Only the connective-alif rule reads backwards.  An alif that opens a
  word's step-1 form drops after any grapheme, so what it reads decides
  only what it does to the word before.  The rest of its word reads the
  word before only when it ``reads_back`` (once the alif is dropped),
  and `lead` is None for it.  When the word before an alif is one
  unvocalized letter, the alif reads the word before that one too, to
  tell a long vowel, and `lead` is None for such a word.
- Everything a next word does to a word goes through its `lead`: an
  alif that opens it changes the word's last letters by the word's own
  graphemes and no more, and isba reads whether the next word's first
  letter is vocalized once such an alif is dropped.  Nothing after the
  next word changes that letter: an alif after it reaches it only when
  the next word is one letter, and changes it only when that letter is
  unvocalized, and `lead` is None for such a word.
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

So both keep one memo, `_in_context`, from a word to its class and the
step-5 values it has had in each context, per reading: the plain value
under the context, the licensed one under its complement (``~``), which
only `scan_readings` stores.  Both look a line up in it through
`_looked_up`.  A line is served from it when no class is None and every
word has the values the call needs for its context; otherwise the rules
run as above, and a line that drops no word stores each word's values
under its context.  A line that raises stores
nothing, so errors and their order are those of the rules.  Each error
is raised by one word in its context (gemination, validation, or an
opening alif at the line start), so the rules would not raise on a line
whose words all have values, and the licensed reading of a word raises
only where its plain one does.
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
    WASL_ALIF,
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


def _editable(words: list, wi: int) -> list:
    """`words[wi]` as a list, copied from its tuple on first use."""
    word = words[wi]
    if type(word) is tuple:
        word = words[wi] = list(word)
    return word


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
    # Only the words that hold an alif, and a word before one that a case
    # changes, are copied into lists; the others stay the input's tuples.
    words = [word if WASL_GRAPHEMES.isdisjoint(word) else list(word)
             for word in line.words]

    # Case 1: definite article before a geminated sun letter loses its lam.
    for word in words:
        if type(word) is tuple:
            continue
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
        if type(word) is tuple:
            continue
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
                del _editable(words, pw)[pg]
                if pw == wi:
                    gi -= 1
            elif pgraph.unvocalized:
                # Case 5: the preceding unvocalized letter takes the
                # juncture vowel and the connective alif drops
                del word[gi]
                pword = _editable(words, pw)
                pword[pg] = pgraph.with_vowel(juncture.vowel_for(
                    tuple(pword)))
            else:
                raise DanglingWasl(
                    "connective alif with no resolvable context")
    return _with_words(line, [word if type(word) is tuple else tuple(word)
                              for word in words])


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


def _sukun_for_bare(word):
    out = None
    for i, g in enumerate(word):
        if g.bare:
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


def word_offsets(words, transcription: ScansionLine) -> list[int]:
    """Where each of `words` starts in the beats of `transcription`, a
    scan of the line of those words, then where the last one ends.

    A scan drops a word that vanishes, such as a silent-only word or a
    lone connective alif after a vowel, and a span of the line's words
    then has no beats of its own: that raises ScanError.
    """
    if len(transcription.words) != len(words):
        raise ScanError("word alignment lost during transformation")
    # Every grapheme of a transcription gives exactly one beat.
    return [0, *accumulate(map(len, transcription.words))]


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


# Word -> the word after step 1, computed with the special-word table
# that `_first_steps` sets.
_step1 = Memo(_first_step, None)
# Word after the connective-alif rule -> the word after step 3.
_step3 = Memo(_third_step)
# Word after isba -> (the word after step 5, its beat segment).
_step5 = Memo(_fifth_step)


def _first_steps(words, tables: TableSet) -> list:
    """Step 1 of each of `words`, through `_step1`."""
    _step1.use(tables.special)
    return list(map(_step1.__getitem__, words))


# A word ending in a short vowel, before which a connective alif drops.
_AFTER_VOWEL = (Grapheme("ب", vowel="kasra"),)


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
    return _reads_back(_first_steps((word,), tables or default_tables())[0])


def _reads_back(first: Word) -> bool:
    """`reads_back` of a word whose step-1 form is `first`."""
    return not WASL_GRAPHEMES.isdisjoint(first) and (
        first[0].is_wasl or (first[0].unvocalized
                             and first[0].base in VOWEL_FOR_EXTENSION))


def lead(word: Word, tables: TableSet | None = None):
    """What the words before `word` in a line can read of it, as a key:
    words with equal keys leave the words before them alike.

    For most words that is whether isba finds the first letter vocalized,
    True or False.  A connective alif that opens the step-1 form drops
    after any word, and how it changes the words before reads only them,
    so such a word is keyed by the alif and whether the letter after it
    is vocalized.  The key is `word` itself for a word whose first letter
    can depend on the word before (``reads_back``, once an opening alif
    is dropped), for one letter without a vowel after step 3, which an
    alif in the next word can vocalize or delete, and for a word that
    the scan drops or that does not scan.

    The key is the class of a word in the memo of words in context that
    `scan` and `scan_readings` read, where the word before reads it as
    its context, and `fill` groups its lexicon by it.
    """
    tables = tables or default_tables()
    first = _first_steps((word,), tables)[0]
    wasl = bool(first) and first[0].is_wasl
    if _reads_back(first[1:] if wasl else first):
        return word
    line = (_AFTER_VOWEL, word) if wasl else (word,)
    try:
        words = _before_isba(ScriptLine(line), tables, False).words
    except ScriptError:
        return word
    if len(words) < len(line) or (len(words[-1]) < 2
                                  and not words[-1][0].vocalized):
        return word
    return (WASL_ALIF, words[-1][0].vocalized) if wasl \
        else words[-1][0].vocalized


def _before_isba(line: ScriptLine, tables: TableSet | None,
                 sentence_initial: bool) -> ScriptLine:
    """Steps 1 to 3 of a line; words emptied, or empty, are dropped."""
    if tables is None:
        tables = default_tables()
    words = _first_steps(line.words, tables)
    out = process_hamzat_wasl(ScriptLine(tuple(filter(None, words))),
                              sentence_initial, tables.juncture)
    return ScriptLine(tuple(map(_step3.__getitem__, out.words)))


def _joined(done: list) -> tuple[ScansionLine, BeatPattern]:
    """The line of step-5 values `done` and its beats."""
    words, segments = zip(*done) if done else ((), ())
    beats = "".join(segments)
    if "00" in beats[:-2]:
        # classical transcription forbids two mid-line sakins; surfaced
        # as a diagnostic only
        log.debug("double sakin inside line: %s", beats)
    return ScriptLine(words), beats


def _word_in_context(word: Word, tables: TableSet) -> tuple:
    """(`word`'s class, its step-5 values by context, empty at first).

    The class is `lead`'s key as a small int: whether the first letter
    is vocalized, plus 2 for a word that opens with a connective alif;
    None when `lead` keys the word by itself.
    """
    key = lead(word, tables)
    if key is word:
        return None, {}
    return (key if type(key) is bool else 2 + key[1]), {}


# Word -> (its class, {context: (the word after step 5, its beat
# segment)}), the `_step5` values a rule-path scan gave it there; the
# licensed reading's under ~context.
_in_context = Memo(_word_in_context, None)


def _looked_up(line: ScriptLine, tables: TableSet, sentence_initial: bool,
               verse_final: bool, licensed: bool) -> tuple:
    """`line`'s words in `_in_context`: (each word's values by context,
    the words' contexts, the line served).

    The line served is a list of the plain reading's step-5 values and,
    when `licensed`, the licensed one's, or None when some word lacks a
    value the call needs.  The contexts are None when some word has no
    class, or the line no word.
    """
    _in_context.use(tables)
    if not line.words:
        return (), None, None
    classes, values = zip(*map(_in_context.__getitem__, line.words))
    if None in classes:
        return values, None, None
    # The next word's class (0 to 3), else the line end (4 or 5), plus 6
    # or 12 for the word that opens the line.
    contexts = [*classes[1:], 4 + verse_final]
    contexts[0] += 6 + 6 * sentence_initial
    try:
        served = [list(map(dict.__getitem__, values, contexts))]
        if licensed:
            served.append(list(map(dict.__getitem__, values,
                                   map(int.__invert__, contexts))))
    except KeyError:
        return values, contexts, None
    return values, contexts, served


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
    if tables is None:
        tables = default_tables()
    values, contexts, served = _looked_up(line, tables, sentence_initial,
                                          verse_final, False)
    if served:
        return _joined(served[0])
    seen = _before_isba(line, tables, sentence_initial)
    done = list(map(_step5.__getitem__,
                    apply_isba(seen, verse_final).words))
    if contexts and len(done) == len(values):
        for by_context, context, value in zip(values, contexts, done):
            by_context[context] = value
    return _joined(done)


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
    otherwise steps 1 to 3 run once for both readings.
    """
    if tables is None:
        tables = default_tables()
    values, contexts, served = _looked_up(line, tables, sentence_initial,
                                          verse_final, True)
    if served:
        return _listed(*served)
    seen = _before_isba(line, tables, sentence_initial)
    plain_line = apply_isba(seen, verse_final)
    licensed_line = apply_isba(seen, verse_final, optional_plural_m=True)
    plain = list(map(_step5.__getitem__, plain_line.words))
    licensed = plain if licensed_line.words == plain_line.words \
        else list(map(_step5.__getitem__, licensed_line.words))
    if contexts and len(plain) == len(values):
        for by_context, context, value, licensed_value in zip(
                values, contexts, plain, licensed):
            by_context[context] = value
            by_context[~context] = licensed_value
    return _listed(plain, licensed)


def _listed(plain: list, licensed: list) -> list:
    """The readings of a line's plain and licensed step-5 values; the
    licensed one only when some word's value differs.  Values compare by
    value: a value computed again after an eviction is equal to the one
    before, but not the same object."""
    readings = [plain] if licensed == plain else [plain, licensed]
    return [_joined(done) for done in readings]


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
