"""Structural model of diacritized Arabic text.

A line is an ordered list of words; a word is an ordered list of graphemes.
Each grapheme is one base letter plus its attached marks.  Parsing and
rendering round-trip exactly, and rendering always emits marks in the
canonical order: base letter, shadda, vowel-class mark, silence mark.

Constructing a Grapheme interns it: each distinct value has one
validated, immutable instance, shared process-wide, so graphemes compare
and hash by identity and words make cheap dictionary keys.  The three
vocalization flags the rules test most are computed once, at interning,
and the interned connective alifs are collected in ``WASL_GRAPHEMES``.

Verse repeats its words, so every layer keeps its per-word results in a
``Memo``, the bounded memo defined here: the parser, rendered words,
scansion's per-word records and its step memos, ``normalize``'s word
records, ``mask``'s plans and ``fill``'s windows.
"""

from __future__ import annotations

import re
import unicodedata
from collections import deque
from dataclasses import FrozenInstanceError, dataclass

from .errors import (
    DoubleDiacritic,
    EmptyLine,
    EmptyWord,
    ForeignCharacter,
    LeadingDiacritic,
)

# Mark code points (standard Arabic block assignments).
FATHA = "َ"
DAMMA = "ُ"
KASRA = "ِ"
SUKUN = "ْ"
TANWIN_FATH = "ً"
TANWIN_DAMM = "ٌ"
TANWIN_KASR = "ٍ"
SHADDA = "ّ"
SILENCE = "۠"  # al-sifr al-mustatil, marks silent letters

# Letters referenced by the transformation rules.
WASL_ALIF = "ٱ"
MADDA_ALIF = "آ"
HAMZA_ALIF = "أ"
ALIF = "ا"
ALIF_MAKSURA = "ى"
WAW = "و"
YA = "ي"
NUN = "ن"
LAM = "ل"
HA = "ه"
MIM = "م"
TATWEEL = "ـ"

# Vowel-class mark kinds (exactly one may sit on a grapheme).
VOWEL_CHAR_TO_KIND = {
    FATHA: "fatha",
    DAMMA: "damma",
    KASRA: "kasra",
    SUKUN: "sukun",
    TANWIN_FATH: "tanwin_fath",
    TANWIN_DAMM: "tanwin_damm",
    TANWIN_KASR: "tanwin_kasr",
}
VOWEL_KIND_TO_CHAR = {kind: char for char, kind in VOWEL_CHAR_TO_KIND.items()}

SHORT_VOWELS = ("fatha", "damma", "kasra")
TANWINS = ("tanwin_fath", "tanwin_damm", "tanwin_kasr")

# The nine-mark inventory that survives parsing.
MARKS = set(VOWEL_CHAR_TO_KIND) | {SHADDA, SILENCE}

# Arabic base letters: hamza forms through ya, plus the wasl alif.
ARABIC_LETTERS = (
    {chr(cp) for cp in range(0x0621, 0x063B)}
    | {chr(cp) for cp in range(0x0641, 0x064B)}
    | {WASL_ALIF}
)

SUN_LETTERS = set("تثدذرزسش"
                  "صضطظلن")


class Grapheme:
    """One base letter plus its attached marks.

    Construction interns: ``Grapheme(...)`` returns the one shared,
    validated instance for its five values, so ``==`` and ``hash`` are
    identity.  Instances are immutable, and pickling and copying go back
    through the constructor, so every process holds one instance per value.

    Three read-only flags are derived from the five values at interning:
    ``vocalized`` is true when the letter bears one of the three short
    vowels, ``unvocalized`` for a non-silent letter with sukun or no
    vowel-class mark, and ``bare`` for a letter with no mark at all: no
    vowel-class mark, no shadda, not silent and not a connective alif.
    """

    __slots__ = ("base", "vowel", "shadda", "silent", "is_wasl", "_text",
                 "vocalized", "unvocalized", "bare")

    def __new__(cls, base: str, vowel: str | None = None,
                shadda: bool = False, silent: bool = False,
                is_wasl: bool = False) -> "Grapheme":
        key = (base, vowel, shadda, silent, is_wasl)
        g = _SHARED.get(key)
        if g is None:
            if base not in ARABIC_LETTERS:
                raise ForeignCharacter(f"not an Arabic letter: {base!r}")
            if vowel is not None and vowel not in VOWEL_KIND_TO_CHAR:
                raise ValueError(f"unknown vowel kind: {vowel!r}")
            if silent and (vowel is not None or shadda):
                raise DoubleDiacritic("silent letter cannot carry other marks")
            if is_wasl and base != WASL_ALIF:
                raise ValueError("is_wasl requires the wasl-alif base letter")
            if is_wasl and shadda:
                raise DoubleDiacritic("wasl-alif cannot be geminated")
            g = object.__new__(cls)
            for name, value in zip(cls.__slots__, key):
                object.__setattr__(g, name, value)
            object.__setattr__(g, "_text", _render_marks(g))
            object.__setattr__(g, "vocalized", vowel in SHORT_VOWELS)
            object.__setattr__(g, "unvocalized", not silent and (
                vowel is None or vowel == "sukun"))
            object.__setattr__(g, "bare", vowel is None and not (
                shadda or silent or is_wasl))
            _SHARED[key] = g
            if is_wasl:
                WASL_GRAPHEMES.add(g)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Grapheme, (self.base, self.vowel, self.shadda, self.silent,
                          self.is_wasl)

    def __repr__(self) -> str:
        return (f"Grapheme(base={self.base!r}, vowel={self.vowel!r}, "
                f"shadda={self.shadda!r}, silent={self.silent!r}, "
                f"is_wasl={self.is_wasl!r})")

    def with_vowel(self, vowel: str | None) -> "Grapheme":
        return Grapheme(self.base, vowel, self.shadda, self.silent,
                        self.is_wasl)


# Distinct grapheme values -> their one instance.  The key space is
# letters x mark combinations, so it stays at a few hundred entries.
_SHARED: dict[tuple, Grapheme] = {}
# Every interned connective alif: a rule that resolves them can test a
# word with `WASL_GRAPHEMES.isdisjoint(word)`.
WASL_GRAPHEMES: set[Grapheme] = set()

Word = tuple[Grapheme, ...]


@dataclass(frozen=True)
class ScriptLine:
    """A parsed line of words.

    Where the line stands, at a sentence start or a verse end, is not
    part of it: `scansion.scan` takes both as arguments.
    """

    words: tuple[Word, ...]

    def graphemes(self):
        for word in self.words:
            yield from word

    def word_count(self) -> int:
        return len(self.words)


# Entries per memo.  Chosen by measurement on perfbench: a word memo
# must hold a verse vocabulary, a 25 s `scan` run meets about 3,900
# distinct words, and memos of 1024 entries gave no gain.
# `corpus._words` holds twice as many, since raw text spells one word in
# many ways.
MEMO_SIZE = 4096


class Memo(dict):
    """``memo[key]`` is ``compute(key, *memo.args)``, computed on the
    first lookup of `key` and kept until `size` (`MEMO_SIZE`) newer keys
    have been stored; the oldest entry makes room.

    A lookup that finds its key is one dict lookup.  A compute that
    raises stores nothing.  `_order` holds the keys oldest first, so
    making room takes constant time however many entries have gone
    before.  `misses` counts the lookups that computed (a compute that
    raises included) and `evictions` the entries that made room, since
    the memo was built.
    """

    __slots__ = ("compute", "args", "size", "misses", "evictions",
                 "_order")

    def __init__(self, compute, *args):
        super().__init__()
        self.compute = compute
        self.args = args
        self.size = MEMO_SIZE
        self.misses = self.evictions = 0
        self._order = deque()

    def __missing__(self, key):
        self.misses += 1
        value = self.compute(key, *self.args)
        if len(self) >= self.size:
            del self[self._order.popleft()]
            self.evictions += 1
        self._order.append(key)
        self[key] = value
        return value

    def clear(self):
        super().clear()
        self._order.clear()

    def use(self, *args):
        """Compute with `args` from now on; the entries go when `args`
        differ by value from the ones they were computed with.

        So a pool worker keeps its entries when each chunk of work brings
        an equal, freshly unpickled table set.
        """
        if args != self.args:
            self.clear()
        self.args = args


def parse_line(raw: str) -> ScriptLine:
    """Parse text into a ScriptLine, reading each word in NFC.

    Whitespace runs delimit words.  Any code point outside the Arabic
    letters, the nine marks and whitespace is rejected.
    """
    chunks = raw.split()
    if not chunks:
        raise EmptyLine("no words in line")
    return ScriptLine(words=tuple(map(_parsed.__getitem__, chunks)))


def _parse_word(chunk: str) -> Word:
    """Graphemes of one whitespace-free chunk, read in NFC."""
    return _parse_chars(unicodedata.normalize("NFC", chunk))


# A word as written -> its graphemes.  Verse repeats its words, so most
# words are met here and skip normalization and parsing.
# Normalizing each word alone equals normalizing the line: whitespace
# characters are starters that compose with nothing, and each one's NFC
# is a single whitespace character.  The memo is bounded, so text whose
# vocabulary keeps growing keeps only its most recent words resident.
_parsed = Memo(_parse_word)


def _parse_chars(chunk: str) -> Word:
    """Graphemes of one whitespace-free chunk, as written, raising the
    first error in character order."""
    graphemes: list[Grapheme] = []
    base = None
    for ch in chunk:
        if ch in ARABIC_LETTERS:
            if base is not None:
                graphemes.append(Grapheme(base, vowel, shadda, silent,
                                          base == WASL_ALIF))
            base = ch
            vowel = None
            shadda = silent = False
        elif ch in MARKS:
            if base is None:
                raise LeadingDiacritic(f"mark {ch!r} before any letter")
            if ch == SHADDA:
                if shadda:
                    raise DoubleDiacritic("doubled shadda")
                shadda = True
            elif ch == SILENCE:
                if silent:
                    raise DoubleDiacritic("doubled silence mark")
                silent = True
            else:
                if vowel is not None:
                    raise DoubleDiacritic(
                        f"second vowel-class mark {ch!r} on one letter")
                vowel = VOWEL_CHAR_TO_KIND[ch]
        else:
            raise ForeignCharacter(f"disallowed code point {ch!r}")
    graphemes.append(Grapheme(base, vowel, shadda, silent,
                              base == WASL_ALIF))
    return tuple(graphemes)


def render_grapheme(g: Grapheme) -> str:
    return g._text


def _render_marks(g: Grapheme) -> str:
    out = [g.base]
    if g.shadda:
        out.append(SHADDA)
    if g.vowel is not None:
        out.append(VOWEL_KIND_TO_CHAR[g.vowel])
    if g.silent:
        out.append(SILENCE)
    return "".join(out)


def render_word(word: Word) -> str:
    if not word:
        raise EmptyWord("cannot render an empty word")
    return "".join([g._text for g in word])


# A word -> its text.  Verse repeats its words, so a line's words are
# mostly met here and each costs one dict lookup.
_rendered = Memo(render_word)


def render_line(line: ScriptLine) -> str:
    """Serialize a line in canonical mark order."""
    if not line.words:
        raise EmptyLine("cannot render an empty line")
    return " ".join(map(_rendered.__getitem__, line.words))


def _canonical_marks(marks: list[str]) -> list[str]:
    """Order one letter's mark run canonically, dropping illegal extras.

    Shadda first, then the first vowel-class mark, then the silence mark.
    A silence mark co-occurring with audible marks is spurious and dropped.
    """
    shadda = SHADDA in marks
    silence = SILENCE in marks
    vowel = next((m for m in marks if m in VOWEL_CHAR_TO_KIND), None)
    if silence and (shadda or vowel is not None):
        silence = False
    out = []
    if shadda:
        out.append(SHADDA)
    if vowel is not None:
        out.append(vowel)
    if silence:
        out.append(SILENCE)
    return out


# The letters that take a tanwin-fath written on an alif after them.
_NOT_ALIF = ARABIC_LETTERS - {ALIF, ALIF_MAKSURA}

# Text that `fix_diacritic_order` returns as it is: letters, each with
# a shadda and one vowel-class mark at most, in that order, or with a
# silence mark alone, and plain spaces.  An alif with a tanwin-fath is
# left out, since the mark may belong on the letter before.  None of
# these letters composes with these marks, so NFC only reorders them,
# and the reorder puts them back.
_CANONICAL = re.compile(
    f"(?:[{''.join(sorted(_NOT_ALIF))}]"
    f"{SHADDA}?[{''.join(VOWEL_CHAR_TO_KIND)}]?"
    f"|[{ALIF}{ALIF_MAKSURA}]{SHADDA}?"
    f"[{''.join(VOWEL_CHAR_TO_KIND).replace(TANWIN_FATH, '')}]?"
    f"|[{''.join(sorted(ARABIC_LETTERS))}]{SILENCE}| )*")


def fix_diacritic_order(raw: str) -> str:
    """Rewrite text so marks sit in the canonical order.

    Shadda is moved before any vowel-class mark.  A tanwin-fath written
    after its orthographic alif is moved onto the letter before it,
    unless that is an alif, an alif maksura or a connective alif: it
    replaces a fatha there, a silence mark gives way to it, and beside
    any other vowel it is dropped.  Illegal double marks keep the first
    occurrence, a silence mark beside an audible mark is dropped, and
    tatweel plus combining marks outside the nine-mark inventory are
    stripped.
    """
    if _CANONICAL.fullmatch(raw):
        return raw
    return _reorder_marks(raw)


def _reorder_marks(raw: str) -> str:
    """`fix_diacritic_order` of any text."""
    # Each letter with the marks that follow it, and each whitespace
    # character with none.
    runs = []
    for ch in unicodedata.normalize("NFC", raw):
        if ch in MARKS:
            if not runs or runs[-1][0].isspace():
                raise LeadingDiacritic(f"mark {ch!r} before any letter")
            runs[-1][1].append(ch)
        elif ch in ARABIC_LETTERS or ch.isspace():
            runs.append((ch, []))
        elif ch != TATWEEL and not unicodedata.category(ch).startswith("M"):
            raise ForeignCharacter(f"disallowed code point {ch!r}")
    # A tanwin-fath on an orthographic alif belongs on the letter before
    # it, in place of a fatha or of no vowel, and is dropped beside any
    # other vowel; after an alif variant or the connective alif, which
    # can never host nunation, it stays.
    for (before, marks_before), (ch, marks) in zip(runs, runs[1:]):
        if ch in (ALIF, ALIF_MAKSURA) and TANWIN_FATH in marks \
                and before in _NOT_ALIF and before != WASL_ALIF:
            marks[:] = [m for m in marks if m != TANWIN_FATH]
            vowel = next((i for i, m in enumerate(marks_before)
                          if m in VOWEL_CHAR_TO_KIND), None)
            if vowel is None:
                marks_before.append(TANWIN_FATH)
            elif marks_before[vowel] == FATHA:
                marks_before[vowel] = TANWIN_FATH
    return "".join([ch + "".join(_canonical_marks(marks))
                    for ch, marks in runs])


def word_diacritization_ratio(word: Word) -> float:
    """Fraction of a word's letters that carry at least one mark.

    Silence-marked letters and wasl-alifs count as diacritized.
    """
    if not word:
        raise EmptyWord("ratio of an empty word")
    return sum([not g.bare for g in word]) / len(word)
