"""Structural model of diacritized Arabic text.

A line is an ordered list of words; a word is an ordered list of graphemes.
Each grapheme is one base letter plus its attached marks.  Parsing and
rendering round-trip exactly, and rendering always emits marks in the
canonical order: base letter, shadda, vowel-class mark, silence mark.

Parsing and the scansion rules build graphemes through
``shared_grapheme``, which keeps one validated instance per distinct
value; those instances are shared process-wide and must never be mutated.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class Grapheme:
    """One base letter plus its attached marks."""

    base: str
    vowel: str | None = None
    shadda: bool = False
    silent: bool = False
    is_wasl: bool = False

    # Rendered text, set once on shared instances (see shared_grapheme).
    # Not a field, so repr, == and hash keep to the five values above.
    _text = None

    def __post_init__(self):
        if self.base not in ARABIC_LETTERS:
            raise ForeignCharacter(f"not an Arabic letter: {self.base!r}")
        if self.vowel is not None and self.vowel not in VOWEL_KIND_TO_CHAR:
            raise ValueError(f"unknown vowel kind: {self.vowel!r}")
        if self.silent and (self.vowel is not None or self.shadda):
            raise DoubleDiacritic("silent letter cannot carry other marks")
        if self.is_wasl and self.base != WASL_ALIF:
            raise ValueError("is_wasl requires the wasl-alif base letter")
        if self.is_wasl and self.shadda:
            raise DoubleDiacritic("wasl-alif cannot be geminated")

    @property
    def vocalized(self) -> bool:
        """True when the letter bears one of the three short vowels."""
        return self.vowel in SHORT_VOWELS

    @property
    def unvocalized(self) -> bool:
        """True for sukun-bearing or mark-less non-silent letters."""
        return not self.silent and (self.vowel is None or self.vowel == "sukun")

    def with_vowel(self, vowel: str | None) -> "Grapheme":
        return shared_grapheme(self.base, vowel, self.shadda, self.silent,
                               self.is_wasl)


# Distinct grapheme values -> their one shared, validated instance.  The
# key space is letters x mark combinations, so it stays at a few hundred
# entries.
_SHARED: dict[tuple, Grapheme] = {}


def shared_grapheme(base: str, vowel: str | None = None, shadda: bool = False,
                    silent: bool = False, is_wasl: bool = False) -> Grapheme:
    """The shared Grapheme for these values, validated on first use only.

    The result equals ``Grapheme(base, vowel, shadda, silent, is_wasl)``
    and raises the same errors.  It is shared by every caller, so it must
    never be mutated.
    """
    key = (base, vowel, shadda, silent, is_wasl)
    g = _SHARED.get(key)
    if g is None:
        g = Grapheme(base, vowel, shadda, silent, is_wasl)
        object.__setattr__(g, "_text", _render_marks(g))
        _SHARED[key] = g
    return g


Word = tuple[Grapheme, ...]


@dataclass(frozen=True)
class ScriptLine:
    """A parsed line of words, with its verse-position flag."""

    words: tuple[Word, ...]
    verse_final: bool = False

    def graphemes(self):
        for word in self.words:
            yield from word

    def word_count(self) -> int:
        return len(self.words)


def parse_line(raw: str, verse_final: bool = False) -> ScriptLine:
    """Parse composed-form text into a ScriptLine.

    Whitespace runs delimit words.  Any code point outside the Arabic
    letters, the nine marks and whitespace is rejected.
    """
    text = unicodedata.normalize("NFC", raw)
    if not text.strip():
        raise EmptyLine("no words in line")
    return ScriptLine(words=tuple(map(_parse_word, text.split())),
                      verse_final=verse_final)


# Verse vocabulary repeats words: on perfbench input this memo serves
# about 60% of word lookups in `scan` and `prepare` runs and 76% in
# `infill` runs, and makes `scan` about 7% faster than parsing every word.
# The size is fixed, so the memo's memory is too.
WORD_MEMO_SIZE = 256


@lru_cache(maxsize=WORD_MEMO_SIZE)
def _parse_word(chunk: str) -> Word:
    """Graphemes of one whitespace-free chunk."""
    graphemes: list[Grapheme] = []
    base = None
    for ch in chunk:
        if ch in ARABIC_LETTERS:
            if base is not None:
                graphemes.append(shared_grapheme(
                    base, vowel, shadda, silent, base == WASL_ALIF))
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
    graphemes.append(shared_grapheme(
        base, vowel, shadda, silent, base == WASL_ALIF))
    return tuple(graphemes)


def render_grapheme(g: Grapheme) -> str:
    return g._text or _render_marks(g)


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
    return "".join(map(render_grapheme, word))


def render_line(line: ScriptLine) -> str:
    """Serialize a line in canonical mark order."""
    if not line.words:
        raise EmptyLine("cannot render an empty line")
    return " ".join(render_word(word) for word in line.words)


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


def fix_diacritic_order(raw: str) -> str:
    """Rewrite text so marks sit in the canonical order.

    Shadda is moved before any vowel-class mark, a tanwin-fath written
    after its orthographic alif is moved before it, illegal double marks
    keep the first occurrence, and tatweel plus combining marks outside
    the nine-mark inventory are stripped.
    """
    text = unicodedata.normalize("NFC", raw)
    kept = []
    for ch in text:
        if ch == TATWEEL:
            continue
        if ch not in MARKS and unicodedata.category(ch).startswith("M"):
            continue
        kept.append(ch)

    # Group each letter with its following mark run; pass through
    # everything else (whitespace, foreign characters) untouched.
    out: list[str] = []
    i = 0
    n = len(kept)
    last_letter_idx: int | None = None  # index in `out` of previous letter
    while i < n:
        ch = kept[i]
        if ch in ARABIC_LETTERS:
            j = i + 1
            marks = []
            while j < n and kept[j] in MARKS:
                marks.append(kept[j])
                j += 1
            # A tanwin-fath attached to a bare orthographic alif belongs
            # on the preceding letter — unless that letter is itself an
            # alif variant, which can never host nunation.
            if (ch in (ALIF, ALIF_MAKSURA) and TANWIN_FATH in marks
                    and last_letter_idx is not None
                    and out[last_letter_idx] not in (ALIF, ALIF_MAKSURA)):
                marks = [m for m in marks if m != TANWIN_FATH]
                prev_run = _canonical_marks_at(out, last_letter_idx)
                if not any(m in VOWEL_CHAR_TO_KIND for m in prev_run):
                    out.insert(last_letter_idx + 1 + len(prev_run), TANWIN_FATH)
                elif FATHA in prev_run:
                    idx = out.index(FATHA, last_letter_idx)
                    out[idx] = TANWIN_FATH
                # any other vowel on the previous letter: the tanwin is
                # illegal there, drop it
            last_letter_idx = len(out)
            out.append(ch)
            out.extend(_canonical_marks(marks))
            i = j
        elif ch in MARKS:
            raise LeadingDiacritic(f"mark {ch!r} before any letter")
        elif ch.isspace():
            last_letter_idx = None
            out.append(ch)
            i += 1
        else:
            raise ForeignCharacter(f"disallowed code point {ch!r}")
    return "".join(out)


def _canonical_marks_at(out: list[str], letter_idx: int) -> list[str]:
    run = []
    j = letter_idx + 1
    while j < len(out) and out[j] in MARKS:
        run.append(out[j])
        j += 1
    return run


def word_diacritization_ratio(word: Word) -> float:
    """Fraction of a word's letters that carry at least one mark.

    Silence-marked letters and wasl-alifs count as diacritized.
    """
    if not word:
        raise EmptyWord("ratio of an empty word")
    marked = sum(
        1 for g in word
        if g.vowel is not None or g.shadda or g.silent or g.is_wasl
    )
    return marked / len(word)
