"""Rhythm-constrained gap filling from a lexicon.

A non-neural oracle for the substitution task: search the lexicon for
word sequences whose in-context beat pattern equals a target.  A phrase
is decided only by a full rescan of left context + phrase + right
context (``matches_target``) under the plain and the optional plural-m
reading (``scansion.reading_segments``), because juncture effects make
naive beat concatenation unsound.

The search prunes on exact beats.  Only the two boundary rules cross a
word boundary, each by one word: the connective alif changes the word
before it, and isba reads the next word's first letter.  So a word's
beats are final once what follows it is known, and a memoized scan of
the word and the next word or the line's end gives them, from up to two
words earlier when the word reads back (``scansion.reads_back``).  A
phrase grows only while, under one reading, its words' final beats are
a proper prefix of the target, and is rescanned only when its last
word's beats complete it; a window that does not scan or keep its words
prunes.  Lexicon words with one ``scansion.lead`` are alike as the next
word, so a phrase reads one window per such group, and a query visits
at most ``MAX_PHRASES`` phrases: homophones match exponentially often.

The lexicon holds the words that scan as a line of their own and keep
their beats there (``index_lexicon``), words that begin with a
connective alif included.
Every scan here reads its line as a sentence start, and as a verse end
when the query says so; only the last word of the line feels the verse
end, so a right context shields the phrase from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import ScriptError
from .scansion import lead, reading_segments, reads_back, scan, \
    word_offsets
from .script import Memo, ScriptLine, parse_line
from .tables import TableSet, default_tables

log = logging.getLogger(__name__)

# Phrases one query may visit, each at most one rescan (10 to 20 µs) and
# one memoized window per word group: 0.1 to 0.7 s when a search ends
# here, also when a sixth of the lexicon reads back, as article nouns do,
# though each such word reads windows of its own (0.3 to 0.45 s on 865
# words).
MAX_PHRASES = 20_000

# A word that begins with a connective alif (see `_final_beats`).
_WASL_WORD = parse_line("ٱسْمُ").words[0]
# What can follow the last word of a window in place of a word.
_LINE_END, _VERSE_END = "line end", "verse end"


@dataclass(frozen=True)
class Lexicon:
    entries: tuple = ()  # (surface, word) pairs in surface order

    def __len__(self) -> int:
        return len(self.entries)


def context_words(text: str) -> tuple:
    """The words of a context text: none for empty or blank text.

    `FillQuery` and `eval` both read contexts here, so `eval` scores
    `fill`'s answers in the context `fill` searched them in.  Raises
    `ScriptError` on text that does not parse.
    """
    return parse_line(text).words if text.strip() else ()


@dataclass(frozen=True)
class FillQuery:
    target: str
    left_context: str = ""
    right_context: str = ""
    max_words: int = 3
    max_results: int = 100
    verse_final: bool = False

    def __post_init__(self):
        if not self.target or set(self.target) - {"0", "1"}:
            raise ValueError("target must be a non-empty string over {0,1}")
        if self.max_words < 1 or self.max_results < 1:
            raise ValueError("limits must be positive")
        # Parsed once, here: a context that does not parse is an error.
        for side in ("left", "right"):
            try:
                words = context_words(getattr(self, f"{side}_context"))
            except ScriptError as exc:
                raise ValueError(f"{side} context does not parse: "
                                 f"{type(exc).__name__}: {exc}") from None
            object.__setattr__(self, f"{side}_words", words)


def index_lexicon(words, tables: TableSet | None = None) -> Lexicon:
    """The distinct single words of `words` that scan as a line alone.

    Each word is scanned where a line starts, so a word that begins with
    a connective alif, such as an article noun, is kept: the alif reads
    as a glottal stop there, and in a phrase the full rescan reads it in
    its place.  Duplicates collapse; words that do not scan, or that the
    scan drops (``scansion.word_offsets``), such as a silent-only word,
    are logged and skipped: no phrase holding one keeps its words.
    """
    seen = {}
    for surface in words:
        surface = surface.strip()
        if not surface or surface in seen:
            continue
        try:
            line = parse_line(surface)
            if len(line.words) != 1:
                raise ValueError("lexicon entries must be single words")
            word_offsets(line.words, scan(line, tables)[0])
        except (ScriptError, ValueError) as exc:
            log.warning("lexicon word %r skipped: %s", surface, exc)
            continue
        seen[surface] = line.words[0]
    return Lexicon(tuple(sorted(seen.items())))


def _readings(words: tuple, verse_final: bool,
              tables: TableSet | None) -> list:
    """Per reading of the line `words`, each word's beat segment
    (``scansion.reading_segments``); [] when the line does not scan or
    keep its words."""
    try:
        return reading_segments(ScriptLine(words), tables,
                                verse_final=verse_final)
    except ScriptError:
        return []


def phrase_beats_in_context(phrase_words, left_words, right_words,
                            verse_final: bool,
                            tables: TableSet | None = None) -> list:
    """Beat contribution of the phrase inside the full assembly, under
    each reading of ``scansion.scan_readings``: the beat segments of the
    phrase's words, joined.

    Empty when the assembly does not scan or the transformation loses
    word alignment.
    """
    words = tuple(left_words) + tuple(phrase_words) + tuple(right_words)
    lo, hi = len(left_words), len(left_words) + len(phrase_words)
    return ["".join(segments[lo:hi])
            for segments in _readings(words, verse_final, tables)]


def matches_target(phrase_words, left_words, right_words, query: FillQuery,
                   tables: TableSet | None = None) -> bool:
    """Full-rescan decision: the phrase's in-context beats equal the
    target under the plain or the optional plural-m reading."""
    return query.target in phrase_beats_in_context(
        phrase_words, left_words, right_words, query.verse_final, tables)


def _final_beats(window: tuple, tables: TableSet | None) -> tuple:
    """(plain, licensed): the beats ``window[-2]`` can have, per reading,
    in a line where ``window[:-2]`` precede it and ``window[-1]``, a word
    or ``_LINE_END`` or ``_VERSE_END``, follows it.

    Each is the word's beat segment in a scan of the window, and also in
    one with a connective alif after it when the next word may take a
    vowel from one.
    """
    at = len(window) - 2
    line_end = window[-1] in (_LINE_END, _VERSE_END)
    scans = [_readings(window[:-1] if line_end else window,
                       window[-1] == _VERSE_END, tables)]
    # The next word is one unvocalized letter: a connective alif after it
    # would vocalize it, which isba on window[-2] reads.
    if scans[0] and not line_end and scans[0][0][at + 1] == "0":
        scans.append(_readings(window + (_WASL_WORD,), False, tables))
    plain, licensed = set(), set()
    for readings in filter(None, scans):
        plain.add(readings[0][at])
        licensed.add(readings[-1][at])
    return tuple(plain), tuple(licensed)


# Window -> `_final_beats` of it, computed with the tables `fill` sets.
# Each window holds four words' references and two short beat strings,
# so a full memo of `script.MEMO_SIZE` windows stays well under a megabyte.
_windows = Memo(_final_beats, None)


def fill(query: FillQuery, lexicon: Lexicon,
         tables: TableSet | None = None) -> list:
    """All lexicon phrases whose in-context pattern equals the target.

    Results are deduplicated and ordered lexicographically by surface;
    an unsatisfiable target yields an empty list.  A search that reaches
    ``MAX_PHRASES`` logs a warning and returns the phrases found so far.
    """
    _windows.use(tables or default_tables())
    left, right, target = query.left_words, query.right_words, query.target
    groups = {}
    for surface, word in lexicon.entries:
        groups.setdefault(lead(word, tables), []).append((surface, word))
    # What may follow a word: a group's words, which its first word
    # stands for, or what follows the phrase.
    nexts = [members[0][1] for members in groups.values()] + [
        right[0] if right else _VERSE_END if query.verse_final
        else _LINE_END]

    def final_beats(before, word):
        # `word`'s final beats per reading, with each of `nexts` after it.
        return [_windows[before + (word, after)] for after in nexts]

    # A word that does not read back has its final beats wherever it
    # stands.  Such words are bucketed by them, and one test of every beat
    # string a bucket's words can have, per reading, admits or skips them
    # all; the words that read back form a bucket that is always admitted.
    buckets = []
    for members in groups.values():
        kinds = {}
        for surface, word in members:
            kinds.setdefault(None if reads_back(word, tables) else tuple(
                final_beats((), word)), []).append((surface, word))
        buckets.append([(final, final and [
            {s for found in final for s in found[i]} for i in (0, 1)],
            members) for final, members in kinds.items()])

    def advance(ends, found):
        # Per reading, where a target prefix ending at one of `ends` ends
        # once one of `found` extends it.
        return tuple({end + len(s) for end in at for s in segments
                      if target.startswith(s, end)}
                     for at, segments in zip(ends, found))

    def longer(phrase, surfaces, ends, final):
        # The phrases one word longer than `phrase`, whose words but the
        # last end at `ends` and whose last word's beats are `final`.
        for kinds, found in zip(buckets, final):
            now = advance(ends, found)
            if not any(now):
                continue
            for word_final, spans, members in kinds:
                if spans is None or any(target.startswith(s, end)
                                        for at, beats in zip(now, spans)
                                        for end in at for s in beats):
                    for surface, word in members:
                        yield (phrase + (word,), surfaces + (surface,), now,
                               word_final)

    # Depth first, each phrase before the longer ones that begin with it.
    # Every phrase is visited once, and no surface holds whitespace, so
    # no two phrases join to one result.  Before the first word the
    # phrase is empty and ends at 0.
    results = []
    visits = 0
    stack = [*longer((), (), ({0}, {0}),
                     [(("",), ("",))] * len(buckets))][::-1]
    while stack:
        visits += 1
        if visits > MAX_PHRASES:
            log.warning("search stopped after %d phrases; results may be "
                        "incomplete", MAX_PHRASES)
            break
        phrase, surfaces, ends, final = stack.pop()
        final = final or final_beats((left + phrase[:-1])[-2:], phrase[-1])
        if any(len(target) in at for at in advance(ends, final[-1])) \
                and matches_target(phrase, left, right, query, tables):
            results.append(" ".join(surfaces))
        if len(phrase) < query.max_words:
            stack += [*longer(phrase, surfaces, ends, final)][::-1]
    return sorted(results)[:query.max_results]
