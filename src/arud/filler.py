"""Rhythm-constrained gap filling from a lexicon.

A non-neural oracle for the substitution task: search the lexicon for
word sequences whose in-context beat pattern equals a target.  Isolated
per-word patterns only prune the search; the decision procedure is
always a full rescan of left context + candidate phrase + right context,
because juncture effects (long-vowel restoration, connective alifs)
make naive beat concatenation unsound.

Both costs of the search are incremental where that is exact.  The
rescan reads the assembly with and without the optional plural-m
license, and the two readings share one pass over the rules before
isba (``scansion.scan_readings``).  Every grapheme of a transcription
gives one beat, so the phrase's beats are sliced from each reading's
beat string.  The pruning test's edit-distance row is carried down the
beat trie and from one phrase word to the next (``next_row``), so no
prefix's row is computed twice, and within one query the trie walk
below a prefix runs once per (isolated beats of the prefix, slack):
words that scan alike in isolation share it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ScriptError
from .scansion import scan, scan_readings
from .script import ScriptLine, Word, parse_line
from .tables import TableSet

log = logging.getLogger(__name__)

# Juncture effects change at most this many beats at a word boundary,
# so prefix pruning leaves this much slack per boundary.
JUNCTURE_SLACK = 2


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    word: Word
    isolated_beats: str


class BeatTrie:
    """Prefix tree over isolated beat patterns."""

    __slots__ = ("children", "entries")

    def __init__(self):
        self.children: dict = {}
        self.entries: list = []

    def insert(self, entry: LexiconEntry) -> None:
        node = self
        for ch in entry.isolated_beats:
            node = node.children.setdefault(ch, BeatTrie())
        node.entries.append(entry)


@dataclass
class Lexicon:
    trie: BeatTrie = field(default_factory=BeatTrie)
    size: int = 0

    def __len__(self) -> int:
        return self.size


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


def index_lexicon(words, tables: TableSet | None = None) -> Lexicon:
    """Scan each word in isolation and group by beat-pattern prefix.

    Duplicates collapse; unscannable words are logged and skipped.
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
            _, beats = scan(line, tables, sentence_initial=False)
        except (ScriptError, ValueError) as exc:
            log.warning("lexicon word %r skipped: %s", surface, exc)
            continue
        seen[surface] = LexiconEntry(surface=surface, word=line.words[0],
                                     isolated_beats=beats)
    lexicon = Lexicon()
    for entry in sorted(seen.values(), key=lambda e: e.surface):
        lexicon.trie.insert(entry)
        lexicon.size += 1
    return lexicon


def next_row(row: list, ch: str, target: str) -> list:
    """The edit-distance DP row after one more source character `ch`.

    `row` is the row of some source string against `target`; the result
    is the row of that string extended by `ch`.
    """
    left = row[0] + 1
    current = [left]
    for up, diagonal, cb in zip(row[1:], row, target):
        left = min(up + 1, left + 1, diagonal + (ch != cb))
        current.append(left)
    return current


def edit_row(a: str, b: str) -> list:
    """Last row of the unit-cost edit-distance DP of `a` against `b`.

    Entry j is the insert/delete/substitute distance from `a` to `b[:j]`.
    """
    row = list(range(len(b) + 1))
    for ca in a:
        row = next_row(row, ca, b)
    return row


def _prefix_compatible(partial: str, target: str, slack: int) -> bool:
    """Admissible check: partial must be within `slack` edits of some
    target prefix.

    Juncture effects insert or delete beats (isba adds one, connective
    alifs remove up to two), so the isolated concatenation can shift
    against the true in-context pattern; plain positional prefix
    matching would wrongly prune such phrases.
    """
    if len(partial) > len(target) + slack:
        return False
    return min(edit_row(partial, target)) <= slack


def _trie_candidates(trie: BeatTrie, row: list, target: str,
                     slack: int) -> list:
    """(entry, row) pairs whose isolated beats keep the prefix viable.

    `row` is the edit-distance row of the beats chosen so far; each
    returned row extends it by the entry's beats.  A node passes when
    `_prefix_compatible` passes its combined prefix, tested on a row
    carried down from the parent's.  Its length bound needs no test of
    its own: a prefix of length n is at least n - len(target) edits from
    every target prefix, so min(row) <= slack already implies it.
    """
    found = []

    def walk(node, row):
        if min(row) > slack:
            return
        found.extend((entry, row) for entry in node.entries)
        for ch in ("0", "1"):
            child = node.children.get(ch)
            if child is not None:
                walk(child, next_row(row, ch, target))

    walk(trie, row)
    return found


def phrase_beats_in_context(
    phrase_words,
    left_words,
    right_words,
    verse_final: bool,
    tables: TableSet | None = None,
) -> list:
    """Beat contribution of the phrase inside the full assembly, under
    each reading of ``scansion.scan_readings``.

    Empty when the assembly does not scan or the transformation loses
    word alignment.
    """
    words = tuple(left_words) + tuple(phrase_words) + tuple(right_words)
    line = ScriptLine(words=words, verse_final=verse_final)
    try:
        readings = scan_readings(line, tables, sentence_initial=True)
    except ScriptError:
        return []
    # The readings differ only inside words, so they keep or lose word
    # alignment together.
    if len(readings[0][0].words) != len(words):
        return []
    # Every grapheme of a transcription gives exactly one beat, so the
    # phrase's beats are the slice of the line's beats that its words'
    # graphemes span.
    lo = len(left_words)
    hi = lo + len(phrase_words)
    out = []
    for transcription, beats in readings:
        start = sum(map(len, transcription.words[:lo]))
        end = start + sum(map(len, transcription.words[lo:hi]))
        out.append(beats[start:end])
    return out


def matches_target(phrase_words, left_words, right_words, query: FillQuery,
                   tables: TableSet | None = None) -> bool:
    """Full-rescan decision: the phrase's in-context beats equal the
    target under the plain or the optional plural-m reading."""
    return query.target in phrase_beats_in_context(
        phrase_words, left_words, right_words,
        query.verse_final and not right_words, tables)


def fill(query: FillQuery, lexicon: Lexicon,
         tables: TableSet | None = None) -> list:
    """All lexicon phrases whose in-context pattern equals the target.

    Results are deduplicated and ordered lexicographically by surface;
    an unsatisfiable target yields an empty list.
    """
    left_words = parse_line(query.left_context).words \
        if query.left_context.strip() else ()
    right_words = parse_line(query.right_context).words \
        if query.right_context.strip() else ()

    results = set()
    # (isolated beats of the chosen words, slack) -> `_trie_candidates`,
    # which depends on nothing else: words that scan alike in isolation
    # share one walk of the trie below them.
    candidates = {}

    def descend(chosen, beats, row):
        if chosen:
            phrase = [e.word for e in chosen]
            if matches_target(phrase, left_words, right_words, query, tables):
                results.add(" ".join(e.surface for e in chosen))
        if len(chosen) >= query.max_words:
            return
        slack = JUNCTURE_SLACK * (len(chosen) + 1)
        found = candidates.get((beats, slack))
        if found is None:
            found = candidates[beats, slack] = _trie_candidates(
                lexicon.trie, row, query.target, slack)
        for entry, entry_row in found:
            descend(chosen + [entry], beats + entry.isolated_beats,
                    entry_row)

    descend([], "", edit_row("", query.target))
    return sorted(results)[:query.max_results]
