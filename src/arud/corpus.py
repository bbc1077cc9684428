"""Corpus preparation: cleaning, filtering and full-diacritization.

Turns raw, inconsistently diacritized lines into scan-ready lines.
Stage order matters: `accept_line` cleans and parses a line, completes
the words it finds in the known-words table and then applies the
acceptance filter; the normalization heuristics (connective-alif
guessing, silent letter marking, default sukun) then complete the
diacritization, and a verification scan rejects anything the
transformation cannot handle, a line whose scan drops a word included
(``scansion.word_offsets``), since `mask` needs every word's beats.
`normalize_lines` streams a corpus through these stages for
`run_pipeline` and ``arud normalize``; ``arud filter`` reports
`accept_line`'s reason.

Every stage but the filter and the verification scan acts on one word
at a time, and verse repeats its words.  So each whitespace-free raw
chunk goes through cleaning, parsing, the known words and the
heuristics once, on a one-word line, and its record is kept in one
``script.Memo``: the word after the known words, the finished word and
its text.  Raw text writes one word in many partly diacritized
spellings, so that memo holds 8,192 records, twice `MEMO_SIZE`, in each
process (a ``--jobs`` worker holds its own); and a record's parse does
not go through `parse_line`'s memo, which the record would only fill
with spellings met once.  `accept_line` filters the line of known-words
forms, and `process_line` scans the line of finished words and joins
their texts.  The memo empties when the stage flags or the tables'
values change.
"""

from __future__ import annotations

import functools
import operator
import unicodedata
from dataclasses import dataclass, field

from .errors import DanglingWasl, EmptyHemistich, ScanError, ScriptError, \
    UnderDiacritized
from . import scansion
from .scansion import assign_default_sukun
from .script import (
    ALIF,
    ARABIC_LETTERS,
    LAM,
    MARKS,
    MEMO_SIZE,
    TATWEEL,
    VOWEL_CHAR_TO_KIND,
    WASL_ALIF,
    WAW,
    Grapheme,
    Memo,
    ScriptLine,
    _parse_word,
    fix_diacritic_order,
    parse_line,
    render_word,
    word_diacritization_ratio,
)
from .tables import SilentWordTable, TableSet, WordTable, default_tables

REASON_OK = "ok"
REASON_TOO_FEW_WORDS = "too_few_words"
REASON_WORD_UNDIACRITIZED = "word_undiacritized"
REASON_BELOW_LETTER_RATIO = "below_letter_ratio"
REASON_FOREIGN_RESIDUE = "foreign_residue"
FILTER_REASONS = (
    REASON_TOO_FEW_WORDS,
    REASON_WORD_UNDIACRITIZED,
    REASON_BELOW_LETTER_RATIO,
    REASON_FOREIGN_RESIDUE,
    REASON_OK,
)


@dataclass(frozen=True)
class FilterDecision:
    reason: str

    def __post_init__(self):
        if self.reason not in FILTER_REASONS:
            raise ValueError(f"unknown reason {self.reason!r}")

    @property
    def accepted(self) -> bool:
        return self.reason == REASON_OK


MARK_KINDS = (*VOWEL_CHAR_TO_KIND.values(), "shadda", "silence")


@dataclass
class DiacriticStats:
    """Per-mark counts over a stream of parsed lines."""

    counts: dict = field(default_factory=lambda: {k: 0 for k in MARK_KINDS})
    total_letters: int = 0
    wasl_letters: int = 0
    lines: int = 0

    @property
    def total_diacritics(self) -> int:
        return sum(self.counts.values())

    def add_line(self, line: ScriptLine) -> None:
        self.lines += 1
        for g in line.graphemes():
            self.total_letters += 1
            if g.vowel is not None:
                self.counts[g.vowel] += 1
            if g.shadda:
                self.counts["shadda"] += 1
            if g.silent:
                self.counts["silence"] += 1
            if g.is_wasl:
                self.wasl_letters += 1

    def render_report(self) -> str:
        out = [f"lines: {self.lines}"]
        for kind in MARK_KINDS:
            out.append(f"{kind}: {self.counts[kind]}")
        out.append(f"wasl_letters: {self.wasl_letters}")
        out.append(f"total_diacritics: {self.total_diacritics}")
        out.append(f"total_letters: {self.total_letters}")
        return "\n".join(out)


def compute_stats(lines) -> DiacriticStats:
    stats = DiacriticStats()
    for line in lines:
        stats.add_line(line)
    return stats


def join_hemistichs(first: str, second: str) -> str:
    first, second = first.strip(), second.strip()
    if not first or not second:
        raise EmptyHemistich("both verse halves must be non-empty")
    return f"{first} {second}"


def _clean_chunk(chunk: str) -> str:
    """`clean_line` of one NFC chunk that holds no whitespace."""
    kept: list[str] = []
    host_kept = False  # whether the preceding base character survived
    for ch in chunk:
        if ch in ARABIC_LETTERS:
            kept.append(ch)
            host_kept = True
        elif ch in MARKS:
            if host_kept:
                kept.append(ch)
        elif ch == TATWEEL or unicodedata.category(ch).startswith("M"):
            # tatweel and out-of-inventory combining marks vanish without
            # cutting the letter/mark linkage
            continue
        else:
            host_kept = False
    if not kept:
        return ""
    return fix_diacritic_order("".join(kept))


def clean_line(raw: str) -> str:
    """Keep Arabic letters, the nine marks and whitespace only.

    Marks whose host character was removed go with it; whitespace runs
    collapse to single spaces and mark order is canonicalized.  Cleaning
    state resets at whitespace, so each chunk cleans on its own.
    """
    return " ".join(filter(None, map(
        _clean_chunk, unicodedata.normalize("NFC", raw).split())))


@dataclass
class PipelineConfig:
    min_words: int = 4
    min_ratio: float = 0.5
    known_words: bool = True
    lam_kasra: bool = True
    wasl_heuristic: bool = True
    silent_marking: bool = True
    sukun_defaults: bool = True


# The fields of `PipelineConfig` that switch a word-local stage on or off.
STAGE_FLAGS = ("known_words", "lam_kasra", "wasl_heuristic",
               "silent_marking", "sukun_defaults")
_stage_flags = operator.attrgetter(*STAGE_FLAGS)


def filter_line(line: ScriptLine, min_words: int = PipelineConfig.min_words,
                min_ratio: float = PipelineConfig.min_ratio
                ) -> FilterDecision:
    """Acceptance rules: enough words, every word sufficiently marked."""
    if line.word_count() < min_words:
        return FilterDecision(REASON_TOO_FEW_WORDS)
    for word in line.words:
        ratio = word_diacritization_ratio(word)
        if ratio == 0.0:
            return FilterDecision(REASON_WORD_UNDIACRITIZED)
        if ratio < min_ratio:
            return FilterDecision(REASON_BELOW_LETTER_RATIO)
    return FilterDecision(REASON_OK)


@scansion._per_grapheme
def _guess_wasl(word, i):
    # Each test reads the letters before the alif, which a guess leaves
    # unvocalized, and the letters after it, not yet guessed, so the
    # input word serves them all.  A word-final alif is never one.
    g = word[i]
    if g.base != ALIF or not g.bare or i == len(word) - 1 \
            or (i and not word[i - 1].vocalized):
        return None
    nxt = word[i + 1]
    if nxt.vowel == "sukun" or nxt.shadda or (
            nxt.base == LAM and i + 2 < len(word) and word[i + 2].shadda):
        return (Grapheme(WASL_ALIF, is_wasl=True),)
    return None


def apply_wasl_heuristic(line: ScriptLine) -> ScriptLine:
    """Guess connective alifs on bare alifs in telltale positions.

    A bare alif that starts the line or a word, or follows a vocalized
    letter, and that precedes an explicitly sukun-marked or geminated
    letter, is most likely connective.  The alif of a definite article
    qualifies when its lam is sukun-marked or the letter after the lam
    is geminated.
    """
    return scansion._rewrite_words(line, _guess_wasl)


def mark_silent_letters(line: ScriptLine,
                        table: SilentWordTable | None = None) -> ScriptLine:
    """Mark the known silent letters with the silence diacritic.

    Covers the masculine-plural waw+alif ending and the table of words
    with a lexically silent letter.
    """
    if table is None:
        table = default_tables().silent

    def mark(word):
        out = None
        idx = table.silent_index(word)
        if idx is not None and 0 <= idx < len(word) and word[idx].bare:
            out = list(word)
            out[idx] = Grapheme(word[idx].base, silent=True)
        # A final alif the table marked is marked here the same way.
        if (len(word) >= 3 and word[-1].base == ALIF and word[-1].bare
                and word[-2].base == WAW):
            if out is None:
                out = list(word)
            out[-1] = Grapheme(ALIF, silent=True)
        return out
    return scansion._rewrite_words(line, mark)


def apply_lam_kasra(line: ScriptLine) -> ScriptLine:
    """Give a bare word-initial clitic lam its kasra.

    Provisional reading of an ambiguous source rule; toggleable in the
    pipeline config.
    """
    def kasra(word):
        if len(word) >= 3 and word[0].base == LAM and word[0].bare:
            return (word[0].with_vowel("kasra"),) + word[1:]
        return None
    return scansion._rewrite_words(line, kasra)


def diacritize_known_words(line: ScriptLine,
                           table: WordTable | None = None) -> ScriptLine:
    """Replace bare/partial words that match an unambiguous-word entry."""
    if table is None:
        table = default_tables().known
    return scansion.apply_special_words(line, table)


# What `_record` returns for a chunk that cleans to nothing (it is
# dropped), and for one that does not parse (the line is foreign
# residue).
_DROPPED = "dropped"
_FOREIGN = "foreign"

def _record(chunk: str, flags: tuple, tables: TableSet):
    """One raw chunk through every word-local stage, on a one-word line;
    `flags` are the `STAGE_FLAGS` values.

    Returns (the word after known words, the finished word, its text),
    or `_DROPPED` or `_FOREIGN`.
    """
    known_words, lam_kasra, wasl_heuristic, silent_marking, \
        sukun_defaults = flags
    cleaned = clean_line(chunk)
    if not cleaned:
        return _DROPPED
    try:
        # Parsed outside `parse_line`'s memo: this record keeps the
        # result, and a raw spelling's cleaned text is mostly met once.
        line = ScriptLine((_parse_word(cleaned),))
    except ScriptError:
        return _FOREIGN
    if known_words:
        line = diacritize_known_words(line, tables.known)
    known = line.words[0]
    if lam_kasra:
        line = apply_lam_kasra(line)
    if wasl_heuristic:
        line = apply_wasl_heuristic(line)
    if silent_marking:
        line = mark_silent_letters(line, tables.silent)
    if sukun_defaults:
        line = assign_default_sukun(line)
    finished = line.words[0]
    text = render_word(finished)
    # A chunk already in its finished form is its own text, so the memo
    # keeps one string.
    return known, finished, chunk if text == chunk else text


# NFC whitespace-free raw chunk -> `_record` of it.  Every stage after
# cleaning acts on one word at a time, and verse repeats its words.
# `_accept` sets what a record depends on besides its chunk: the
# `STAGE_FLAGS` values and the tables.
_words = Memo(_record, None, None)
# Raw text writes one word in many spellings (marks partly dropped,
# tatweel, a plain connective alif), so the memo holds twice the words
# of the other memos.  On perfbench `prepare` (seed 79, operations
# 50-200) this cut its misses from 243 to 132 per 192-line operation,
# and `peak_rss_mb` rose from 30.6 to 32.3 MB; four times the words
# gave 35.3-35.7 MB, past that metric's 10% bound.
_words.size = 2 * MEMO_SIZE


def _accept(raw: str, cfg: PipelineConfig, tables: TableSet):
    """`accept_line`, with the records of the accepted line's words:
    (line or None, records or None, reason)."""
    _words.use(_stage_flags(cfg), tables)
    records = []
    for record in map(_words.__getitem__,
                      unicodedata.normalize("NFC", raw).split()):
        if record is _FOREIGN:
            return None, None, REASON_FOREIGN_RESIDUE
        if record is not _DROPPED:
            records.append(record)
    if not records:
        return None, None, REASON_FOREIGN_RESIDUE
    line = ScriptLine(tuple([known for known, _, _ in records]))
    decision = filter_line(line, cfg.min_words, cfg.min_ratio)
    if not decision.accepted:
        return None, None, decision.reason
    return line, records, REASON_OK


def accept_line(raw: str, cfg: PipelineConfig, tables: TableSet):
    """The acceptance decision on one raw line.

    Cleans and parses `raw`, completes its known words and applies
    `filter_line`.  Returns (line, "ok") on acceptance or (None, reason)
    on rejection; text that does not parse is foreign residue.
    """
    line, _, reason = _accept(raw, cfg, tables)
    return line, reason


def process_line(raw: str, cfg: PipelineConfig | None = None,
                 tables: TableSet | None = None):
    """Run one raw line through the full pipeline.

    Returns (normalized_text, "ok") on acceptance or (None, reason) on
    rejection; per-line failures never raise.  The verification scan
    also requires every word to keep its beats: a line whose scan drops
    a word, such as a silent-only word or a lone connective alif after a
    vowel, is rejected as "scan_error".
    """
    if cfg is None:
        cfg = PipelineConfig()
    if tables is None:
        tables = default_tables()
    line, records, reason = _accept(raw, cfg, tables)
    if line is None:
        return None, reason
    finished = ScriptLine(tuple([word for _, word, _ in records]))
    try:
        scansion.word_offsets(finished.words, scansion.scan(
            finished, tables, sentence_initial=True)[0])
    except UnderDiacritized:
        return None, "under_diacritized"
    except DanglingWasl:
        return None, "dangling_wasl"
    except ScanError:
        return None, "scan_error"
    return " ".join([text for _, _, text in records]), REASON_OK


def normalize_lines(lines, cfg: PipelineConfig | None,
                    tables: TableSet | None, stats: DiacriticStats | None,
                    map=map):
    """Stream raw lines through `process_line`.

    Yields (1-based line number, normalized text or None, reason) per
    line, in order, and adds each accepted line to `stats` unless it is
    None.  `map` applies the per-line work; an order-preserving parallel
    map spreads it across processes.
    """
    work = functools.partial(process_line, cfg=cfg, tables=tables)
    for lineno, (text, reason) in enumerate(map(work, lines), start=1):
        if text is not None and stats is not None:
            stats.add_line(parse_line(text))
        yield lineno, text, reason


@dataclass
class PipelineResult:
    accepted: list
    stats: DiacriticStats
    rejections: list  # (1-based line number, reason)


def run_pipeline(lines, cfg: PipelineConfig | None = None,
                 tables: TableSet | None = None) -> PipelineResult:
    """`normalize_lines` collected, with stats on the accepted output."""
    result = PipelineResult(accepted=[], stats=DiacriticStats(),
                            rejections=[])
    for lineno, text, reason in normalize_lines(lines, cfg, tables,
                                                result.stats):
        if text is None:
            result.rejections.append((lineno, reason))
        else:
            result.accepted.append(text)
    return result
