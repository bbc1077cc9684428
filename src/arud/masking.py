"""Substitution-task training example generation.

Samples a contiguous word span, embeds the span's in-context beat
pattern between markers, reduces the context diacritics to mimic
real-world partially diacritized text, and emits (input, target)
records.  Output is a pure function of (corpus, config): each of a
line's `per_line` examples draws from its own random stream, keyed by
the seed, the 0-based line index and the repeat, and a line gives all
its examples or none (`line_examples`).
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
from dataclasses import dataclass

from .errors import LineTooShort, ScanError, ScriptError
from .scansion import beat_segments, scan
from .script import ALIF, ARABIC_LETTERS, MARKS, Grapheme, ScriptLine, \
    parse_line, render_word
from .tables import TableSet

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def _check_marker(marker: str) -> None:
    if not marker:
        raise ValueError("markers must be non-empty")
    if any(ch in ARABIC_LETTERS or ch in MARKS for ch in marker):
        raise ValueError(f"marker {marker!r} contains Arabic characters")


# Most examples one line may ask for: a line's examples are built in
# memory before any is written, so `per_line` must stay bounded.
MAX_PER_LINE = 1000


@dataclass(frozen=True)
class MaskConfig:
    span_p: float = 0.2
    keep_p: float = 0.2
    sukun_drop: float = 0.5
    markers: tuple = ("[E0]", "[E1]", "[E2]")
    seed: int = 0
    per_line: int = 1
    reduce_context: bool = True

    def __post_init__(self):
        for name in ("span_p", "keep_p", "sukun_drop"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {p}")
        if len(self.markers) != 3 or len(set(self.markers)) != 3:
            raise ValueError("three pairwise distinct markers required")
        for marker in self.markers:
            _check_marker(marker)
        if not 1 <= self.per_line <= MAX_PER_LINE:
            raise ValueError(f"per_line must lie in [1, {MAX_PER_LINE}], "
                             f"got {self.per_line}")


@dataclass(frozen=True)
class MaskedExample:
    input: str
    target: str
    beats: str
    span: tuple  # (start word index, length)

    def to_json(self) -> str:
        return json.dumps(
            {"v": SCHEMA_VERSION, "input": self.input, "target": self.target,
             "beats": self.beats, "span": list(self.span)},
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "MaskedExample":
        obj = json.loads(text)
        return cls(input=obj["input"], target=obj["target"],
                   beats=obj["beats"], span=tuple(obj["span"]))


def geometric(rng: random.Random, p: float) -> int:
    """Geometric draw on support {0, 1, 2, ...} with success probability p."""
    u = rng.random()
    if u >= 1.0 - 1e-15:
        return 0
    # A tiny p can push the draw past the float range; callers clamp it.
    return int(min(math.log1p(-u) / math.log1p(-p), sys.maxsize))


def _require_two_words(line: ScriptLine) -> None:
    if line.word_count() < 2:
        raise LineTooShort("need at least two words to mask a span")


def sample_mask_span(line: ScriptLine, cfg: MaskConfig,
                     rng: random.Random) -> tuple:
    """Contiguous span: geometric length clamped so context survives."""
    _require_two_words(line)
    n = line.word_count()
    length = min(1 + geometric(rng, cfg.span_p), n - 1)
    start = rng.randrange(0, n - length + 1)
    return start, length


def reduce_context_diacritics(context: ScriptLine, cfg: MaskConfig,
                              rng: random.Random) -> ScriptLine:
    """Thin out context marks to mimic typical diacritization habits.

    Silence marks always go (the letter stays), connective alifs become
    plain alifs, each sukun independently survives with probability
    1 - sukun_drop, and each word keeps a geometric number of its other
    marks (shadda included), chosen uniformly.
    """
    words = []
    for word in context.words:
        letters = []
        for g in word:
            if g.silent:
                g = Grapheme(g.base)
            if g.is_wasl:
                g = Grapheme(ALIF)
            if g.vowel == "sukun" and rng.random() < cfg.sukun_drop:
                g = g.with_vowel(None)
            letters.append(g)
        # pool of non-sukun marks in this word: (index, kind) slots
        slots = []
        for i, g in enumerate(letters):
            if g.vowel is not None and g.vowel != "sukun":
                slots.append((i, "vowel"))
            if g.shadda:
                slots.append((i, "shadda"))
        keep = min(geometric(rng, cfg.keep_p), len(slots))
        kept = set(rng.sample(range(len(slots)), keep)) if slots else set()
        for si, (i, kind) in enumerate(slots):
            if si in kept:
                continue
            g = letters[i]
            if kind == "vowel":
                letters[i] = g.with_vowel(None)
            else:
                letters[i] = Grapheme(g.base, vowel=g.vowel, silent=g.silent,
                                      is_wasl=g.is_wasl)
        words.append(tuple(letters))
    return ScriptLine(tuple(words), context.verse_final)


def _line_segments(line: ScriptLine, tables: TableSet | None) -> list[str]:
    """Per-word beat segments of a scan-ready line, one per input word.

    Raises ScanError when the scan drops or merges a word, since a span
    of input words then has no beats of its own.
    """
    scansion_line, _ = scan(line, tables, sentence_initial=True)
    if len(scansion_line.words) != len(line.words):
        raise ScanError("word alignment lost during transformation")
    return beat_segments(scansion_line)


def build_training_example(
    line: ScriptLine,
    cfg: MaskConfig,
    rng: random.Random,
    tables: TableSet | None = None,
    segments: list[str] | None = None,
) -> MaskedExample:
    """One (input, target) record for a scan-ready line.

    `segments` are the line's `_line_segments`; when absent, the line is
    scanned here.
    """
    start, length = sample_mask_span(line, cfg, rng)
    if segments is None:
        segments = _line_segments(line, tables)
    beats = "".join(segments[start:start + length])
    target = " ".join(render_word(w) for w in line.words[start:start + length])

    left_words = line.words[:start]
    right_words = line.words[start + length:]
    if cfg.reduce_context:
        if left_words:
            left_words = reduce_context_diacritics(
                ScriptLine(left_words), cfg, rng).words
        if right_words:
            right_words = reduce_context_diacritics(
                ScriptLine(right_words), cfg, rng).words
    e0, e1, e2 = cfg.markers
    parts = []
    if left_words:
        parts.append(" ".join(render_word(w) for w in left_words))
        parts.append(" ")
    parts.append(e0)
    parts.append(beats)
    parts.append(e1)
    if right_words:
        parts.append(" ")
        parts.append(" ".join(render_word(w) for w in right_words))
    parts.append(e2)
    return MaskedExample(input="".join(parts), target=target, beats=beats,
                         span=(start, length))


def line_rng(seed: int, line_index: int, repeat: int = 0) -> random.Random:
    """Per-line random stream, independent of processing order."""
    return random.Random(f"{seed}:{line_index}:{repeat}")


def line_examples(line: ScriptLine, index: int, cfg: MaskConfig,
                  tables: TableSet | None = None) -> list[MaskedExample]:
    """All ``cfg.per_line`` examples of the scan-ready line at `index`.

    Repeat r draws from ``line_rng(cfg.seed, index, r)``.  A line gives
    all its examples or raises ScriptError: every failure (too few words,
    a scan error, lost word alignment) is decided by the line alone,
    before any random draw matters, so the line is checked and scanned
    once and every repeat shares its segments.
    """
    _require_two_words(line)
    segments = _line_segments(line, tables)
    return [build_training_example(line, cfg, line_rng(cfg.seed, index, r),
                                   tables, segments)
            for r in range(cfg.per_line)]


def generate_dataset(lines, cfg: MaskConfig, tables: TableSet | None = None):
    """Yield (line_index, example) records; unbuildable lines are skipped.

    `lines` may hold ScriptLine values or raw text.  `line_index` counts
    from 0 and keys the line's random streams (see `line_examples`); the
    warning for a skipped line counts from 1, as CLI diagnostics do.
    """
    for index, item in enumerate(lines):
        try:
            line = item if isinstance(item, ScriptLine) else parse_line(item)
            examples = line_examples(line, index, cfg, tables)
        except ScriptError as exc:
            log.warning("line %d skipped: %s", index + 1, exc)
            continue
        for example in examples:
            yield index, example
