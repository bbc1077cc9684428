"""Substitution-task training example generation.

Samples a contiguous word span, embeds the span's in-context beat
pattern between markers, reduces the context diacritics to mimic
real-world partially diacritized text, and emits (input, target)
records.  Output is a pure function of (corpus, config): each of a
line's `per_line` examples draws from its own random stream, keyed by
the seed, the 0-based line index and the repeat, and a line gives all
its examples or none (`line_examples`).

Context reduction draws per word, but what it draws over depends on the
word alone: its text once silence marks are dropped and connective alifs
made plain, cut into pieces (each letter's base, shadda and vowel-class
mark), which of those pieces are sukuns, and which are its other marks,
the slots.  That plan is built once per distinct word, in a
``script.Memo``, and the reduction blanks the pieces its draws drop and
joins the rest, so it gives each context word's text without building a
word.  The kept slots are drawn by `_sample`, which replays
`random.Random.sample` for small populations without its generic
checks, so every draw, and every output byte, is what ``rng.sample``
would give.
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
from dataclasses import dataclass

from .errors import LineTooShort, ScriptError
from .scansion import scan, word_offsets
from .script import ALIF, SHADDA, VOWEL_KIND_TO_CHAR, Memo, ScriptLine, \
    parse_line, render_word
from .tables import TableSet

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


# Most examples one line may ask for: a line's examples are built in
# memory before any is written, so `per_line` must stay bounded.
MAX_PER_LINE = 1000


@dataclass(frozen=True)
class MaskConfig:
    span_p: float = 0.2
    keep_p: float = 0.2
    sukun_drop: float = 0.5
    seed: int = 0
    per_line: int = 1
    reduce_context: bool = True
    # Not a field: the span start, span end and input end markers are
    # fixed, and free of Arabic characters so that none reads as text.
    markers = ("[E0]", "[E1]", "[E2]")

    def __post_init__(self):
        for name in ("span_p", "keep_p", "sukun_drop"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {p}")
        if not 1 <= self.per_line <= MAX_PER_LINE:
            raise ValueError(f"per_line must lie in [1, {MAX_PER_LINE}], "
                             f"got {self.per_line}")


# The string escaper of `json.JSONEncoder(ensure_ascii=False)`.
_quote = json.encoder.encode_basestring


@dataclass(frozen=True)
class MaskedExample:
    input: str
    target: str
    beats: str
    span: tuple  # (start word index, length)

    def to_json(self) -> str:
        """``json.dumps`` of the record's five keys with
        ``ensure_ascii=False``, written without building a dict.  The
        span must be two ints, as in every record `mask` builds and
        `from_json` reads."""
        start, length = self.span
        return (f'{{"v": {SCHEMA_VERSION}, "input": {_quote(self.input)}, '
                f'"target": {_quote(self.target)}, "beats": '
                f'{_quote(self.beats)}, "span": [{start}, {length}]}}')

    @classmethod
    def from_json(cls, text: str) -> "MaskedExample":
        """The record `to_json` wrote.  Raises ValueError for a span that
        is not a list of two ints, which `to_json` never writes."""
        obj = json.loads(text)
        span = obj["span"]
        if type(span) is not list or [type(x) for x in span] != [int, int]:
            raise ValueError(f"span must be two ints, got {span!r}")
        return cls(input=obj["input"], target=obj["target"],
                   beats=obj["beats"], span=tuple(span))


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


def _plan(word: tuple) -> tuple:
    """What `reduce_context_diacritics` needs of `word` before it draws.

    (pieces, sukuns, slots): the text of `word` with silence marks
    dropped and connective alifs made plain, cut into pieces (each
    letter's base, then its shadda, then its vowel-class mark), the
    indexes of its sukun pieces, and the indexes of its other marks'
    pieces, the slots, in letter order: a letter's vowel, then its
    shadda.  A connective alif loses its vowel with its connective mark.
    """
    pieces, sukuns, slots = [], [], []
    for g in word:
        if g.is_wasl and not g.silent:
            pieces.append(ALIF)
            continue
        pieces.append(g.base)
        shadda = len(pieces)
        if g.shadda:
            pieces.append(SHADDA)
        if g.vowel is not None:
            (sukuns if g.vowel == "sukun" else slots).append(len(pieces))
            pieces.append(VOWEL_KIND_TO_CHAR[g.vowel])
        if g.shadda:
            slots.append(shadda)
    return (tuple(pieces), *_shapes[tuple(sukuns), tuple(slots)])


# Word -> its mask plan.  Verse vocabulary repeats words: in 250
# `prepare` chunks (perfbench seed 78) the masked contexts hold 5,120
# distinct words, and a memo of `MEMO_SIZE` entries serves 98% of their
# 407,616 lookups (one of 1,024 entries serves 89%).  A plan's pieces
# are strings that every plan shares, and its index tuples are shared
# through `_shapes`, where 248 distinct ones serve those words; so a
# plan holds no string of its own, only two tuples of 169 bytes in all
# on average, and a full memo about 0.7 MB.
_plans = Memo(_plan)
# (sukuns, slots) -> one shared instance of each.
_shapes = Memo(lambda shape: shape)


# Largest population for which `random.Random.sample` always takes its
# pool branch: it does whenever n <= setsize, and setsize is never
# below 21.
_POOL_SAMPLE_MAX = 21


def _sample(rng: random.Random, n: int, k: int) -> list:
    """``rng.sample(range(n), k)``: the same list and the same draws.

    For a plain `random.Random` and a small `n`, this is the pool branch
    of `Random.sample` with `Random._randbelow_with_getrandbits` inlined
    (identical in CPython 3.10 to 3.13), without the generic path's
    checks on its population.  Any other generator or population goes
    through `rng.sample`.
    """
    if type(rng) is not random.Random or n > _POOL_SAMPLE_MAX:
        return rng.sample(range(n), k)
    getrandbits = rng.getrandbits
    pool = list(range(n))
    result = []
    for i in range(n, n - k, -1):
        bits = i.bit_length()
        j = getrandbits(bits)
        while j >= i:
            j = getrandbits(bits)
        result.append(pool[j])
        pool[j] = pool[i - 1]
    return result


def reduce_context_diacritics(context: ScriptLine, cfg: MaskConfig,
                              rng: random.Random) -> list[str]:
    """Thin out context marks to mimic typical diacritization habits, and
    return the context words' texts.

    Silence marks always go (the letter stays), connective alifs become
    plain alifs, each sukun independently survives with probability
    1 - sukun_drop, and each word keeps a geometric number of its other
    marks (shadda included), chosen uniformly.

    Per word, in order: one ``rng.random()`` per sukun, one `geometric`
    draw, then the kept slots when any is kept.  Everything else comes
    from the word's memoized `_plan`, whose dropped pieces are blanked.
    """
    sukun_drop = cfg.sukun_drop
    keep_p = cfg.keep_p
    draw = rng.random
    texts = []
    for word in context.words:
        pieces, sukuns, slots = _plans[word]
        pieces = list(pieces)
        for i in sukuns:
            if draw() < sukun_drop:
                pieces[i] = ""
        n = len(slots)
        keep = min(geometric(rng, keep_p), n)
        kept = _sample(rng, n, keep) if keep else ()
        if keep < n:
            kept = set(kept)
            for si, i in enumerate(slots):
                if si not in kept:
                    pieces[i] = ""
        texts.append("".join(pieces))
    return texts


def _line_segments(line: ScriptLine, tables: TableSet | None) -> list[str]:
    """Per-word beat segments of a scan-ready line, one per input word:
    the line's beats cut at its `scansion.word_offsets`.

    Raises ScanError when the scan drops a word, since a span of input
    words then has no beats of its own.
    """
    transcription, beats = scan(line, tables, sentence_initial=True)
    offsets = word_offsets(line.words, transcription)
    return [beats[start:end] for start, end in zip(offsets, offsets[1:])]


def build_training_example(
    line: ScriptLine,
    cfg: MaskConfig,
    rng: random.Random,
    tables: TableSet | None = None,
    segments: list[str] | None = None,
    texts: list[str] | None = None,
) -> MaskedExample:
    """One (input, target) record for a scan-ready line.

    `segments` are the line's `_line_segments` and `texts` its rendered
    words; when absent, they are computed here.  The context, the words
    left and right of the span, is reduced in one call: the reduction
    draws word by word, so this gives the draws that reducing the left
    words and then the right words would.
    """
    start, length = sample_mask_span(line, cfg, rng)
    if segments is None:
        segments = _line_segments(line, tables)
    if texts is None:
        texts = list(map(render_word, line.words))
    end = start + length
    beats = "".join(segments[start:end])
    target = " ".join(texts[start:end])

    if cfg.reduce_context:
        shown = reduce_context_diacritics(
            ScriptLine(line.words[:start] + line.words[end:]), cfg, rng)
    else:
        shown = texts[:start] + texts[end:]
    e0, e1, e2 = cfg.markers
    shown.insert(start, f"{e0}{beats}{e1}")
    return MaskedExample(input=" ".join(shown) + e2, target=target,
                         beats=beats, span=(start, length))


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
    once and every repeat shares its segments and its rendered words.
    """
    _require_two_words(line)
    segments = _line_segments(line, tables)
    texts = list(map(render_word, line.words))
    return [build_training_example(line, cfg, line_rng(cfg.seed, index, r),
                                   tables, segments, texts)
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
