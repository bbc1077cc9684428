"""Rhythm metrics over prediction files.

Exact alignment accuracy plus normalized Levenshtein similarity between
target and generated beat patterns.  Predictions that do not scan score
zero so that unscannable output can never improve a report.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass

from .errors import EmptyEvaluation, ScriptError
from .filler import context_words, phrase_beats_in_context
from .scansion import scan_text
from .script import Memo, parse_line
from .tables import TableSet

log = logging.getLogger(__name__)


def edit_distance(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute distance.

    Myers's bit-vector algorithm (G. Myers, "A fast bit-vector algorithm
    for approximate string matching based on dynamic programming", JACM
    1999) in the global-distance form of H. Hyyrö ("Explaining and
    extending the bit-parallel approximate string matching algorithm of
    Myers", 2001): bit i of `pv`/`mv` says whether the DP column over the
    shorter string steps up/down by one at row i, and one step of integer
    bit operations computes the next column per character of the longer
    string.
    """
    if len(a) < len(b):
        a, b = b, a  # the bit vectors run over the shorter string
    m = len(b)
    if not m:
        return len(a)
    peq = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | 1 << i
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv) & full
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # The top row is 0, 1, 2, ...: every column starts one higher.
        ph = ph << 1 | 1
        mh = mh << 1 & full
        pv = mh | ~(xv | ph) & full
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """100 * (1 - distance / max length); two empty patterns score 100."""
    if not a and not b:
        return 100.0
    return 100.0 * (1.0 - edit_distance(a, b) / max(len(a), len(b)))


@dataclass(frozen=True)
class PredictionRecord:
    target_beats: str
    generated_text: str
    left_context: str | None = None
    right_context: str | None = None
    verse_final: bool = False
    coherence: float | None = None

    def __post_init__(self):
        for name in ("target_beats", "generated_text"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        for name in ("left_context", "right_context"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be a string or null")
        if not isinstance(self.verse_final, bool):
            raise ValueError("verse_final must be true or false")
        if self.coherence is not None and (
                isinstance(self.coherence, bool)
                or not isinstance(self.coherence, (int, float))
                or not abs(self.coherence) <= sys.float_info.max):
            # JSON integers are unbounded; one too large for a float
            # could not be averaged.
            raise ValueError("coherence must be a finite number or null")
        if not self.target_beats:
            raise ValueError("target_beats must be non-empty")
        if self.target_beats.strip("01"):
            raise ValueError("target_beats must hold only 0 and 1")

    @classmethod
    def from_json(cls, text: str) -> "PredictionRecord":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("record is not a JSON object")
        target = obj.get("target_beats", obj.get("beats"))
        if target is None:
            raise ValueError("record lacks target beats")
        return cls(
            target_beats=target,
            generated_text=obj["generated_text"],
            left_context=obj.get("left_context"),
            right_context=obj.get("right_context"),
            verse_final=obj.get("verse_final", False),
            coherence=obj.get("coherence"),
        )


@dataclass(frozen=True)
class EvalReport:
    n: int
    exact_accuracy: float
    mean_levenshtein_similarity: float
    scan_failure_count: int
    mean_coherence: float | None = None

    def render_report(self) -> str:
        out = [
            f"n: {self.n}",
            f"exact_accuracy: {self.exact_accuracy:.2f}",
            f"mean_levenshtein_similarity: "
            f"{self.mean_levenshtein_similarity:.2f}",
            f"scan_failure_count: {self.scan_failure_count}",
        ]
        mean = self.mean_coherence
        if mean is not None:
            # Fixed point below 1e15; beyond, an exponent keeps the line
            # short.
            out.append(f"mean_coherence: {mean:.2f}" if abs(mean) < 1e15
                       else f"mean_coherence: {mean:.3e}")
        return "\n".join(out)


# Context text -> its words.  Records draw their contexts from few
# queries; a text that does not parse stores nothing, so it raises again
# on every record that holds it.
_contexts = Memo(context_words)


def _generated_beats(record: PredictionRecord,
                     tables: TableSet | None) -> list:
    """The generated text's beats under each reading; empty when it does
    not scan."""
    has_context = bool(record.left_context) or bool(record.right_context)
    try:
        if has_context:
            phrase = parse_line(record.generated_text).words
            left = _contexts[record.left_context or ""]
            right = _contexts[record.right_context or ""]
            return phrase_beats_in_context(phrase, left, right,
                                           record.verse_final, tables)
        _, beats = scan_text(record.generated_text,
                             verse_final=record.verse_final, tables=tables)
        return [beats] if beats else []
    except ScriptError:
        return []


# Every finite float is a whole multiple of 2 ** -1074.
_FRACTION_BITS = 1074


def _fixed_point(x: int | float) -> int:
    """`x` exactly, as a whole number of 2 ** -_FRACTION_BITS units."""
    numerator, denominator = x.as_integer_ratio()  # denominator: 2 ** k
    return numerator << (_FRACTION_BITS + 1 - denominator.bit_length())


def evaluate_predictions(records, tables: TableSet | None = None) -> EvalReport:
    """Score a stream of PredictionRecord values.

    A record is exact when any reading of its generated text gives the
    target, and takes its similarity from the closest reading.
    """
    n = 0
    exact = 0
    similarity_sum = 0.0
    failures = 0
    # Summed exactly and rounded once, so a mean of finite values is finite
    # (`fractions` would do it too, at a cost at every CLI start).
    coherence_sum = 0  # in units of 2 ** -_FRACTION_BITS
    coherence_n = 0
    for record in records:
        n += 1
        readings = _generated_beats(record, tables)
        if not readings:
            failures += 1
        elif record.target_beats in readings:
            exact += 1
            # levenshtein_similarity(t, t), without a distance
            similarity_sum += 100.0
        else:
            similarity_sum += max(
                levenshtein_similarity(record.target_beats, beats)
                for beats in readings)
        if record.coherence is not None:
            coherence_sum += _fixed_point(record.coherence)
            coherence_n += 1
    if n == 0:
        raise EmptyEvaluation("no records to evaluate")
    return EvalReport(
        n=n,
        exact_accuracy=100.0 * exact / n,
        mean_levenshtein_similarity=similarity_sum / n,
        scan_failure_count=failures,
        mean_coherence=(coherence_sum / (coherence_n << _FRACTION_BITS)
                        if coherence_n else None),
    )


def read_prediction_file(stream):
    """Parse newline-delimited JSON records; bad lines are logged."""
    records = []
    bad = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(PredictionRecord.from_json(line))
        # RecursionError: JSON nested deeper than the decoder can follow.
        except (ValueError, KeyError, RecursionError) as exc:
            bad += 1
            log.warning("record %d malformed, skipped: %s", lineno, exc)
    return records, bad
