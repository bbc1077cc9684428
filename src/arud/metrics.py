"""Rhythm metrics over prediction files.

Exact alignment accuracy plus normalized Levenshtein similarity between
target and generated beat patterns.  Predictions that do not scan score
zero so that unscannable output can never improve a report.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .errors import EmptyEvaluation, ScriptError
from .filler import phrase_beats_in_context
from .scansion import scan_text
from .script import parse_line
from .tables import TableSet

log = logging.getLogger(__name__)


def edit_distance(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute distance, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[len(b)]


def levenshtein_similarity(a: str, b: str) -> float:
    """100 * (1 - distance / max length); two empty patterns score 100."""
    if not a and not b:
        return 100.0
    return 100.0 * (1.0 - edit_distance(a, b) / max(len(a), len(b)))


def exact_accuracy(pairs) -> float:
    total = 0
    hits = 0
    for target, generated in pairs:
        total += 1
        hits += target == generated
    if total == 0:
        raise EmptyEvaluation("no pairs to evaluate")
    return 100.0 * hits / total


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
        if self.coherence is not None \
                and not isinstance(self.coherence, (int, float)):
            raise ValueError("coherence must be a number or null")
        if not self.target_beats:
            raise ValueError("target_beats must be non-empty")

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
            verse_final=bool(obj.get("verse_final", False)),
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
        if self.mean_coherence is not None:
            out.append(f"mean_coherence: {self.mean_coherence:.2f}")
        return "\n".join(out)


def _generated_beats(record: PredictionRecord,
                     tables: TableSet | None) -> str | None:
    has_context = bool(record.left_context) or bool(record.right_context)
    try:
        if has_context:
            phrase = parse_line(record.generated_text).words
            left = parse_line(record.left_context).words \
                if record.left_context and record.left_context.strip() else ()
            right = parse_line(record.right_context).words \
                if record.right_context and record.right_context.strip() else ()
            verse_final = record.verse_final and not right
            return phrase_beats_in_context(phrase, left, right, verse_final,
                                           tables)
        _, beats = scan_text(record.generated_text,
                             verse_final=record.verse_final, tables=tables)
        return beats if beats else None
    except ScriptError:
        return None


def evaluate_predictions(records, tables: TableSet | None = None) -> EvalReport:
    """Score a stream of PredictionRecord values."""
    n = 0
    exact = 0
    similarity_sum = 0.0
    failures = 0
    coherence_sum = 0.0
    coherence_n = 0
    for record in records:
        n += 1
        beats = _generated_beats(record, tables)
        if beats is None:
            failures += 1
        else:
            exact += beats == record.target_beats
            similarity_sum += levenshtein_similarity(record.target_beats,
                                                     beats)
        if record.coherence is not None:
            coherence_sum += record.coherence
            coherence_n += 1
    if n == 0:
        raise EmptyEvaluation("no records to evaluate")
    return EvalReport(
        n=n,
        exact_accuracy=100.0 * exact / n,
        mean_levenshtein_similarity=similarity_sum / n,
        scan_failure_count=failures,
        mean_coherence=coherence_sum / coherence_n if coherence_n else None,
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
        except (ValueError, KeyError) as exc:
            bad += 1
            log.warning("record %d malformed, skipped: %s", lineno, exc)
    return records, bad
