"""Edit-distance metrics and prediction-file evaluation."""

import io
import itertools
import json
import re
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import at_least

from arud.errors import EmptyEvaluation, ScriptError
from arud.filler import (
    FillQuery,
    context_words,
    fill,
    index_lexicon,
    phrase_beats_in_context,
)
from arud.metrics import (
    EvalReport,
    PredictionRecord,
    edit_distance,
    evaluate_predictions,
    levenshtein_similarity,
    read_prediction_file,
)
from arud.scansion import scan_text
from arud.script import parse_line

patterns = st.text(alphabet="01", max_size=30)
# Longer than one 64-bit word of the bit-vector kernel.
long_patterns = st.text(alphabet="01", max_size=200)
three_letters = st.text(alphabet="abc", max_size=200)


def naive_edit_distance(a, b):
    """Full-matrix reference implementation."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[rows - 1][cols - 1]


class TestSimilarity:
    def test_identity(self):
        assert levenshtein_similarity("11010", "11010") == 100.0

    def test_one_of_two(self):
        assert levenshtein_similarity("10", "1") == 50.0

    def test_two_of_three(self):
        assert levenshtein_similarity("101", "010") == pytest.approx(
            33.33, abs=0.01)

    def test_both_empty(self):
        assert levenshtein_similarity("", "") == 100.0

    @given(patterns, patterns)
    def test_symmetric(self, a, b):
        assert levenshtein_similarity(a, b) == levenshtein_similarity(b, a)

    @given(patterns, patterns)
    def test_hundred_iff_identical(self, a, b):
        assert (levenshtein_similarity(a, b) == 100.0) == (a == b)

    @given(patterns, patterns, patterns)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(long_patterns, long_patterns)
    def test_matches_naive_oracle(self, a, b):
        assert edit_distance(a, b) == naive_edit_distance(a, b)


class TestEditDistance:
    """The bit-vector kernel against the full-matrix oracle."""

    @given(three_letters, three_letters)
    def test_three_letters(self, a, b):
        assert edit_distance(a, b) == naive_edit_distance(a, b)

    @given(three_letters)
    def test_empty_side(self, a):
        assert edit_distance(a, "") == edit_distance("", a) == len(a)

    def test_every_short_binary_pair(self):
        short = ["".join(bits) for n in range(7)
                 for bits in itertools.product("01", repeat=n)]
        for a in short:
            for b in short:
                assert edit_distance(a, b) == naive_edit_distance(a, b), \
                    (a, b)

    def test_all_substitutions(self):
        assert edit_distance("0" * 5000, "1" * 5000) == 5000

    def test_shifted_by_one(self):
        assert edit_distance("01" * 2500, "10" * 2500) == 2


def _records(pairs):
    return [PredictionRecord(target_beats=t, generated_text=g)
            for t, g in pairs]


class TestExactAccuracy:
    # مَا scans to "10", لَهُ to "11", عَلَّمَ to "1011".
    def test_half(self):
        report = evaluate_predictions(_records([("10", "مَا"),
                                                ("10", "لَهُ")]))
        assert report.exact_accuracy == 50.0

    def test_all_identical(self):
        report = evaluate_predictions(_records([("10", "مَا")] * 5))
        assert report.exact_accuracy == 100.0

    @given(st.lists(st.tuples(st.sampled_from(["10", "11", "1011", "0"]),
                              st.sampled_from(["مَا", "لَهُ", "عَلَّمَ"])),
                    min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert evaluate_predictions(_records(pairs)).exact_accuracy \
            == evaluate_predictions(_records(shuffled)).exact_accuracy


class TestEvaluate:
    def test_perfect_predictions(self):
        records = [
            PredictionRecord(target_beats="1011", generated_text="عَلَّمَ"),
            PredictionRecord(target_beats="10", generated_text="مَا"),
        ]
        report = evaluate_predictions(records)
        assert report.exact_accuracy == 100.0
        assert report.mean_levenshtein_similarity == 100.0
        assert report.scan_failure_count == 0

    def test_one_off_by_a_beat(self):
        # "مَا" scans to "10" against target "11010": distance 3 of 5
        records = [
            PredictionRecord(target_beats="1011", generated_text="عَلَّمَ"),
            PredictionRecord(target_beats="11010", generated_text="مَا"),
        ]
        report = evaluate_predictions(records)
        assert report.exact_accuracy == 50.0
        assert report.mean_levenshtein_similarity == pytest.approx(
            (100.0 + 40.0) / 2)

    def test_scan_failure_scores_zero(self):
        records = [
            PredictionRecord(target_beats="10", generated_text="بَمّ"),
            PredictionRecord(target_beats="10", generated_text="مَا"),
        ]
        report = evaluate_predictions(records)
        assert report.scan_failure_count == 1
        assert report.exact_accuracy == 50.0
        assert report.mean_levenshtein_similarity == 50.0

    def test_context_scanning(self):
        # in isolation لَهُ scans "11"; after it, مَا still scans "10",
        # but لَهُ before مَا gains the isba extension
        record = PredictionRecord(target_beats="110",
                                  generated_text="لَهُ",
                                  right_context="مَا")
        report = evaluate_predictions([record])
        assert report.exact_accuracy == 100.0

    def test_licensed_reading_scores_exact(self):
        # لَهُمْ before مَا reads "110", or "1110" under the optional
        # plural-m license, which is what `fill` returns it for
        record = PredictionRecord(target_beats="1110",
                                  generated_text="لَهُمْ",
                                  right_context="مَا")
        report = evaluate_predictions([record])
        assert report.exact_accuracy == 100.0
        assert report.mean_levenshtein_similarity == 100.0

    def test_similarity_of_the_closest_reading(self):
        # "1111" is 2 edits from "110" and 1 edit from "1110"
        record = PredictionRecord(target_beats="1111",
                                  generated_text="لَهُمْ",
                                  right_context="مَا")
        report = evaluate_predictions([record])
        assert report.exact_accuracy == 0.0
        assert report.mean_levenshtein_similarity == 75.0

    def test_empty_stream(self):
        with pytest.raises(EmptyEvaluation):
            evaluate_predictions([])

    def test_coherence_passthrough(self):
        records = [
            PredictionRecord(target_beats="10", generated_text="مَا",
                             coherence=2.0),
            PredictionRecord(target_beats="10", generated_text="مَا",
                             coherence=4.0),
        ]
        report = evaluate_predictions(records)
        assert report.mean_coherence == 3.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.integers(-10 ** 300, 10 ** 300),
                    min_size=1, max_size=20))
    def test_coherence_mean_is_exact(self, values):
        records = [PredictionRecord(target_beats="10", generated_text="مَا",
                                    coherence=value) for value in values]
        assert evaluate_predictions(records).mean_coherence \
            == float(statistics.mean(values))

    @pytest.mark.parametrize("values", [
        [1e308, 1.5e308, -1.7e308, -1.7e308],
        [sys.float_info.max] * 5,
        [-sys.float_info.max, 5e-324, -sys.float_info.max],
    ])
    def test_coherence_mean_does_not_overflow(self, values):
        records = [PredictionRecord(target_beats="10", generated_text="مَا",
                                    coherence=value) for value in values]
        mean = evaluate_predictions(records).mean_coherence
        assert mean == float(statistics.mean(values))
        assert abs(mean) <= sys.float_info.max

    def test_report_rendering(self):
        report = EvalReport(n=2, exact_accuracy=50.0,
                            mean_levenshtein_similarity=33.333,
                            scan_failure_count=1)
        text = report.render_report()
        assert "exact_accuracy: 50.00" in text
        assert "mean_levenshtein_similarity: 33.33" in text
        assert "mean_coherence" not in text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_coherence_line_stays_short(self, mean):
        line = _coherence_line(mean)
        assert len(line) <= 40
        assert re.fullmatch(r"mean_coherence: -?(\d+\.\d\d|\d\.\d{3}e[+-]\d+)",
                            line)

    @pytest.mark.parametrize("mean, text", [
        (3.25, "3.25"),
        (999999999999999.9, "999999999999999.88"),
        (-1e15, "-1.000e+15"),
        (sys.float_info.max, "1.798e+308"),
    ])
    def test_coherence_exponent_from_1e15(self, mean, text):
        assert _coherence_line(mean) == f"mean_coherence: {text}"


def _coherence_line(mean):
    return EvalReport(n=1, exact_accuracy=0.0,
                      mean_levenshtein_similarity=0.0, scan_failure_count=0,
                      mean_coherence=mean).render_report().splitlines()[-1]


class TestContextsReadOnce:
    def test_each_distinct_context_parsed_once(self, monkeypatch):
        from arud import filler, metrics
        metrics._contexts.clear()
        parsed = []
        parse = filler.parse_line
        monkeypatch.setattr(filler, "parse_line",
                            lambda raw: parsed.append(raw) or parse(raw))
        records = [PredictionRecord(target_beats="110",
                                    generated_text="لَهُ",
                                    left_context=left, right_context="مَا")
                   for left in ("قَالَ", "قُلْ", "", None) * 5]
        report = evaluate_predictions(records)
        assert report.exact_accuracy == 100.0
        assert sorted(parsed) == sorted(["قَالَ", "قُلْ", "مَا"])

    @pytest.mark.parametrize("side", ["left_context", "right_context"])
    def test_a_context_that_does_not_parse_fails_every_record(self, side):
        from arud import metrics
        metrics._contexts.clear()
        bad = PredictionRecord(target_beats="10", generated_text="مَا",
                               **{side: "x"})
        good = PredictionRecord(target_beats="10", generated_text="مَا",
                                **{side: "قَالَ"})
        report = evaluate_predictions([bad, good, bad, bad])
        assert report.scan_failure_count == 3
        assert report.exact_accuracy == 25.0
        assert "x" not in metrics._contexts


class TestPredictionFile:
    def test_reads_records_and_counts_bad(self):
        stream = io.StringIO("\n".join([
            json.dumps({"target_beats": "10", "generated_text": "مَا"}),
            "not json",
            json.dumps({"generated_text": "مَا"}),  # missing target
            json.dumps({"beats": "10", "generated_text": "مَا"}),
            "",
        ]))
        records, bad = read_prediction_file(stream)
        assert len(records) == 2
        assert bad == 2

    def test_wrong_field_types_counted_as_malformed(self):
        good = {"target_beats": "10", "generated_text": "مَا"}
        stream = io.StringIO("\n".join([
            json.dumps(good),
            "[1]",
            '"text"',
            json.dumps({**good, "target_beats": 10}),
            json.dumps({**good, "generated_text": None}),
            json.dumps({**good, "left_context": ["مَا"]}),
            json.dumps({**good, "right_context": 3}),
            json.dumps({**good, "coherence": "high"}),
        ]))
        records, bad = read_prediction_file(stream)
        assert len(records) == 1
        assert bad == 7

    @pytest.mark.parametrize("field,value", [
        ("verse_final", "false"), ("verse_final", 0), ("verse_final", None),
        ("target_beats", "abc"), ("target_beats", "10 1"),
        ("beats", "1x0"), ("coherence", True), ("coherence", float("nan")),
        ("coherence", float("inf")),
        pytest.param("coherence", 10 ** 400, id="coherence-too-large"),
    ])
    def test_mistyped_field_is_malformed(self, field, value, caplog):
        record = {"target_beats": "1110", "generated_text": "قَتَلَ",
                  field: value}
        if field == "beats":
            del record["target_beats"]
        records, bad = read_prediction_file(io.StringIO(json.dumps(record)))
        assert (records, bad) == ([], 1)
        assert caplog.messages[0].startswith("record 1 malformed, skipped: ")

    def test_verse_final_string_is_not_true(self):
        def report(verse_final):
            records, _ = read_prediction_file(io.StringIO(
                '{"target_beats": "1110", "generated_text": "قَتَلَ", '
                f'"verse_final": {verse_final}}}'))
            return records and evaluate_predictions(records)

        assert report("true").exact_accuracy == 100.0
        assert (report("false").exact_accuracy,
                report("false").mean_levenshtein_similarity) == (0.0, 75.0)
        assert report('"false"') == []

    def test_deep_nesting_is_malformed(self):
        stream = io.StringIO("[" * 100_000 + "\n"
                             + json.dumps({"target_beats": "10",
                                           "generated_text": "مَا"}))
        records, bad = read_prediction_file(stream)
        assert (len(records), bad) == (1, 1)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            PredictionRecord(target_beats="", generated_text="مَا")


SNAPSHOT_DIR = Path(__file__).parent / "data" / "behaviour_snapshot"
SNAPSHOT_LEXICON = [
    word for word in
    (SNAPSHOT_DIR / "lexicon.txt").read_text(encoding="utf-8").splitlines()
    if word.strip()]
# The contexts of the behaviour snapshot's `fill` cases.
LEFT_CONTEXTS = ["", "لَهُ", "مِنْ", "قِفَا نَبْكِ"]
RIGHT_CONTEXTS = ["", "ٱبْنُ مَالِكٍ", "ٱلْقَوْمُ", "مَعًا"]
PHRASE_WORDS = sorted({word for entry in SNAPSHOT_LEXICON
                       for word in entry.split()} | {"لَهُمْ"})


def _words(text):
    return parse_line(text).words if text.strip() else ()


class TestAgreesWithFill:
    """Every phrase `fill` returns scores exact under `eval` in the same
    context: both read the phrase's beats the same way."""

    def _check(self, lexicon, target, left, right, verse_final,
               max_words):
        query = FillQuery(target=target, left_context=left,
                          right_context=right, max_words=max_words,
                          verse_final=verse_final)
        found = fill(query, index_lexicon(lexicon))
        if found:
            report = evaluate_predictions([
                PredictionRecord(target_beats=target, generated_text=phrase,
                                 left_context=left, right_context=right,
                                 verse_final=verse_final)
                for phrase in found])
            assert report.exact_accuracy == 100.0
            assert report.mean_levenshtein_similarity == 100.0
        return found

    def test_plural_m_license(self):
        assert self._check(["لَهُمْ", "مَا", "قَدْ"], "1110", "", "مَا",
                           False, 1) == ["لَهُمْ"]

    @given(st.sampled_from(LEFT_CONTEXTS), st.sampled_from(RIGHT_CONTEXTS),
           st.booleans(), st.integers(1, 2),
           st.one_of(st.text(alphabet="01", min_size=1, max_size=7),
                     st.lists(st.sampled_from(PHRASE_WORDS), min_size=1,
                              max_size=2)))
    @settings(max_examples=at_least(150), deadline=None)
    def test_snapshot_lexicon_and_contexts(self, left, right, verse_final,
                                           max_words, target):
        # a context-free record takes `scan_text`'s plain reading
        assume(left or right)
        if isinstance(target, list):
            # the target of a lexicon phrase under its last reading
            readings = phrase_beats_in_context(
                [parse_line(w).words[0] for w in target], _words(left),
                _words(right), verse_final)
            assume(readings and readings[-1])
            target = readings[-1]
        self._check(SNAPSHOT_LEXICON + ["لَهُمْ"], target, left, right,
                    verse_final, max_words)


def _readings(record):
    """Every reading of a record's generated text, as `eval` reads it."""
    try:
        if record.left_context or record.right_context:
            return phrase_beats_in_context(
                parse_line(record.generated_text).words,
                context_words(record.left_context or ""),
                context_words(record.right_context or ""),
                record.verse_final)
        beats = scan_text(record.generated_text,
                          verse_final=record.verse_final)[1]
        return [beats] if beats else []
    except ScriptError:
        return []


def reference_report(records):
    """Each record scored by its best full-matrix similarity over every
    reading, exact hits included; coherences by `statistics.mean`."""
    exact = failures = 0
    similarity_sum = 0.0
    for record in records:
        readings = _readings(record)
        if not readings:
            failures += 1
            continue
        target = record.target_beats
        exact += target in readings
        similarity_sum += max(
            100.0 * (1.0 - naive_edit_distance(target, beats)
                     / max(len(target), len(beats)))
            for beats in readings)
    coherences = [record.coherence for record in records
                  if record.coherence is not None]
    return EvalReport(
        n=len(records), exact_accuracy=100.0 * exact / len(records),
        mean_levenshtein_similarity=similarity_sum / len(records),
        scan_failure_count=failures,
        mean_coherence=(float(statistics.mean(coherences)) if coherences
                        else None))


@st.composite
def snapshot_records(draw):
    """A record over the snapshot's words and contexts whose target is
    one of the phrase's own readings, or any short pattern."""
    phrase = " ".join(draw(st.lists(st.sampled_from(PHRASE_WORDS),
                                    min_size=1, max_size=2)))
    record = PredictionRecord(
        target_beats="1", generated_text=phrase,
        left_context=draw(st.sampled_from(LEFT_CONTEXTS)),
        right_context=draw(st.sampled_from(RIGHT_CONTEXTS)),
        verse_final=draw(st.booleans()))
    readings = [beats for beats in _readings(record) if beats]
    target = draw(st.sampled_from(readings) if readings and draw(
        st.booleans()) else st.text(alphabet="01", min_size=1, max_size=12))
    return PredictionRecord(
        target_beats=target, generated_text=phrase,
        left_context=record.left_context, right_context=record.right_context,
        verse_final=record.verse_final)


class TestExactHitsSkipTheDistance:
    """Scoring an exact reading 100 without a distance gives the report
    that the best distance over every reading gives."""

    @given(st.lists(snapshot_records(), min_size=1, max_size=8))
    @settings(deadline=None)
    def test_equals_reference(self, records):
        assert evaluate_predictions(records) == reference_report(records)

    def test_snapshot_predictions(self):
        with open(SNAPSHOT_DIR / "predictions.jsonl", encoding="utf-8") as f:
            records, _ = read_prediction_file(f)
        assert evaluate_predictions(records) == reference_report(records)
