"""Edit-distance metrics and prediction-file evaluation."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from arud.errors import EmptyEvaluation
from arud.metrics import (
    EvalReport,
    PredictionRecord,
    edit_distance,
    evaluate_predictions,
    exact_accuracy,
    levenshtein_similarity,
    read_prediction_file,
)

patterns = st.text(alphabet="01", max_size=30)


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

    @given(patterns, patterns)
    def test_matches_naive_oracle(self, a, b):
        assert edit_distance(a, b) == naive_edit_distance(a, b)


class TestExactAccuracy:
    def test_half(self):
        assert exact_accuracy([("10", "10"), ("10", "11")]) == 50.0

    def test_all_identical(self):
        assert exact_accuracy([("10", "10")] * 5) == 100.0

    def test_empty(self):
        with pytest.raises(EmptyEvaluation):
            exact_accuracy([])

    @given(st.lists(st.tuples(patterns, patterns), min_size=1, max_size=20),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert exact_accuracy(pairs) == exact_accuracy(shuffled)


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

    def test_report_rendering(self):
        report = EvalReport(n=2, exact_accuracy=50.0,
                            mean_levenshtein_similarity=33.333,
                            scan_failure_count=1)
        text = report.render_report()
        assert "exact_accuracy: 50.00" in text
        assert "mean_levenshtein_similarity: 33.33" in text
        assert "mean_coherence" not in text


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

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            PredictionRecord(target_beats="", generated_text="مَا")
