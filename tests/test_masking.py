"""Span sampling, context reduction and training-example assembly."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arud.errors import LineTooShort, ScriptError
from arud.masking import (
    MaskConfig,
    MaskedExample,
    build_training_example,
    generate_dataset,
    geometric,
    line_examples,
    line_rng,
    reduce_context_diacritics,
    sample_mask_span,
)
from arud.scansion import beat_segments, scan
from arud.script import fix_diacritic_order, parse_line, render_line


class StubRng:
    """Deterministic stand-in feeding scripted draws."""

    def __init__(self, randoms=(), ints=()):
        self._randoms = list(randoms)
        self._ints = list(ints)

    def random(self):
        return self._randoms.pop(0) if self._randoms else 0.99

    def randrange(self, lo, hi=None):
        if self._ints:
            return self._ints.pop(0)
        return lo

    def sample(self, population, k):
        return list(population)[:k]


class TestConfig:
    def test_defaults_valid(self):
        MaskConfig()

    @pytest.mark.parametrize("field,value", [
        ("span_p", 0.0), ("span_p", 1.0), ("keep_p", -0.1),
        ("sukun_drop", 1.5), ("per_line", 0),
    ])
    def test_bad_values(self, field, value):
        with pytest.raises(ValueError):
            MaskConfig(**{field: value})

    def test_markers_must_differ(self):
        with pytest.raises(ValueError):
            MaskConfig(markers=("[E0]", "[E0]", "[E2]"))

    def test_markers_reject_arabic(self):
        with pytest.raises(ValueError):
            MaskConfig(markers=("[E0]", "[مE1]", "[E2]"))


class TestGeometric:
    def test_support_starts_at_zero(self):
        assert geometric(StubRng(randoms=[0.0]), 0.2) == 0

    def test_mean_matches_distribution(self):
        rng = random.Random(1234)
        draws = [geometric(rng, 0.2) for _ in range(200_000)]
        # E[X] = (1-p)/p = 4 on support {0,1,...}
        assert sum(draws) / len(draws) == pytest.approx(4.0, rel=0.02)


class TestSampleSpan:
    def test_minimum_length(self):
        line = parse_line("مَا لَهُ عَلَّمَ مَعًا")
        start, length = sample_mask_span(line, MaskConfig(),
                                         StubRng(randoms=[0.0], ints=[1]))
        assert (start, length) == (1, 1)

    def test_clamped_to_leave_context(self):
        line = parse_line("مَا لَهُ عَلَّمَ مَعًا")
        # geometric draw of 7 would give length 8; clamped to 3
        _, length = sample_mask_span(line, MaskConfig(),
                                     StubRng(randoms=[0.81], ints=[0]))
        assert length == 3

    def test_single_word_rejected(self):
        with pytest.raises(LineTooShort):
            sample_mask_span(parse_line("مَا"), MaskConfig(), StubRng())


class TestReduceContext:
    def test_silence_mark_always_removed(self):
        line = parse_line("ذَهَبُوا۠")
        out = reduce_context_diacritics(line, MaskConfig(), StubRng())
        assert not any(g.silent for g in out.graphemes())
        assert [g.base for g in out.graphemes()] == \
            [g.base for g in line.graphemes()]

    def test_wasl_becomes_plain_alif(self):
        line = parse_line("ٱلْبَيْتِ")
        out = reduce_context_diacritics(line, MaskConfig(), StubRng())
        assert out.words[0][0].base == "ا"
        assert not out.words[0][0].is_wasl

    def test_keep_zero_strips_all(self):
        # a keep-count draw of zero removes the vowels and the shadda
        line = parse_line("عَلَّمَ")
        out = reduce_context_diacritics(
            line, MaskConfig(), StubRng(randoms=[0.0]))
        assert render_line(out) == "علم"

    def test_full_retention(self):
        # with near-zero drop probabilities everything survives
        line = parse_line("عَلَّمَ مَا")
        out = reduce_context_diacritics(
            line, MaskConfig(sukun_drop=0.01, keep_p=0.01),
            random.Random(0))
        assert render_line(out) == render_line(line)


FIG_LINE = "مِكَرٍّ مِفَرٍّ مُقْبِلٍ مُدْبِرٍ مَعًا"


class TestBuildExample:
    def test_figure_example_verbatim(self):
        line = parse_line(FIG_LINE)
        cfg = MaskConfig(reduce_context=False)
        # span length 2 (geometric draw 1), start 3: the last two words
        ex = build_training_example(line, cfg, StubRng(randoms=[0.3],
                                                       ints=[3]))
        left = fix_diacritic_order("مِكَرٍّ مِفَرٍّ مُقْبِلٍ")
        assert ex.input == left + " [E0]10110110[E1][E2]"
        assert ex.target == fix_diacritic_order("مُدْبِرٍ مَعًا")
        assert ex.beats == "10110110"
        assert ex.span == (3, 2)

    def test_first_word_span(self):
        line = parse_line(FIG_LINE)
        cfg = MaskConfig(reduce_context=False)
        ex = build_training_example(line, cfg, StubRng(randoms=[0.0],
                                                       ints=[0]))
        assert ex.input.startswith("[E0]")
        assert ex.span == (0, 1)

    def test_markers_in_order_exactly_once(self):
        line = parse_line(FIG_LINE)
        ex = build_training_example(line, MaskConfig(), line_rng(5, 0))
        for marker in ("[E0]", "[E1]", "[E2]"):
            assert ex.input.count(marker) == 1
        assert ex.input.index("[E0]") < ex.input.index("[E1]") \
            < ex.input.index("[E2]")

    def test_target_scans_to_beats_in_context(self):
        line = parse_line(FIG_LINE)
        ex = build_training_example(line, MaskConfig(), line_rng(5, 0))
        scansion_line, _ = scan(line)
        segments = beat_segments(scansion_line)
        start, length = ex.span
        assert "".join(segments[start:start + length]) == ex.beats

    def test_determinism(self):
        line = parse_line(FIG_LINE)
        cfg = MaskConfig(seed=42)
        a = build_training_example(line, cfg, line_rng(42, 7))
        b = build_training_example(line, cfg, line_rng(42, 7))
        assert a == b

    def test_json_round_trip(self):
        line = parse_line(FIG_LINE)
        ex = build_training_example(line, MaskConfig(), line_rng(1, 0))
        assert MaskedExample.from_json(ex.to_json()) == ex
        assert '"v": 1' in ex.to_json()


class TestGenerateDataset:
    def test_one_record_per_line(self):
        lines = [FIG_LINE] * 10
        records = list(generate_dataset(lines, MaskConfig(seed=3)))
        assert len(records) == 10

    def test_per_line_repeat(self):
        records = list(generate_dataset([FIG_LINE],
                                        MaskConfig(seed=3, per_line=4)))
        assert len(records) == 4

    def test_short_line_skipped(self):
        records = list(generate_dataset([FIG_LINE, "مَا", FIG_LINE],
                                        MaskConfig(seed=3)))
        assert [i for i, _ in records] == [0, 2]

    def test_skip_warning_counts_from_one(self, caplog):
        # the record index keys the random streams and stays 0-based; the
        # warning names the line as `arud mask` does, counting from 1
        with caplog.at_level("WARNING", logger="arud.masking"):
            records = list(generate_dataset([FIG_LINE, "مَا"],
                                            MaskConfig(seed=3)))
        assert [i for i, _ in records] == [0]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert messages[0].startswith("line 2 skipped: ")

    def test_order_independent_streams(self):
        cfg = MaskConfig(seed=9)
        full = {i: ex for i, ex in generate_dataset([FIG_LINE] * 5, cfg)}
        # regenerating only line 3 reproduces the same record
        rng = line_rng(cfg.seed, 3)
        ex = build_training_example(parse_line(FIG_LINE), cfg, rng)
        assert full[3] == ex

    def test_line_examples_all_or_nothing(self):
        line = parse_line(FIG_LINE)
        cfg = MaskConfig(seed=4, per_line=3)
        assert line_examples(line, 6, cfg) == [
            build_training_example(line, cfg, line_rng(4, 6, r))
            for r in range(3)]
        with pytest.raises(LineTooShort):
            line_examples(parse_line("مَا"), 0, cfg)

    def test_failure_does_not_depend_on_the_draws(self):
        # Why all or nothing loses no example: a line that cannot be
        # masked fails on every random stream alike.
        path = (Path(__file__).parent / "data" / "behaviour_snapshot"
                / "mask_input.txt")
        cfg = MaskConfig(span_p=0.5, keep_p=0.5)
        failing = 0
        for index, text in enumerate(
                path.read_text(encoding="utf-8").splitlines()):
            try:
                line = parse_line(text)
            except ScriptError:
                continue
            outcomes = set()
            for repeat in range(6):
                try:
                    build_training_example(line, cfg,
                                           line_rng(1, index, repeat))
                    outcomes.add(None)
                except ScriptError as exc:
                    outcomes.add(type(exc))
            assert len(outcomes) == 1, text
            failing += None not in outcomes
        assert failing >= 5
