"""Span sampling, context reduction and training-example assembly."""

import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arud import masking
from arud.errors import LineTooShort, ScanError, ScriptError
from arud.masking import (
    MAX_PER_LINE,
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
from arud.script import ALIF, ARABIC_LETTERS, MEMO_SIZE, SHADDA, \
    VOWEL_KIND_TO_CHAR, WASL_ALIF, Grapheme, ScriptLine, fix_diacritic_order, parse_line, \
    render_line, render_word
from arud import tables as tables_module
from arud.tables import TableSet
from conftest import at_least


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
        ("per_line", MAX_PER_LINE + 1), ("per_line", 10**9),
    ])
    def test_bad_values(self, field, value):
        with pytest.raises(ValueError):
            MaskConfig(**{field: value})

    def test_per_line_bound_is_inclusive(self):
        assert MaskConfig(per_line=MAX_PER_LINE).per_line == MAX_PER_LINE


class TestGeometric:
    def test_support_starts_at_zero(self):
        assert geometric(StubRng(randoms=[0.0]), 0.2) == 0

    def test_tiny_p_gives_a_finite_draw(self):
        # The quotient of the two logarithms overflows to infinity here.
        assert geometric(StubRng(randoms=[0.5]), 5e-324) == sys.maxsize
        cfg = MaskConfig(span_p=5e-324, keep_p=5e-324)
        line = parse_line("مَا لَهُ عَلَّمَ مَعًا")
        example = build_training_example(line, cfg, random.Random(0))
        assert example.span[1] == 3

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
    # `StubRng` keeps every sukun and draws a keep count above every
    # word's slots unless told otherwise.
    def test_silence_mark_always_removed(self):
        line = parse_line("ذَهَبُوا۠")
        out = reduce_context_diacritics(line, MaskConfig(), StubRng())
        assert out == ["ذَهَبُوا"]

    def test_wasl_becomes_plain_alif(self):
        line = parse_line("ٱلْبَيْتِ")
        out = reduce_context_diacritics(line, MaskConfig(), StubRng())
        assert out == ["الْبَيْتِ"]

    def test_keep_zero_strips_all(self):
        # a keep-count draw of zero removes the vowels and the shadda
        line = parse_line("عَلَّمَ")
        out = reduce_context_diacritics(
            line, MaskConfig(), StubRng(randoms=[0.0]))
        assert out == ["علم"]

    def test_dropped_sukun_keeps_its_shadda(self):
        line = parse_line("عَلّْ")
        out = reduce_context_diacritics(
            line, MaskConfig(), StubRng(randoms=[0.0]))
        assert out == ["عَلّ"]

    def test_full_retention(self):
        # with near-zero drop probabilities everything survives
        line = parse_line("عَلَّمَ مَا")
        out = reduce_context_diacritics(
            line, MaskConfig(sukun_drop=0.01, keep_p=0.01),
            random.Random(0))
        assert " ".join(out) == render_line(line)


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


# Text the record's escaper must get right: quotes, backslashes, control
# characters, non-BMP characters and lone surrogates among any others.
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\n\t\x7f\u2028'), st.characters(),
    st.integers(0, 0x1f).map(chr), st.integers(0xd800, 0xdfff).map(chr),
    st.integers(0x10000, 0x10ffff).map(chr)))


class TestRecordJson:
    @pytest.mark.property
    @given(text=st.tuples(JSON_TEXT, JSON_TEXT, JSON_TEXT),
           span=st.tuples(st.integers(), st.integers()))
    @settings(max_examples=at_least(300), deadline=None)
    def test_to_json_is_json_dumps(self, text, span):
        ex = MaskedExample(*text, span=span)
        record = ex.to_json()
        assert record == json.dumps(
            {"v": masking.SCHEMA_VERSION, "input": text[0], "target": text[1],
             "beats": text[2], "span": list(span)}, ensure_ascii=False)
        assert MaskedExample.from_json(record) == ex

    @pytest.mark.parametrize("span", [
        "[1]", "[1, 2, 3]", "[]", "[1.0, 2]", "[1, 2.5]", "[true, 1]",
        '["1", 2]', "[[1], 2]", "[null, 1]", '"12"', "null", "12",
        '{"0": 1, "1": 2}'])
    def test_from_json_refuses_a_span_not_two_ints(self, span):
        # `to_json` writes a span's two ints as they are, so a record it
        # could not write back is refused where it is read.
        record = ('{"v": 1, "input": "a[E0]1[E1][E2]", "target": "b", '
                  f'"beats": "1", "span": {span}}}')
        with pytest.raises(ValueError, match="span must be two ints"):
            MaskedExample.from_json(record)


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


DATA = Path(__file__).parent / "data"


def _parseable(texts):
    lines = []
    for text in texts:
        try:
            lines.append(parse_line(text))
        except ScriptError:
            pass
    return lines


# Scan-ready lines, lines the scan rejects (a shadda without a vowel,
# lost word alignment) and one-word lines, as `mask` meets them.
EQUIVALENCE_LINES = _parseable(
    (DATA / "engine_snapshot" / "input.txt").read_text(
        encoding="utf-8").splitlines()
    + (DATA / "behaviour_snapshot" / "mask_input.txt").read_text(
        encoding="utf-8").splitlines()
    + ["مَا", "بَمّ", "ٱبْنُ", "بَمّ قَالَ", "قَالَ بَمّ لَهُ",
       "مَعًا بَمّ"])


# Words for whole examples: the lines above, and words with a silence
# mark, a connective alif, shadda with sukun and 24 slots.
PLAN_POOL = sorted({word for line in EQUIVALENCE_LINES for word in line.words}
                   | set(parse_line(
                       "ذَهَبُوا۠ ٱلْبَيْتِ بّْتَ "
                       "عَلَّمَعَلَّمَعَلَّمَعَلَّمَعَلَّمَعَلَّمَ").words),
                   key=render_word)


@pytest.fixture(scope="module")
def table_sets(tmp_path_factory):
    """The shipped tables and a `--tables` directory whose special words
    lengthen مَا and the frequent مِنْ."""
    shipped = Path(tables_module.__file__).parent / "data"
    custom = tmp_path_factory.mktemp("tables")
    for name in ("juncture.tsv", "known_words.tsv", "silent_words.tsv",
                 "VERSION"):
        (custom / name).write_bytes((shipped / name).read_bytes())
    (custom / "special_words.tsv").write_text("ما\tمَاا\nمن\tمِينْ\n",
                                              encoding="utf-8")
    return [None, TableSet.load(str(custom))]


def _outcome(make):
    try:
        return make()
    except ScriptError as exc:
        return type(exc), str(exc)


class TestScanOncePerLine:
    """`line_examples` scans a line once; its examples are those of
    `build_training_example` scanning the line on every repeat."""

    @given(line=st.sampled_from(EQUIVALENCE_LINES),
           index=st.integers(0, 10**6),
           seed=st.integers(0, 10**6),
           per_line=st.integers(1, 5),
           probs=st.tuples(*[st.floats(0.05, 0.95)] * 3),
           reduce_context=st.booleans(),
           custom=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_as_building_each_repeat(self, table_sets, line, index,
                                           seed, per_line, probs,
                                           reduce_context, custom):
        span_p, keep_p, sukun_drop = probs
        cfg = MaskConfig(span_p=span_p, keep_p=keep_p, sukun_drop=sukun_drop,
                         seed=seed, per_line=per_line,
                         reduce_context=reduce_context)
        tables = table_sets[custom]
        assert _outcome(lambda: line_examples(line, index, cfg, tables)) \
            == _outcome(lambda: [
                build_training_example(line, cfg, line_rng(seed, index, r),
                                       tables)
                for r in range(per_line)])

    def test_pool_reaches_every_outcome(self, table_sets):
        cfg = MaskConfig()
        outcomes = [[_outcome(lambda: line_examples(line, 0, cfg, tables))
                     for line in EQUIVALENCE_LINES]
                    for tables in table_sets]
        for results in outcomes:
            kinds = {result[0].__name__ if isinstance(result, tuple)
                     else "ok" for result in results}
            assert {"ok", "LineTooShort", "ShaddaWithoutVowel",
                    "ScanError"} <= kinds
        # The custom special words change some lines' examples.
        assert outcomes[0] != outcomes[1]

    def test_one_word_line_fails_before_its_scan_error(self):
        # بَمّ alone would fail its scan; too few words is reported first.
        with pytest.raises(LineTooShort,
                           match="^need at least two words to mask a span$"):
            line_examples(parse_line("بَمّ"), 0, MaskConfig())

    def test_one_scan_per_line(self, monkeypatch):
        import arud.masking as masking
        calls = []
        real_scan = masking.scan

        def counting_scan(*args, **kwargs):
            calls.append(args[0])
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(masking, "scan", counting_scan)
        line = parse_line(FIG_LINE)
        line_examples(line, 0, MaskConfig(per_line=4))
        assert calls == [line]


# Test-local copies of `reduce_context_diacritics` and
# `build_training_example` as they were before the per-word plan: the
# plan must give the texts of the same words from the same draws.
def reference_reduce(context, cfg, rng):
    """The reduced context as a line of graphemes."""
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
    return ScriptLine(tuple(words))


def reference_build(line, cfg, rng, tables=None):
    start, length = sample_mask_span(line, cfg, rng)
    scansion_line, _ = scan(line, tables, sentence_initial=True)
    if len(scansion_line.words) != len(line.words):
        raise ScanError("word alignment lost during transformation")
    segments = beat_segments(scansion_line)
    beats = "".join(segments[start:start + length])
    target = " ".join(render_word(w) for w in line.words[start:start + length])
    left_words = line.words[:start]
    right_words = line.words[start + length:]
    if cfg.reduce_context:
        if left_words:
            left_words = reference_reduce(
                ScriptLine(left_words), cfg, rng).words
        if right_words:
            right_words = reference_reduce(
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


def _grapheme(base, vowel, shadda, silent):
    """A valid grapheme near the given values: a silent letter drops its
    other marks, a connective alif its shadda."""
    if silent:
        vowel, shadda = None, False
    if base == WASL_ALIF:
        shadda = False
    return Grapheme(base, vowel, shadda, silent, base == WASL_ALIF)


# Any valid mark combination: shadda with sukun, silence marks (a silent
# connective alif among them) and connective alifs with vowels.
GRAPHEMES = st.builds(_grapheme,
                      st.sampled_from(["ب", "ل", "و", ALIF, WASL_ALIF]),
                      st.sampled_from([None, *sorted(VOWEL_KIND_TO_CHAR)]),
                      st.booleans(), st.booleans())
# Words of 22 to 30 slots: more than `Random.sample`'s pool branch takes.
LONG_WORDS = st.lists(st.builds(_grapheme, st.sampled_from(["ب", "ل"]),
                                st.sampled_from(["fatha", "kasra"]),
                                st.just(True), st.just(False)),
                      min_size=11, max_size=15)
CONTEXT_LINES = st.builds(
    lambda words: ScriptLine(tuple(map(tuple, words))),
    st.lists(st.one_of(st.lists(GRAPHEMES, min_size=1, max_size=8),
                       LONG_WORDS), min_size=1, max_size=5))
PROBS = st.floats(0.01, 0.99)


class TestMaskPlan:
    """The per-word plan and `_sample` draw what the code before them drew
    and give the texts of the same words."""

    @given(line=CONTEXT_LINES, seed=st.integers(0, 2**64),
           keep_p=PROBS, sukun_drop=PROBS, cold=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_reduce_equals_reference(self, line, seed, keep_p, sukun_drop,
                                     cold):
        if cold:
            masking._plans.clear()
        cfg = MaskConfig(keep_p=keep_p, sukun_drop=sukun_drop)
        new, old = random.Random(seed), random.Random(seed)
        # The second call reads every plan from the memo.
        for _ in range(2):
            assert reduce_context_diacritics(line, cfg, new) == [
                render_word(w) for w in reference_reduce(line, cfg, old).words]
            assert new.getstate() == old.getstate()

    def test_examples_reach_long_words_and_shadda_with_sukun(self):
        # The pool below has what the line test needs.
        plans = [masking._plan(word) for word in PLAN_POOL]
        assert any(len(slots) > 21 for _, _, slots in plans)
        # A sukun piece right after a shadda piece: the shadda's letter.
        assert any(pieces[i - 1] == SHADDA
                   for pieces, sukuns, _ in plans for i in sukuns)

    @given(words=st.lists(st.sampled_from(PLAN_POOL), min_size=1,
                          max_size=8),
           index=st.integers(0, 10**6),
           seed=st.integers(0, 10**6), per_line=st.integers(1, 4),
           probs=st.tuples(PROBS, PROBS, PROBS),
           reduce_context=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_examples_equal_reference(self, words, index, seed,
                                      per_line, probs, reduce_context):
        line = ScriptLine(tuple(words))
        span_p, keep_p, sukun_drop = probs
        cfg = MaskConfig(span_p=span_p, keep_p=keep_p, sukun_drop=sukun_drop,
                         seed=seed, per_line=per_line,
                         reduce_context=reduce_context)
        assert _outcome(lambda: line_examples(line, index, cfg)) \
            == _outcome(lambda: [
                reference_build(line, cfg, line_rng(seed, index, r))
                for r in range(per_line)])
        new, old = line_rng(seed, index), line_rng(seed, index)
        assert _outcome(lambda: build_training_example(line, cfg, new)) \
            == _outcome(lambda: reference_build(line, cfg, old))
        assert new.getstate() == old.getstate()

    def test_sample_replays_random_sample(self):
        for n in range(31):
            for k in range(n + 1):
                for seed in range(3):
                    ours = random.Random(f"{seed}:{n}:{k}")
                    theirs = random.Random(f"{seed}:{n}:{k}")
                    assert masking._sample(ours, n, k) \
                        == theirs.sample(range(n), k)
                    assert ours.getstate() == theirs.getstate()

    def test_other_generators_use_their_sample(self):
        class Recording(random.Random):
            def sample(self, population, k):
                calls.append((population, k))
                return super().sample(population, k)

        calls = []
        assert masking._sample(Recording(1), 5, 2) \
            == random.Random(1).sample(range(5), 2)
        assert calls == [(range(5), 2)]
        assert masking._sample(StubRng(), 4, 2) == [0, 1]

    def test_plan(self):
        word = parse_line("ٱلْبَيْتُوا۠").words[0]
        pieces, sukuns, slots = masking._plan(word)
        assert pieces == ("ا", "ل", "ْ", "ب", "َ", "ي", "ْ", "ت", "ُ",
                          "و", "ا")
        assert sukuns == (2, 6)
        assert slots == (4, 8)
        # Slots in letter order, a letter's vowel before its shadda.
        plan = masking._plan(parse_line("عَلَّمَ").words[0])
        assert plan == (("ع", "َ", "ل", "ّ", "َ", "م", "َ"), (),
                        (1, 4, 3, 6))
        # Words of one shape share their index tuples.
        other = masking._plan(parse_line("كَسَّرَ").words[0])
        assert other[1] is plan[1] and other[2] is plan[2]

    def test_memo_holds_at_most_memo_size(self):
        masking._plans.clear()
        words = [(Grapheme(a, "fatha"), Grapheme(b, vowel))
                 for a in sorted(ARABIC_LETTERS - {WASL_ALIF})
                 for b in sorted(ARABIC_LETTERS - {WASL_ALIF})
                 for vowel in ("fatha", "kasra", "damma", "sukun")]
        assert len(words) > MEMO_SIZE
        rng = random.Random(0)
        for i in range(0, len(words), 50):
            reduce_context_diacritics(ScriptLine(tuple(words[i:i + 50])),
                                      MaskConfig(), rng)
            assert len(masking._plans) <= MEMO_SIZE
        assert len(masking._plans) == MEMO_SIZE


def _scan_ready(line):
    try:
        masking._line_segments(line, None)
    except ScriptError:
        return False
    return True


# Words of the lines above that `mask` accepts: the line scans and keeps
# every word.
SCAN_READY_WORDS = sorted({word for line in EQUIVALENCE_LINES
                           if _scan_ready(line) for word in line.words},
                          key=render_word)


class TestOneReductionPerExample:
    """`build_training_example` reduces the words left and right of the
    span in one call: that draws what a call on the left words and then
    one on the right words draw, since the reduction draws word by word."""

    @pytest.mark.property
    @given(words=st.lists(st.sampled_from(SCAN_READY_WORDS), min_size=1,
                          max_size=10),
           split=st.integers(0, 10), seed=st.integers(0, 2**64),
           keep_p=PROBS, sukun_drop=PROBS)
    @settings(max_examples=at_least(300), deadline=None)
    def test_whole_context_draws_as_left_then_right(self, words, split,
                                                    seed, keep_p,
                                                    sukun_drop):
        split = min(split, len(words))
        cfg = MaskConfig(keep_p=keep_p, sukun_drop=sukun_drop)
        whole, parts = random.Random(seed), random.Random(seed)
        got = reduce_context_diacritics(ScriptLine(tuple(words)), cfg,
                                        whole)
        left = reduce_context_diacritics(ScriptLine(tuple(words[:split])),
                                         cfg, parts)
        right = reduce_context_diacritics(ScriptLine(tuple(words[split:])),
                                          cfg, parts)
        assert got == left + right
        assert whole.getstate() == parts.getstate()
