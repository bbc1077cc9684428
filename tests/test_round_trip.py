"""One contract across the batch tools: what `mask` writes, `eval` scores
exact and `fill` finds.

Seeded raw lines from the benchmark's load generator go through
`normalize` (``corpus.process_line``) and `mask` (``masking.line_examples``).
Each example's span, put back between the line's unreduced context words,
must score exact in ``metrics.evaluate_predictions``, and `fill` must find
each span of up to three words from a lexicon of the span's own
words.  Both read the span's beats inside the line, so a change in how
one tool reads a line's start, its end, the plural-m license or its word
alignment fails here.  The same round trip runs once more through the
files the CLI reads and writes, and once over lines drawn from a small
pool of the words those readings turn on.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import at_least
from arud.cli import main
from arud.corpus import join_hemistichs, process_line
from arud.errors import ScriptError
from arud.filler import FillQuery, fill, index_lexicon
from arud.masking import MaskConfig, MaskedExample, line_examples
from arud.metrics import PredictionRecord, evaluate_predictions
from arud.script import parse_line, render_line

LOADGEN = Path(__file__).parents[1] / "perfbench" / "loadgen.py"
SEEDS = (79, 5, 11)
CHUNKS = 4
CONFIG = MaskConfig(seed=3, per_line=2)


def load_loadgen():
    spec = importlib.util.spec_from_file_location("perfbench_loadgen",
                                                  LOADGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loadgen = load_loadgen()


def normalized_lines(seed):
    """The lines `normalize --hemistichs` accepts from the first `CHUNKS`
    raw chunks of `seed`."""
    vocabulary = loadgen.vocabulary(seed)
    accepted = []
    for raw in (raw for index in range(CHUNKS) for raw in
                loadgen.raw_chunk(seed, index, vocabulary)["lines"]):
        if "\t" in raw:
            try:
                raw = join_hemistichs(*raw.split("\t", 1))
            except ScriptError:
                continue
        text, _ = process_line(raw)
        if text is not None:
            accepted.append(text)
    return accepted


def spans(seed):
    """(the span's text, its beats, the context words left and right of
    it) for every example of every accepted line."""
    out = []
    for index, text in enumerate(normalized_lines(seed)):
        words = text.split()
        for example in line_examples(parse_line(text), index, CONFIG):
            start, length = example.span
            end = start + length
            assert example.target == " ".join(words[start:end])
            out.append((example.target, example.beats,
                        " ".join(words[:start]), " ".join(words[end:])))
    return out


def assert_agree(examples):
    """Each (span text, beats, left context, right context) scores exact
    in `eval`, and `fill` finds a span of up to three words from a
    lexicon of its own words."""
    report = evaluate_predictions(
        PredictionRecord(target_beats=beats, generated_text=target,
                         left_context=left, right_context=right)
        for target, beats, left, right in examples)
    assert report.scan_failure_count == 0
    assert report.exact_accuracy == 100.0

    for target, beats, left, right in examples:
        words = target.split()
        if len(words) > 3:
            continue
        query = FillQuery(target=beats, left_context=left,
                          right_context=right, max_words=len(words))
        assert target in fill(query, index_lexicon(words)), (left, target,
                                                             right)


@pytest.mark.parametrize("seed", SEEDS)
def test_mask_eval_and_fill_agree(seed):
    examples = spans(seed)
    assert len(examples) > 500
    assert_agree(examples)


# Article nouns, sun-letter articles, plural-m hosts, tanwin words and
# words ending in a short vowel, in the text `mask` writes for them.
POOL = render_line(parse_line(
    "ٱلْقَمَرُ ٱلْكِتَابِ وَٱلْحَقِّ بِٱلْقَلْبِ ٱلشَّمْسُ ٱلنَّاسِ وَٱلدَّمْعِ "
    "لَهُمْ عَلَيْكُمْ بِهِمْ أَنْتُمْ لَكُمُ عَلِمْتُمْ بَيْتًا دَمْعٌ قَلْبٍ "
    "دَلْوًا هُدًى مَا لَهُ قَالَ قَلْبِي مِنْهُ عَلَّمَ")).split()


@pytest.mark.property
@given(st.lists(st.sampled_from(POOL), min_size=2, max_size=5),
       st.integers(0, 999))
@settings(max_examples=at_least(100), deadline=None)
def test_generated_lines_agree(words, index):
    """The round trip over lines of `POOL` words: every example of a line
    at any index scores exact and is found by `fill`."""
    examples = []
    for example in line_examples(parse_line(" ".join(words)), index,
                                 CONFIG):
        start, length = example.span
        end = start + length
        assert example.target == " ".join(words[start:end])
        examples.append((example.target, example.beats,
                         " ".join(words[:start]), " ".join(words[end:])))
    assert_agree(examples)


# Raw chunks per seed for the round trip through the CLI files.
CLI_CHUNKS = 2


@pytest.mark.parametrize("seed", SEEDS)
def test_round_trip_through_the_cli_files(seed, tmp_path):
    """`normalize --hemistichs`, `mask` and `eval` on files: each
    example's span, put back between its line's unreduced context words,
    scores exact, and its input shows the span's beats between the
    markers at the span's place among the context words."""
    raw, normalized, masked, predictions, report = (
        tmp_path / name for name in
        ("raw.txt", "normalized.txt", "masked.jsonl", "eval.jsonl",
         "report.txt"))
    vocabulary = loadgen.vocabulary(seed)
    raw.write_text("".join(
        f"{line}\n" for index in range(CLI_CHUNKS)
        for line in loadgen.raw_chunk(seed, index, vocabulary)["lines"]),
        encoding="utf-8")
    assert main(["normalize", "--hemistichs", "-i", str(raw),
                 "-o", str(normalized),
                 "--reject-log", str(tmp_path / "rejects.txt")]) == 0
    assert main(["mask", "--seed", str(CONFIG.seed),
                 "--per-line", str(CONFIG.per_line),
                 "-i", str(normalized), "-o", str(masked)]) == 0

    lines = normalized.read_text(encoding="utf-8").splitlines()
    examples = [MaskedExample.from_json(text) for text in
                masked.read_text(encoding="utf-8").splitlines()]
    assert len(lines) > 100
    assert len(examples) == CONFIG.per_line * len(lines)
    e0, e1, e2 = CONFIG.markers
    with predictions.open("w", encoding="utf-8") as out:
        for k, example in enumerate(examples):
            words = lines[k // CONFIG.per_line].split()
            start, length = example.span
            end = start + length
            assert example.target == " ".join(words[start:end])
            shown = example.input.removesuffix(e2).split(" ")
            assert len(shown) == len(words) - length + 1
            assert shown[start] == f"{e0}{example.beats}{e1}"
            print(json.dumps({"target_beats": example.beats,
                              "generated_text": example.target,
                              "left_context": " ".join(words[:start]),
                              "right_context": " ".join(words[end:])},
                             ensure_ascii=False), file=out)
    assert main(["eval", "-i", str(predictions), "-o", str(report)]) == 0
    rows = report.read_text(encoding="utf-8").splitlines()
    assert f"n: {len(examples)}" in rows
    assert "exact_accuracy: 100.00" in rows
    assert "scan_failure_count: 0" in rows
