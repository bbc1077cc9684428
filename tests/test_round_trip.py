"""One contract across the batch tools: what `mask` writes, `eval` scores
exact and `fill` finds.

Seeded raw lines from the benchmark's load generator go through
`normalize` (``corpus.process_line``) and `mask` (``masking.line_examples``).
Each example's span, put back between the line's unreduced context words,
must score exact in ``metrics.evaluate_predictions``, and `fill` must find
each span of up to three words from a lexicon of the span's own
words.  Both read the span's beats inside the line, so a change in how
one tool reads a line's start, its end, the plural-m license or its word
alignment fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from arud.corpus import join_hemistichs, process_line
from arud.errors import ScriptError
from arud.filler import FillQuery, fill, index_lexicon
from arud.masking import MaskConfig, line_examples
from arud.metrics import PredictionRecord, evaluate_predictions
from arud.script import parse_line

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


@pytest.mark.parametrize("seed", SEEDS)
def test_mask_eval_and_fill_agree(seed):
    examples = spans(seed)
    assert len(examples) > 500
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
