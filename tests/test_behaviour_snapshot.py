"""Byte-identity snapshot of the batch subcommands.

``data/behaviour_snapshot`` holds fixed inputs (raw verse for
``normalize`` and ``filter``, scan-ready lines for ``mask``, a lexicon for
``fill`` and prediction records for ``eval``) and, for every case in
``CASES``, the stdout, the stderr and every side file the command wrote.
Warnings logged under the ``arud`` logger are appended to the stderr
capture.  Commands that take ``--jobs`` run at 1 and 2 jobs against the
same files.  A change meant to keep the corpus, masking, filler and
metrics paths as they are must keep this test green.

Regenerate the files only from a commit whose output is trusted:

    PYTHONPATH=src python tests/test_behaviour_snapshot.py
"""

import contextlib
import io
import json
import logging
import random
import sys
from pathlib import Path

import pytest

from arud.cli import main

SNAPSHOT_DIR = Path(__file__).parent / "data" / "behaviour_snapshot"

# Inputs, all under SNAPSHOT_DIR.
RAW = "raw.txt"
MASK_INPUT = "mask_input.txt"
LEXICON = "lexicon.txt"
PREDICTIONS = "predictions.jsonl"

# name -> (argv, side files, takes --jobs).  "{in}" marks an input
# file, "{side}" a side file the command writes.
CASES = {
    "normalize": (["normalize", "--hemistichs", "--stats", "{side:stats}",
                   "--reject-log", "{side:rejects}", "-i", "{in:%s}" % RAW],
                  True),
    "normalize_stages_off": (["normalize", "--no-known-words",
                              "--no-lam-kasra", "--no-wasl-heuristic",
                              "--no-silent-marking", "--min-ratio", "0.7",
                              "--min-words", "3", "-i", "{in:%s}" % RAW],
                             True),
    "filter": (["filter", "-i", "{in:%s}" % RAW], False),
    "mask": (["mask", "--seed", "5", "--per-line", "3",
              "-i", "{in:%s}" % MASK_INPUT], True),
    "fill_plain": (["fill", "--lexicon", "{in:%s}" % LEXICON,
                    "--target", "11010"], False),
    "fill_right": (["fill", "--lexicon", "{in:%s}" % LEXICON,
                    "--target", "1011", "--right", "ٱبْنُ مَالِكٍ"], False),
    "fill_left_final": (["fill", "--lexicon", "{in:%s}" % LEXICON,
                         "--target", "110", "--left", "لَهُ",
                         "--verse-final"], False),
    "fill_both": (["fill", "--lexicon", "{in:%s}" % LEXICON,
                   "--target", "10110", "--left", "مِنْ",
                   "--right", "ٱلْقَوْمُ", "--max-words", "2"], False),
    "fill_none": (["fill", "--lexicon", "{in:%s}" % LEXICON,
                   "--target", "1101", "--left", "قِفَا نَبْكِ",
                   "--right", "مَعًا", "--max-results", "3"], False),
    "eval": (["eval", "-i", "{in:%s}" % PREDICTIONS], False),
}


def _argv(template, tmp_dir):
    """Concrete argv and the side-file paths it names."""
    argv, sides = [], {}
    for arg in template:
        if arg.startswith("{in:"):
            arg = str(SNAPSHOT_DIR / arg[4:-1])
        elif arg.startswith("{side:"):
            name = arg[6:-1]
            sides[name] = Path(tmp_dir, name)
            arg = str(sides[name])
        argv.append(arg)
    return argv, sides


def run_case(name, jobs, tmp_dir):
    """{suffix: bytes} for stdout, stderr, exit code and side files."""
    template, takes_jobs = CASES[name]
    argv, sides = _argv(template, tmp_dir)
    if takes_jobs:
        argv[1:1] = ["--jobs", str(jobs)]
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s:%(name)s:"
                                           "%(message)s"))
    logger = logging.getLogger("arud")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        logger.removeHandler(handler)
    files = {"out": out.getvalue().encode(), "err": err.getvalue().encode(),
             "code": f"{code}\n".encode()}
    for side, path in sides.items():
        files[side] = path.read_bytes()
    return files


def _jobs_params():
    return [(name, jobs) for name, (_, takes_jobs) in sorted(CASES.items())
            for jobs in ((1, 2) if takes_jobs else (1,))]


@pytest.mark.parametrize("name,jobs", _jobs_params())
def test_output_matches_snapshot(name, jobs, tmp_path):
    files = run_case(name, jobs, tmp_path)
    for suffix, data in files.items():
        assert data == (SNAPSHOT_DIR / f"{name}.{suffix}").read_bytes(), \
            f"{name} --jobs {jobs}: {suffix} differs"


# -- regeneration --------------------------------------------------------

# Words that reach the normalize heuristics: known words without marks,
# special-word spellings, connective alifs, silent letters, clitic lam,
# the masculine plural ending and plural-m juncture contexts.
EXTRA_WORDS = [
    "من", "في", "عن", "هَذا", "ذَلِكَ", "لَكِنْ", "ٱللَّهُ", "ابْنُ", "اسْمُ",
    "الْقَوْمُ", "الشَّمْسُ", "عَمْرو", "مِائَةُ", "كَتَبُوا", "لقَوْمِهِ", "لِقَاءُ",
    "عَلَيْهِمْ", "عَلَيْكُمْ", "لَهُ", "بِهِ", "مَا", "قَدْ", "آمَنَ",
    "فَتًى", "رَجُلًا",
]

MARK_CHARS = set("ًٌٍَُِّْ۠")


def _strip_marks(word, rng, p):
    return "".join(ch for ch in word
                   if ch not in MARK_CHARS or rng.random() >= p)


def _degrade(word, rng):
    r = rng.random()
    if r < 0.02:
        return _strip_marks(word, rng, 1.0)
    if r < 0.08:
        return _strip_marks(word, rng, 0.6)
    if r < 0.24:
        return word.replace("ْ", "")
    if r < 0.28:
        return word[:2] + "ـ" + word[2:]
    if r < 0.31:
        return word + rng.choice(("x", "٣", "،", "."))
    return word


def build_raw_lines():
    sys.path.insert(0, str(Path(__file__).parent))
    from test_acceptance import VOCAB
    from test_engine_snapshot import BAD_LINES, RULE_LINES

    rng = random.Random(3303)
    vocab = VOCAB + EXTRA_WORDS
    lines = []
    for _ in range(150):
        words = [_degrade(w, rng)
                 for w in rng.choices(vocab, k=rng.randint(3, 10))]
        r = rng.random()
        if r < 0.15 and len(words) > 1:
            half = len(words) // 2
            lines.append(" ".join(words[:half]) + "\t"
                         + " ".join(words[half:]))
        elif r < 0.18:
            lines.append(" ".join(words) + "\t")
        elif r < 0.21:
            lines.append(rng.choice(("Page %d", "[%d] --", "ref. %d"))
                         % rng.randrange(1, 999))
        elif r < 0.23:
            lines.append("")
        else:
            lines.append(" ".join(words))
    extra = RULE_LINES + BAD_LINES
    for i, line in enumerate(extra):
        lines.insert(i * 4 + 1, line)
    return lines


def build_mask_lines(normalized):
    sys.path.insert(0, str(Path(__file__).parent))
    from test_engine_snapshot import BAD_LINES, RULE_LINES

    lines = normalized[:60]
    for i, line in enumerate(RULE_LINES + BAD_LINES):
        lines.insert(i * 2 + 1, line)
    return lines


LEXICON_WORDS = [
    "مِكَرٍّ", "مُقْبِلٍ", "مَعًا", "حَبِيبٍ", "قِفَا", "نَبْكِ", "مِنْ",
    "عَلَّمَ", "قَتَلَ", "سَلَامٌ", "لَهُ", "مَا", "قَدْ", "عَلَيْكُمْ",
    "بِهِ", "هَذَا", "بَمّ", "مَا لَهُ", "مَا", "",
]


def build_predictions():
    records = [
        {"target_beats": "11010", "generated_text": "بِهِ قَدْ"},
        {"target_beats": "11010", "generated_text": "بِهِ مِنْ",
         "coherence": 4},
        {"target_beats": "1110", "generated_text": "قَتَلَ",
         "verse_final": True, "coherence": 2.5},
        {"beats": "110", "generated_text": "لَهُ"},
        {"target_beats": "1011", "generated_text": "عَلَّمَ",
         "right_context": "ٱبْنُ مَالِكٍ"},
        {"target_beats": "1011", "generated_text": "قَدْ بِهِ",
         "right_context": "ٱبْنُ مَالِكٍ", "left_context": ""},
        {"target_beats": "110", "generated_text": "مَعًا",
         "left_context": "لَهُ", "verse_final": True},
        {"target_beats": "10110", "generated_text": "مُقْبِلٍ",
         "left_context": "مِنْ", "right_context": "ٱلْقَوْمُ"},
        {"target_beats": "10110", "generated_text": "مُقْبِلٍ مَا",
         "left_context": "مِنْ", "right_context": "ٱلْقَوْمُ"},
        {"target_beats": "1101", "generated_text": "بَمّ"},
        {"target_beats": "1101", "generated_text": "بَمّ",
         "left_context": "قِفَا"},
        {"target_beats": "10", "generated_text": "ٱلْحَمْدُ",
         "left_context": "   ", "right_context": "لِلَّهِ"},
        {"target_beats": "11", "generated_text": "   "},
        {"target_beats": "11", "generated_text": "hello"},
        {"target_beats": "1", "generated_text": "مَا", "coherence": None},
    ]
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    lines[3:3] = ["", "{not json", "[1, 2]", '{"generated_text": "مَا"}',
                  '{"target_beats": "", "generated_text": "مَا"}',
                  '{"target_beats": "10", "generated_text": 7}',
                  '{"target_beats": "10"}']
    return lines


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in lines:
            f.write(line + "\n")


def regenerate():
    import tempfile

    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    _write_lines(SNAPSHOT_DIR / RAW, build_raw_lines())
    _write_lines(SNAPSHOT_DIR / LEXICON, LEXICON_WORDS)
    _write_lines(SNAPSHOT_DIR / PREDICTIONS, build_predictions())
    with tempfile.TemporaryDirectory() as tmp:
        # mask reads the accepted lines of the first normalize case.
        normalized = run_case("normalize", 1, tmp)["out"].decode()
        _write_lines(SNAPSHOT_DIR / MASK_INPUT,
                     build_mask_lines(normalized.splitlines()))
        for name, jobs in _jobs_params():
            files = run_case(name, jobs, tmp)
            if jobs == 1:
                for suffix, data in files.items():
                    (SNAPSHOT_DIR / f"{name}.{suffix}").write_bytes(data)
            elif files != run_case(name, 1, tmp):
                raise SystemExit(f"{name}: --jobs {jobs} differs from 1")


if __name__ == "__main__":
    regenerate()
