"""Byte-identity snapshot of the scan engine, seen through the CLI.

``data/engine_snapshot/input.txt`` is a fixed corpus: seeded synthetic
verse, the golden verses, lines that exercise each scan rule, and lines
that fail with each error type.  Next to it sit the stdout and stderr
that ``arud scan`` wrote for it in each mode of ``MODES``.  A change to
the engine that is meant to keep output bytes must keep this test green.

Regenerate the files only from a commit whose output is trusted:

    PYTHONPATH=src python tests/test_engine_snapshot.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from arud.cli import main

SNAPSHOT_DIR = Path(__file__).parent / "data" / "engine_snapshot"
INPUT = SNAPSHOT_DIR / "input.txt"

MODES = {
    "golden": ["--golden"],
    "golden_final_mid": ["--golden", "--verse-final", "--mid-sentence"],
}

# Lines that reach each rule's less common branches.
RULE_LINES = [
    "آمَنَ بِهِ قَوْمٌ",                      # madda
    "ٱللَّهُ أَكْبَرُ",                        # initial wasl, special word
    "قَالَ ٱبْنُ مَالِكٍ",                    # wasl after a vowel
    "فِي ٱلدَّارِ رَجُلٌ",                    # wasl after a long vowel
    "مِنْ ٱبْنِ عَمِّهِ",                     # juncture: exact entry
    "عَلَيْهِمْ ٱلْقَوْمُ",                   # juncture: suffix entry
    "قَدْ ٱنْتَهَى ٱللَّيْلُ",                # juncture: default vowel
    "يَاٱبْنَٱبْنِ مَالِكٍ",                  # two wasls in one word
    "يَاٱٱبْنِ مَالِكٍ",                      # adjacent wasls, long vowel
    "مَا ٱ لَهُ",                             # a word that vanishes
    "فِي ٱلْبَيْتِ ٱلْكَبِيرِ ٱبْنُ عَمْرٍو",  # several wasls in a line
    "هَذَا ذَلِكَ هَذِهِ لَكِنْ",              # special words
    "أُولَئِكَ هُمُ ٱلْقَوْمُ",               # special word, silent letter
    "عَمْرٌو۠ كَتَبُوا۠ لَنَا",                # silent letters
    "لَهُ مَا بِهِ قَلْبٌ",                    # isba after hu/hi
    "لَهُمُ مَا عَلَيْكُمُ سَلَامٌ",           # isba after plural-m
    "عَلَيْكُمْ سَلَامٌ",                      # bare plural-m
    "رَأَيْتُ رَجُلًا مُقْبِلًا",              # tanwin-fath with its alif
    "رَأَيْتُ فَتًى",                          # tanwin-fath with alif maqsura
    "عَلَّمَ ٱلشَّمْسُ مُدَّ",                 # gemination
    "قَتَلَ",                                   # verse-final lengthening
    "مَكْتَبْ",                                 # line-final sakin
    "بَيْتٌ\tبَيْتٌ  مَا",                     # tab and double space
    "آمَنَ",                              # decomposed madda (NFC)
    "",                                         # blank line
    "   ",                                      # whitespace only
]

# One or more lines per error type the engine can raise.
BAD_LINES = [
    "َعَلَمَ",            # LeadingDiacritic
    "عَلَمَ x",           # ForeignCharacter
    "١٢ عَلَمَ",          # ForeignCharacter (Arabic-Indic digits)
    "عَلَّّمَ",           # DoubleDiacritic: doubled shadda
    "عَلََمَ",            # DoubleDiacritic: second vowel mark
    "عَمْرٌو۠۠",          # DoubleDiacritic: doubled silence mark
    "وَ۠مَا",             # DoubleDiacritic: silent letter with a vowel
    "ٱّلَمَ",             # DoubleDiacritic: geminated wasl
    "بَمّ",               # ShaddaWithoutVowel
    "عَلّْمَ",            # ShaddaWithoutVowel: shadda with sukun
    "ٱلْحَمْدُ لِلَّهِ",  # DanglingWasl under --mid-sentence
]


def build_input_lines():
    """The snapshot corpus; used only to regenerate the files."""
    sys.path.insert(0, str(Path(__file__).parent))
    from test_acceptance import GOLDEN_FILE, synthetic_corpus

    golden = [row.split("\t")[0]
              for row in GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
              if row.strip() and not row.startswith("#")]
    lines = synthetic_corpus(240, 6, seed=2509)
    # Interleave so that failures sit between good lines.
    extra = golden + RULE_LINES + BAD_LINES
    for i, line in enumerate(extra):
        lines.insert(i * 5 + 2, line)
    return lines


def run_scan(flags, input_path, output_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["scan", *flags, "-i", str(input_path),
                     "-o", str(output_path)])
    return code, Path(output_path).read_bytes(), err.getvalue().encode()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_scan_output_matches_snapshot(mode, tmp_path):
    code, out, err = run_scan(MODES[mode], INPUT, tmp_path / "out.txt")
    assert code == 0
    assert out == (SNAPSHOT_DIR / f"{mode}.out").read_bytes()
    assert err == (SNAPSHOT_DIR / f"{mode}.err").read_bytes()


def regenerate():
    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    with open(INPUT, "w", encoding="utf-8", newline="") as f:
        for line in build_input_lines():
            f.write(line + "\n")
    for mode, flags in MODES.items():
        out_path = SNAPSHOT_DIR / f"{mode}.out"
        _, _, err = run_scan(flags, INPUT, out_path)
        (SNAPSHOT_DIR / f"{mode}.err").write_bytes(err)


if __name__ == "__main__":
    regenerate()
