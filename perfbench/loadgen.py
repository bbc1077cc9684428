"""Seeded load generator for the arud benchmark.

It imports nothing from ``arud``: the program under test only ever sees
the text written here, and the seed is an argument, so a change to the
program cannot shift its own load.  Every chunk of input is a pure
function of (seed, workload, chunk index), so a run may consume as many
chunks as its time allows and the first chunks are the same on every run.

Which template a vocabulary rank gets, and how long its word is, follow a
fixed cycle; only the letters and vowels are drawn from the seed.  The mix
of scan rules a corpus exercises is therefore the same for every seed,
which keeps the cost of a chunk steady across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import random

FATHA, DAMMA, KASRA, SUKUN = "َ", "ُ", "ِ", "ْ"
TANWIN_FATH, TANWIN_DAMM, TANWIN_KASR = "ً", "ٌ", "ٍ"
SHADDA, SILENCE, TATWEEL = "ّ", "۠", "ـ"
WASL, MADDA = "ٱ", "آ"
ALIF, WAW, YA = "ا", "و", "ي"
HA, MIM, LAM, KAF, TA = "ه", "م", "ل", "ك", "ت"

SHORT_VOWELS = (FATHA, DAMMA, KASRA)
VOWEL_MARKS = SHORT_VOWELS + (SUKUN, TANWIN_FATH, TANWIN_DAMM, TANWIN_KASR)
ALL_MARKS = VOWEL_MARKS + (SHADDA, SILENCE)
LONG_FOR = {FATHA: ALIF, DAMMA: WAW, KASRA: YA}

SUN = "تثدذرزسشصضطظن"
MOON = "بجحخعغفقكمه"
CONSONANTS = "بتثجحخدذرزسشصضطظعغفقكلمن"

# Frequent words placed at the top vocabulary ranks for every seed:
# function words, the special-word table's short spellings, a silent
# letter and connective-alif words.
FUNCTION_WORDS = (
    "مِنْ", "فِي", "عَلَى", "إِلَى", "مَا", "لَا", "قَدْ", "هَلْ",
    "هَذَا", "ذَلِكَ", "هَذِهِ", "لَكِنْ", "ٱللَّهُ", "عَمْرٌو۠",
    "أُولَئِكَ", "ٱبْنُ", "يَا", "لَهُ", "بِهِ", "عَنْ",
)

# Fixed template cycle; the share of each template in the vocabulary is
# its share of this tuple.
TEMPLATE_CYCLE = (
    "plain", "shadda", "plain", "tanwin", "article", "plain", "pronoun",
    "prefix", "tanwin", "plain", "article_sun", "shadda", "plural_verb",
    "plain", "madda", "pronoun_plural", "tanwin_fath", "plain", "prefix",
    "article", "bare_plural_m", "plain", "shadda", "tanwin",
)

VOCAB_SIZE = 3000
ZIPF_S = 1.0

# Workload shapes.
SCAN_CHUNK = 256          # lines per scan CLI call
PREPARE_CHUNK = 192       # raw lines per normalize + mask pair
EVAL_CHUNK = 300          # prediction records per eval call
QUERY_POOL = 600          # fill queries whose targets are computed at set-up
QUERY_CYCLE = 24          # period of the planted phrases and context lengths
SCAN_BAD_SHARE = 0.01
PREFIX_CHUNKS = 16        # chunks covered by recorded digests and shares

# The infill lexicon is fixed across seeds so that query cost depends on
# the seed only through the context words.
FILL_LEXICON = (
    "قَلْبِي", "دَمْعٌ", "لَيْلٍ", "سَلَامٌ", "نَارُ", "عَلَى", "حُبُّهُ",
    "بَدْرٌ",
)
FILL_MAX_WORDS = 3


def _zipf_cum_weights(n: int, s: float) -> list:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s
                                     for rank in range(n)))


_CUM_WEIGHTS = _zipf_cum_weights(VOCAB_SIZE, ZIPF_S)


def _syllable(rng: random.Random, kind: str) -> str:
    c = rng.choice(CONSONANTS)
    v = rng.choice(SHORT_VOWELS)
    if kind == "open":
        return c + v
    if kind == "long":
        return c + v + LONG_FOR[v]
    return c + v + rng.choice(CONSONANTS) + SUKUN  # closed


def _stem(rng: random.Random, syllables: int) -> str:
    """Word body ending in a consonant that still needs its final vowel."""
    parts = []
    for _ in range(syllables - 1):
        parts.append(_syllable(rng, rng.choice(("open", "open", "long",
                                                 "closed"))))
    parts.append(rng.choice(CONSONANTS))
    return "".join(parts)


def _vocab_word(rng: random.Random, template: str, syllables: int) -> str:
    stem = _stem(rng, syllables)
    case = rng.choice(SHORT_VOWELS)
    if template == "plain":
        return stem + case
    if template == "shadda":
        c = rng.choice(CONSONANTS)
        return (rng.choice(CONSONANTS) + rng.choice(SHORT_VOWELS)
                + c + SHADDA + rng.choice(SHORT_VOWELS) + stem + case)
    if template == "tanwin":
        return stem + rng.choice((TANWIN_DAMM, TANWIN_KASR))
    if template == "tanwin_fath":
        return stem + TANWIN_FATH + ALIF
    if template == "article":
        return WASL + LAM + SUKUN + rng.choice(MOON) + rng.choice(
            SHORT_VOWELS) + stem + case
    if template == "article_sun":
        return WASL + LAM + rng.choice(SUN) + SHADDA + rng.choice(
            SHORT_VOWELS) + stem + case
    if template == "pronoun":
        return stem + rng.choice(SHORT_VOWELS) + HA + rng.choice(
            (DAMMA, KASRA))
    if template == "pronoun_plural":
        return stem + rng.choice(SHORT_VOWELS) + rng.choice(
            (HA, KAF, TA)) + DAMMA + MIM + DAMMA
    if template == "bare_plural_m":
        return stem + rng.choice(SHORT_VOWELS) + rng.choice(
            (HA, KAF)) + DAMMA + MIM + SUKUN
    if template == "plural_verb":
        return stem + DAMMA + WAW + ALIF + SILENCE
    if template == "madda":
        return MADDA + stem + case
    if template == "prefix":
        return rng.choice(("وَ", "فَ", "بِ", "لِ")) + stem + case
    raise ValueError(template)


def vocabulary(seed: int) -> list:
    """Function words first, then seeded words in the fixed template cycle."""
    rng = random.Random(f"arud-vocab:{seed}")
    words = list(FUNCTION_WORDS)
    seen = set(words)
    rank = 0
    while len(words) < VOCAB_SIZE:
        template = TEMPLATE_CYCLE[rank % len(TEMPLATE_CYCLE)]
        syllables = 1 + (rank // len(TEMPLATE_CYCLE)) % 3
        rank += 1
        word = _vocab_word(rng, template, syllables)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _words(rng: random.Random, vocab: list, k: int) -> list:
    return rng.choices(vocab, cum_weights=_CUM_WEIGHTS, k=k)


def _line(rng: random.Random, vocab: list, lo: int = 5, hi: int = 11) -> str:
    return " ".join(_words(rng, vocab, rng.randint(lo, hi)))


def _bad_line(rng: random.Random, vocab: list) -> str:
    """A line the scan command must reject, with one of three defects."""
    words = _words(rng, vocab, rng.randint(5, 9))
    i = rng.randrange(len(words))
    kind = rng.randrange(3)
    if kind == 0:
        words[i] = words[i] + "x"                           # foreign letter
    elif kind == 1:
        words[i] = rng.choice(CONSONANTS) + FATHA + rng.choice(
            CONSONANTS) + SHADDA + rng.choice(CONSONANTS) + KASRA  # no vowel
    else:
        words[i] = FATHA + words[i]                         # leading mark
    return " ".join(words)


def _chunk_rng(seed: int, workload: str, index) -> random.Random:
    return random.Random(f"arud-bench:{workload}:{seed}:{index}")


def scan_chunk(seed: int, index, vocab: list, golden: list) -> dict:
    """SCAN_CHUNK verse lines: one golden verse, ~1% planted bad lines.

    Returns the lines plus what a correct scan must give: the 1-based
    numbers of the bad lines and the expected beats of the golden line.
    """
    rng = _chunk_rng(seed, "scan", index)
    lines, bad = [], []
    for lineno in range(1, SCAN_CHUNK + 1):
        if rng.random() < SCAN_BAD_SHARE:
            lines.append(_bad_line(rng, vocab))
            bad.append(lineno)
        else:
            lines.append(_line(rng, vocab))
    pos = rng.randrange(SCAN_CHUNK)
    while pos + 1 in bad:
        pos = (pos + 1) % SCAN_CHUNK
    text, beats = golden[rng.randrange(len(golden))]
    lines[pos] = text
    return {"lines": lines, "bad": bad, "golden": {str(pos + 1): beats}}


def _degrade_word(rng: random.Random, word: str) -> str:
    """Strip marks the way partially diacritized sources do."""
    word = word.replace(SILENCE, "")
    if rng.random() < 0.9:
        word = word.replace(WASL, ALIF)
    r = rng.random()
    if r < 0.62:
        pass
    elif r < 0.87:
        word = word.replace(SUKUN, "")
    elif r < 0.94:
        word = "".join(ch for ch in word
                       if ch not in ALL_MARKS or rng.random() >= 0.35)
    elif r < 0.97:
        word = "".join(ch for ch in word if ch not in ALL_MARKS)
    else:
        marks = [i for i, ch in enumerate(word) if ch in ALL_MARKS]
        keep = set(marks[:1])
        word = "".join(ch for i, ch in enumerate(word)
                       if ch not in ALL_MARKS or i in keep)
    if TANWIN_FATH + ALIF in word and rng.random() < 0.5:
        word = word.replace(TANWIN_FATH + ALIF, ALIF + TANWIN_FATH)
    if rng.random() < 0.03 and len(word) > 2:
        word = word[:2] + TATWEEL + word[2:]
    return word


def raw_chunk(seed: int, index, vocab: list) -> dict:
    """PREPARE_CHUNK raw lines for ``normalize --hemistichs``.

    Planted lines: Latin-only lines (must be rejected as foreign residue),
    two- or three-word lines (must be rejected as too few words), and
    geminated letters with their vowel removed.  The rest carry per-word
    mark loss, tatweel, Latin residue, or are split into hemistich pairs.
    """
    rng = _chunk_rng(seed, "prepare", index)
    lines, expect = [], {}
    for lineno in range(1, PREPARE_CHUNK + 1):
        r = rng.random()
        if r < 0.03:
            lines.append(rng.choice(("Page %d", "[%d] --", "ref. %d; ibid."))
                         % rng.randrange(1, 999))
            expect[str(lineno)] = "foreign_residue"
            continue
        if r < 0.07:
            lines.append(" ".join(_degrade_word(rng, w)
                                  for w in _words(rng, vocab,
                                                  rng.randint(2, 3))))
            expect[str(lineno)] = "too_few_words"
            continue
        words = [_degrade_word(rng, w)
                 for w in _words(rng, vocab, rng.randint(5, 11))]
        if r < 0.10:
            i = rng.randrange(len(words))
            words[i] = rng.choice(CONSONANTS) + FATHA + rng.choice(
                CONSONANTS) + SHADDA + rng.choice(CONSONANTS) + KASRA
        if rng.random() < 0.10:
            words.insert(rng.randrange(len(words) + 1),
                         rng.choice(("(%d)", "#%d", "p.%d")) % rng.randrange(99))
        r = rng.random()
        if r < 0.25:
            mid = len(words) // 2
            lines.append(" ".join(words[:mid]) + "\t" + " ".join(words[mid:]))
        elif r < 0.27:
            lines.append(" ".join(words) + "\t")
        else:
            lines.append(" ".join(words))
    return {"lines": lines, "expect": expect}


def _planted_phrases() -> list:
    """The fixed cycle of planted phrases: 1, 2, 3 words in turn."""
    rng = random.Random("arud-fill-phrases")
    return [" ".join(rng.choices(FILL_LEXICON, k=1 + i % FILL_MAX_WORDS))
            for i in range(QUERY_CYCLE)]


def fill_queries(seed: int, vocab: list) -> list:
    """QUERY_POOL (left, phrase, right) queries with a planted phrase.

    The planted phrase and the context lengths (one to three words left,
    one or two right) repeat with period QUERY_CYCLE for every seed, so
    every run meets the same mix of query costs; only the context words
    come from the seed.
    """
    rng = _chunk_rng(seed, "infill", "queries")
    phrases = _planted_phrases()
    queries = []
    for i in range(QUERY_POOL):
        queries.append({
            "left": " ".join(_words(rng, vocab, 1 + i % 3)),
            "phrase": phrases[i % QUERY_CYCLE],
            "right": " ".join(_words(rng, vocab, 1 + (i // 3) % 2)),
        })
    return queries


def eval_records(seed: int, index, queries: list) -> list:
    """EVAL_CHUNK prediction records built from scanned queries.

    Each query carries ``beats`` (the phrase's in-context beats) and
    ``line_beats`` (the whole line's).  Records take consecutive queries
    from a seeded start, so every chunk spans the same query cycle, and
    cycle through four kinds: the planted phrase, the next query's planted
    phrase, unscannable text, and a context-free whole line.
    """
    start = _chunk_rng(seed, "eval", index).randrange(len(queries))
    records = []
    for i in range(EVAL_CHUNK):
        q = queries[(start + i) % len(queries)]
        kind = i % 10
        if kind < 5:
            text = q["phrase"]
        elif kind < 8:
            text = queries[(start + i + 1) % len(queries)]["phrase"]
        elif kind < 9:
            text = q["phrase"] + " x"
        else:
            records.append({"target_beats": q["line_beats"],
                            "generated_text": " ".join(
                                (q["left"], q["phrase"], q["right"]))})
            continue
        records.append({"target_beats": q["beats"], "generated_text": text,
                        "left_context": q["left"], "right_context": q["right"]})
    return records


def repeat_shares(lines) -> dict:
    """Share of lines, and of word tokens, that repeat an earlier one."""
    seen_lines, seen_words = set(), set()
    n_lines = rep_lines = n_words = rep_words = 0
    for line in lines:
        n_lines += 1
        rep_lines += line in seen_lines
        seen_lines.add(line)
        for word in line.split():
            n_words += 1
            rep_words += word in seen_words
            seen_words.add(word)
    return {"line_repeat_share": rep_lines / max(n_lines, 1),
            "word_repeat_share": rep_words / max(n_words, 1)}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
